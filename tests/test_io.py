"""Field container round trips, config parsing, canonical reports."""

import json
import struct

import numpy as np
import pytest

from anisoflow import GridSpec, InvalidInputError
from anisoflow.io import (
    emit_report,
    parse_config,
    read_field,
    report_bytes,
    report_payload,
    write_field,
)
from anisoflow.solver import SolveOptions, solve_elliptic

MAGIC = b"ANZF"


def _header(ndim, dims, spacing, version=1):
    parts = [MAGIC, struct.pack("<I", version), struct.pack("<B", ndim)]
    parts.append(struct.pack(f"<{ndim}Q", *dims))
    parts.append(struct.pack(f"<{ndim}d", *spacing))
    return b"".join(parts)


class TestFieldFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((4, 5))
        vals[0, 0] = -0.0
        vals[1, 1] = 5e-324
        path = tmp_path / "f.anzf"
        write_field(path, vals, (0.5, 2.0))
        back, spacing = read_field(path)
        np.testing.assert_array_equal(back, vals)
        assert np.signbit(back[0, 0])
        assert spacing == (0.5, 2.0)

    def test_one_and_three_dimensional_fields(self, tmp_path):
        for shape in ((7,), (2, 3, 4)):
            vals = np.arange(np.prod(shape), dtype=float).reshape(shape)
            path = tmp_path / "x.anzf"
            write_field(path, vals, (1.0,) * len(shape))
            back, _ = read_field(path)
            np.testing.assert_array_equal(back, vals)

    def test_rank_spacing_mismatch(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_field(tmp_path / "bad.anzf", np.zeros((2, 2)), (1.0,))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.anzf"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(InvalidInputError, match="magic"):
            read_field(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.anzf"
        path.write_bytes(MAGIC)
        with pytest.raises(InvalidInputError, match="truncated"):
            read_field(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v2.anzf"
        path.write_bytes(_header(1, (2,), (1.0,), version=2) + b"\x00" * 16)
        with pytest.raises(InvalidInputError, match="version"):
            read_field(path)

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "odd.anzf"
        path.write_bytes(_header(1, (2,), (1.0,)) + b"\x00" * 24)
        with pytest.raises(InvalidInputError, match="payload"):
            read_field(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge.anzf"
        path.write_bytes(_header(1, (1 << 40,), (1.0,)))
        with pytest.raises(InvalidInputError, match="overflow"):
            read_field(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "zero.anzf"
        path.write_bytes(_header(2, (0, 4), (1.0, 1.0)))
        with pytest.raises(InvalidInputError, match="overflow"):
            read_field(path)


GOOD = """\
[grid]
dims = 8, 8
spacing = 0.5, 0.5
blocks = 1, 1
exponents = 1.0, 2.0
boundary_mode = neumann_block1

[solver]
problem = elliptic
gap_tol = 1e-9
"""


class TestParseConfig:
    def test_valid_config(self):
        cfg = parse_config(GOOD)
        assert cfg.problem == "elliptic"
        assert cfg.spec.dims == (8, 8)
        assert cfg.spec.spacing == (0.5, 0.5)
        assert cfg.solve_options.gap_tol == 1e-9
        assert cfg.solve_options.max_iter == 50000
        assert cfg.tau_time == 1.0 and cfg.n_steps == 1 and cfg.seed == 0
        assert cfg.raw_text == GOOD

    def test_spacing_defaults_to_unit(self):
        cfg = parse_config(
            "[grid]\ndims = 4, 4\nblocks = 1, 1\nexponents = 1, 2\n"
        )
        assert cfg.spec.spacing == (1.0, 1.0)

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config(GOOD + "\n# trailing comment\n\n")
        assert cfg.spec is not None

    def test_selftest_needs_no_grid(self):
        cfg = parse_config("[solver]\nproblem = selftest\nseed = 3\n")
        assert cfg.spec is None and cfg.seed == 3

    def test_grid_required_otherwise(self):
        with pytest.raises(InvalidInputError, match="grid"):
            parse_config("[solver]\nproblem = elliptic\n")

    def test_all_errors_collected_with_line_numbers(self):
        text = (
            "[grid]\n"            # 1
            "dims = 4, 4\n"       # 2
            "blocks = 1, 1\n"     # 3
            "exponents = 1, 2\n"  # 4
            "color = blue\n"      # 5 unknown key
            "[solver]\n"          # 6
            "gap_tol = soon\n"    # 7 malformed
            "n_steps = 0\n"       # 8 out of range
        )
        with pytest.raises(InvalidInputError) as err:
            parse_config(text)
        lines = [n for n, _ in err.value.errors]
        assert lines == [5, 7, 8]
        assert "line 5" in str(err.value) and "line 7" in str(err.value)

    def test_grid_errors_point_at_the_section(self):
        text = (
            "[grid]\n"
            "dims = 4, 4\n"
            "blocks = 1, 1\n"
            "exponents = 1.5, 2\n"
        )
        with pytest.raises(InvalidInputError, match="line 1"):
            parse_config(text)

    def test_unknown_section_and_orphan_key(self):
        with pytest.raises(InvalidInputError) as err:
            parse_config("x = 1\n[misc]\ny = 2\n")
        msgs = [m for _, m in err.value.errors]
        assert any("outside any section" in m for m in msgs)
        assert any("unknown section" in m for m in msgs)

    def test_duplicate_key(self):
        with pytest.raises(InvalidInputError, match="duplicate"):
            parse_config(GOOD + "[io]\ninput = a\ninput = b\n")

    def test_unknown_problem(self):
        with pytest.raises(InvalidInputError, match="problem"):
            parse_config(GOOD.replace("problem = elliptic", "problem = heat"))

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="seed"):
            parse_config(GOOD + "seed = -1\n")

    def test_io_section_round_trips(self):
        cfg = parse_config(GOOD + "[io]\ninput = u.anzf\ncheck_mode = parabolic\n")
        assert cfg.input_path == "u.anzf"
        assert cfg.check_mode == "parabolic"
        assert cfg.z_input_path is None


@pytest.fixture(scope="module")
def solved():
    spec = GridSpec(
        dims=(6, 6),
        spacing=(1.0, 1.0),
        blocks=(1, 1),
        exponents=(1.0, 2.0),
        boundary_mode="neumann_block1",
    )
    return solve_elliptic(np.ones((6, 6)), spec, SolveOptions(gap_tol=1e-6))


class TestReports:
    def test_timing_excluded_by_default(self, solved):
        payload = report_payload(solved.report)
        assert "wall_time_s" not in payload["report"]

    def test_certificate_attached_from_report(self, solved):
        payload = report_payload(solved.report)
        assert payload["certificate"]["sup_norm_z1"] is not None

    def test_identical_runs_identical_bytes(self, solved):
        a = report_bytes(report_payload(solved.report, seed=0))
        b = report_bytes(report_payload(solved.report, seed=0))
        assert a == b

    def test_non_finite_values_become_null(self):
        payload = report_payload({"good": 1.5, "bad": float("inf"), "worse": float("nan")})
        data = json.loads(report_bytes(payload))
        assert data["report"]["good"] == 1.5
        assert data["report"]["bad"] is None
        assert data["report"]["worse"] is None

    def test_none_report_gives_empty_body(self):
        payload = report_payload(None)
        assert payload["report"] == {}

    def test_emit_report_writes_what_it_returns(self, solved, tmp_path):
        path = tmp_path / "report.json"
        blob = emit_report(solved.report, None, path, config_echo={"k": "v"}, seed=7)
        assert path.read_bytes() == blob
        data = json.loads(blob)
        assert data["seed"] == 7
        assert data["config"] == {"k": "v"}
