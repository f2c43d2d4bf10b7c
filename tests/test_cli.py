"""Command-line front end, exercised in process through main()."""

import json

import numpy as np
import pytest

from anisoflow import cli
from anisoflow.cli import main
from anisoflow.io import read_field, write_field

CONFIG = """\
[grid]
dims = 6, 6
spacing = 0.5, 0.5
blocks = 1, 1
exponents = 1.0, 2.0
boundary_mode = neumann_block1

[solver]
problem = {problem}
gap_tol = 1e-8
tau_time = 0.25
n_steps = 3
"""


def _write_config(tmp_path, problem="elliptic", extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG.format(problem=problem) + extra)
    return path


class TestSolveCommands:
    def test_solve_elliptic_writes_solution_and_report(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["solve-elliptic", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        u, spacing = read_field(out / "u.anzf")
        assert u.shape == (6, 6) and spacing == (0.5, 0.5)
        z, _ = read_field(out / "z.anzf")
        assert z.shape == (2, 6, 6)
        report = json.loads((out / "report.json").read_text())
        assert report["report"]["converged"] is True
        assert report["certificate"]["sup_norm_z1"] <= 1.0 + 1e-9
        assert "converged in" in capsys.readouterr().out

    def test_input_field_is_consumed(self, tmp_path):
        rng = np.random.default_rng(70)
        f = rng.standard_normal((6, 6))
        write_field(tmp_path / "f.anzf", f, (0.5, 0.5))
        cfg = _write_config(tmp_path, extra=f"\n[io]\ninput = {tmp_path}/f.anzf\n")
        out = tmp_path / "out"
        assert main(["solve-elliptic", "--config", str(cfg), "--out", str(out)]) == 0
        u, _ = read_field(out / "u.anzf")
        assert np.any(u != 0.0)

    def test_resolvent_command(self, tmp_path):
        cfg = _write_config(tmp_path, problem="resolvent")
        out = tmp_path / "out"
        assert main(["resolvent", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["report"]["problem"] == "resolvent"

    def test_overrides_reach_the_solver(self, tmp_path, monkeypatch):
        seen = []
        solve = cli.solve_elliptic
        monkeypatch.setattr(
            cli, "solve_elliptic", lambda f, spec, opts: seen.append(opts) or solve(f, spec, opts)
        )
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(
            [
                "solve-elliptic",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--seed",
                "5",
                "--gap-tol",
                "1e-6",
            ]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 5
        assert [opts.gap_tol for opts in seen] == [1e-6]

    def test_shape_mismatch_is_invalid_input(self, tmp_path, capsys):
        write_field(tmp_path / "f.anzf", np.zeros((4, 4)), (0.5, 0.5))
        cfg = _write_config(tmp_path, extra=f"\n[io]\ninput = {tmp_path}/f.anzf\n")
        rc = main(["solve-elliptic", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "invalid_input"
        assert "shape" in err["error"]["message"]


class TestEvolveCommand:
    def test_writes_trajectory_summary(self, tmp_path):
        u0 = np.zeros((6, 6))
        u0[:3] = 1.0
        write_field(tmp_path / "u0.anzf", u0, (0.5, 0.5))
        cfg = _write_config(
            tmp_path, problem="evolve", extra=f"\n[io]\ninput = {tmp_path}/u0.anzf\n"
        )
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        body = report["report"]
        assert body["n_steps"] == 3
        assert len(body["times"]) == 4
        assert len(body["step_gaps"]) == 3
        assert body["energy_totals"][-1] <= body["energy_totals"][0]


class TestCheckCommand:
    def test_certifies_a_written_solution(self, tmp_path):
        cfg = _write_config(tmp_path)
        sol = tmp_path / "sol"
        assert main(["solve-elliptic", "--config", str(cfg), "--out", str(sol)]) == 0
        check_cfg = _write_config(
            tmp_path,
            problem="check",
            extra=f"\n[io]\ninput = {sol}/u.anzf\nz_input = {sol}/z.anzf\n",
        )
        out = tmp_path / "chk"
        assert main(["check", "--config", str(check_cfg), "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())["certificate"]
        assert cert["sup_norm_z1"] <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "dims, blocks, tv_norm",
        [((8, 8), "1, 1", "euclidean"), ((4, 4, 3), "2, 1", "l1")],
        ids=["euclidean", "l1-blocks-2-1"],
    )
    def test_reproduces_the_solver_certificate(self, tmp_path, dims, blocks, tv_norm):
        # with the returned boundary flux and the solve's tv_norm, check
        # recomputes the certificate the solver reported, bar the gap
        head = (
            f"[grid]\ndims = {', '.join(map(str, dims))}\nblocks = {blocks}\n"
            "exponents = 1.0, 2.0\nboundary_mode = dirichlet_penalized\n"
            f"\n[solver]\ntv_norm = {tv_norm}\n"
        )
        rng = np.random.default_rng(72)
        write_field(tmp_path / "f.anzf", rng.standard_normal(dims), (1.0,) * len(dims))
        solve_cfg = tmp_path / "solve.cfg"
        solve_cfg.write_text(head + f"problem = elliptic\n\n[io]\ninput = {tmp_path}/f.anzf\n")
        sol = tmp_path / "sol"
        assert main(["solve-elliptic", "--config", str(solve_cfg), "--out", str(sol)]) == 0
        check_cfg = tmp_path / "check.cfg"
        check_cfg.write_text(
            head
            + "problem = check\n\n[io]\n"
            + f"input = {sol}/u.anzf\nz_input = {sol}/z.anzf\nv0_input = {sol}/v0.anzf\n"
            + f"rhs_input = {tmp_path}/f.anzf\n"
        )
        out = tmp_path / "chk"
        assert main(["check", "--config", str(check_cfg), "--out", str(out)]) == 0
        solved = json.loads((sol / "report.json").read_text())["certificate"]
        checked = json.loads((out / "certificate.json").read_text())["certificate"]
        assert solved.keys() == checked.keys()
        assert {k for k in solved if solved[k] != checked[k]} <= {"gap"}

    def test_missing_z_input_is_invalid(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, problem="check")
        rc = main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "z_input" in json.loads(capsys.readouterr().err)["error"]["message"]


class TestOracleCommand:
    def test_writes_reference_value(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
        u_ref, _ = read_field(out / "u_ref.anzf")
        assert u_ref.shape == (6, 6)
        report = json.loads((out / "report.json").read_text())
        assert report["report"]["problem"] == "oracle-elliptic"
        assert "value_ref" in report["report"]
        assert "oracle (elliptic)" in capsys.readouterr().out


class TestErrorPaths:
    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        rc = main(["solve-elliptic", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "io_error"

    def test_bad_config_is_invalid_input(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[solver]\nproblem = heat\n")
        rc = main(["solve-elliptic", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "invalid_input"

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        rc = main(
            ["solve-elliptic", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "-1"]
        )
        assert rc == 2
        capsys.readouterr()

    def test_exhausted_budget_is_non_convergence(self, tmp_path, capsys):
        rng = np.random.default_rng(71)
        write_field(tmp_path / "f.anzf", rng.standard_normal((6, 6)), (0.5, 0.5))
        cfg = _write_config(tmp_path, extra=f"\n[io]\ninput = {tmp_path}/f.anzf\n")
        rc = main(
            [
                "solve-elliptic",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "o"),
                "--max-iter",
                "5",
                "--gap-tol",
                "1e-14",
            ]
        )
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "non_convergence"
