"""Config parsing, binary field files, and report serialization.

Config files are plain ``key = value`` text with ``[grid]``,
``[solver]``, and ``[io]`` sections.  Parsing validates everything and
reports all problems at once, each tagged with its line number.

Field files use a little-endian container: magic ``ANZF``, version u32,
ndim u8, then one u64 per axis (shape), one f64 per axis (spacing), and
the float64 payload in C order.  Round trips are bit-exact.

Reports serialize as canonical JSON (sorted keys, fixed layout) so that
identical runs produce identical bytes; wall-clock timing is excluded
unless asked for.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .grid import GridSpec
from .solver import SolveOptions

PROBLEMS = ("elliptic", "evolve", "resolvent", "check", "oracle", "selftest")
_MAGIC = b"ANZF"
_VERSION = 1
_MAX_TOTAL_CELLS = 1 << 28
_SECTIONS = ("grid", "solver", "io")

_GRID_KEYS = ("dims", "spacing", "blocks", "exponents", "boundary_mode")
_SOLVER_KEYS = (
    "problem",
    "max_iter",
    "gap_tol",
    "residual_check_every",
    "theta_relax",
    "tv_norm",
    "tau_time",
    "n_steps",
    "seed",
)
_IO_KEYS = ("input", "z_input", "rhs_input", "check_mode")


@dataclass(frozen=True)
class RunConfig:
    """Validated run description assembled from a config file."""

    problem: str
    spec: GridSpec | None
    solve_options: SolveOptions
    tau_time: float
    n_steps: int
    seed: int
    input_path: str | None
    z_input_path: str | None
    rhs_input_path: str | None
    check_mode: str
    raw_text: str


def _parse_list(text, cast):
    return tuple(cast(part.strip()) for part in text.split(",") if part.strip() != "")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config; collects every error.

    Raises InvalidInputError whose message lists all problems with their
    line numbers (also available as the exception's ``errors``
    attribute).
    """
    errors: list[tuple[int, str]] = []
    values: dict[tuple[str, str], str] = {}
    lines_of: dict[tuple[str, str], int] = {}
    section = None
    section_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                errors.append((lineno, f"unknown section [{name}]"))
                section = None
            else:
                section = name
                section_line[name] = lineno
            continue
        if "=" not in line:
            errors.append((lineno, f"expected key = value, got {line!r}"))
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if section is None:
            errors.append((lineno, f"key {key!r} outside any section"))
            continue
        known = {"grid": _GRID_KEYS, "solver": _SOLVER_KEYS, "io": _IO_KEYS}[section]
        if key not in known:
            errors.append((lineno, f"unknown key {key!r} in [{section}]"))
            continue
        if (section, key) in values:
            errors.append((lineno, f"duplicate key {key!r} in [{section}]"))
            continue
        values[(section, key)] = val
        lines_of[(section, key)] = lineno

    def take(section, key, cast, default):
        if (section, key) not in values:
            return default
        raw = values[(section, key)]
        try:
            return cast(raw)
        except (ValueError, TypeError):
            errors.append(
                (lines_of[(section, key)], f"malformed value for {key!r}: {raw!r}")
            )
            return default

    problem = take("solver", "problem", str, "elliptic")
    if problem not in PROBLEMS:
        errors.append(
            (
                lines_of.get(("solver", "problem"), 0),
                f"problem must be one of {PROBLEMS}, got {problem!r}",
            )
        )

    spec = None
    grid_given = any(s == "grid" for s, _k in values)
    if grid_given:
        dims = take("grid", "dims", lambda s: _parse_list(s, int), ())
        spacing = take("grid", "spacing", lambda s: _parse_list(s, float), None)
        blocks = take("grid", "blocks", lambda s: _parse_list(s, int), ())
        exponents = take("grid", "exponents", lambda s: _parse_list(s, float), ())
        mode = take("grid", "boundary_mode", str, "dirichlet_penalized")
        if spacing is None:
            spacing = tuple(1.0 for _ in dims)
        try:
            spec = GridSpec(dims, spacing, blocks, exponents, mode)
        except InvalidInputError as e:
            errors.append((section_line.get("grid", 0), str(e)))
    elif problem != "selftest":
        errors.append((0, "a [grid] section is required for this problem"))

    opt_kwargs = dict(
        max_iter=take("solver", "max_iter", int, 50000),
        gap_tol=take("solver", "gap_tol", float, 1e-8),
        residual_check_every=take("solver", "residual_check_every", int, 50),
        theta_relax=take("solver", "theta_relax", float, 1.0),
        tv_norm=take("solver", "tv_norm", str, "euclidean"),
    )
    try:
        opts = SolveOptions(**opt_kwargs)
    except InvalidInputError as e:
        errors.append((section_line.get("solver", 0), str(e)))
        opts = SolveOptions()

    tau_time = take("solver", "tau_time", float, 1.0)
    if not tau_time > 0:
        errors.append((lines_of.get(("solver", "tau_time"), 0), "tau_time must be positive"))
    n_steps = take("solver", "n_steps", int, 1)
    if n_steps < 1:
        errors.append((lines_of.get(("solver", "n_steps"), 0), "n_steps must be at least 1"))
    seed = take("solver", "seed", int, 0)
    if isinstance(seed, int) and seed < 0:
        errors.append((lines_of.get(("solver", "seed"), 0), "seed must be nonnegative"))

    check_mode = take("io", "check_mode", str, "elliptic")
    if check_mode not in ("elliptic", "parabolic"):
        errors.append(
            (lines_of.get(("io", "check_mode"), 0), f"check_mode must be elliptic or parabolic, got {check_mode!r}")
        )

    if errors:
        errors.sort()
        msg = "config invalid:\n" + "\n".join(f"line {n}: {m}" for n, m in errors)
        exc = InvalidInputError(msg)
        exc.errors = errors
        raise exc

    return RunConfig(
        problem=problem,
        spec=spec,
        solve_options=opts,
        tau_time=tau_time,
        n_steps=n_steps,
        seed=seed,
        input_path=values.get(("io", "input")),
        z_input_path=values.get(("io", "z_input")),
        rhs_input_path=values.get(("io", "rhs_input")),
        check_mode=check_mode,
        raw_text=text,
    )


def write_field(path, values, spacing) -> None:
    """Write an array (any rank) with per-axis spacings, bit-exactly."""
    values = np.asarray(values, dtype=float)
    spacing = tuple(float(h) for h in spacing)
    if values.ndim != len(spacing):
        raise InvalidInputError(
            f"need one spacing per axis: array rank {values.ndim}, got {len(spacing)}"
        )
    if values.ndim > 255:
        raise InvalidInputError("field rank exceeds container limit")
    head = [_MAGIC, struct.pack("<I", _VERSION), struct.pack("<B", values.ndim)]
    head.append(struct.pack(f"<{values.ndim}Q", *values.shape))
    head.append(struct.pack(f"<{values.ndim}d", *spacing))
    Path(path).write_bytes(b"".join(head) + values.astype("<f8").tobytes(order="C"))


def read_field(path):
    """Read a field file; returns (values, spacing tuple)."""
    blob = Path(path).read_bytes()
    if len(blob) < 9:
        raise InvalidInputError(f"{path}: truncated header")
    if blob[:4] != _MAGIC:
        raise InvalidInputError(f"{path}: bad magic {blob[:4]!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != _VERSION:
        raise InvalidInputError(f"{path}: unsupported version {version}")
    ndim = blob[8]
    if ndim < 1:
        raise InvalidInputError(f"{path}: field rank must be at least 1")
    off = 9
    need = ndim * 8 * 2
    if len(blob) < off + need:
        raise InvalidInputError(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{ndim}Q", blob, off)
    off += ndim * 8
    spacing = struct.unpack_from(f"<{ndim}d", blob, off)
    off += ndim * 8
    total = 1
    for d in dims:
        if d == 0 or d > _MAX_TOTAL_CELLS:
            raise InvalidInputError(f"{path}: dimension overflow in {dims}")
        total *= d
        if total > _MAX_TOTAL_CELLS:
            raise InvalidInputError(f"{path}: dimension overflow in {dims}")
    if len(blob) != off + 8 * total:
        raise InvalidInputError(
            f"{path}: payload has {len(blob) - off} bytes, expected {8 * total}"
        )
    values = np.frombuffer(blob, dtype="<f8", count=total, offset=off).reshape(dims)
    return values.copy(), spacing


def _jsonify(obj):
    """Recursively convert to JSON-safe types; non-finite floats to None."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(dataclasses.asdict(obj))
    return obj


def report_payload(report, certificate=None, config_echo=None, seed=None,
                   include_timing: bool = False) -> dict:
    """Assemble the serializable report structure."""
    body = {}
    if dataclasses.is_dataclass(report) and not isinstance(report, type):
        body = _jsonify(dataclasses.asdict(report))
        body.pop("certificate", None)
        if not include_timing:
            body.pop("wall_time_s", None)
        if certificate is None and report.certificate is not None:
            certificate = report.certificate
    elif isinstance(report, dict):
        body = _jsonify(report)
    return {
        "report": body,
        "certificate": _jsonify(dataclasses.asdict(certificate)) if certificate else None,
        "config": config_echo,
        "seed": seed,
    }


def report_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def emit_report(report, certificate, path, config_echo=None, seed=None,
                include_timing: bool = False) -> bytes:
    """Write the canonical JSON report; returns the exact bytes written.

    Identical runs produce identical bytes: keys are sorted, layout is
    fixed, and timing is excluded unless ``include_timing`` is set.
    """
    blob = report_bytes(
        report_payload(report, certificate, config_echo, seed, include_timing)
    )
    Path(path).write_bytes(blob)
    return blob
