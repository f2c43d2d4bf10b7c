"""Command-line front end.

Subcommands: solve-elliptic, resolvent, evolve, check, oracle, selftest.
Each takes --config (required) plus optional --out, --seed, --max-iter,
and --gap-tol overrides.  Failures exit nonzero after printing a
machine-readable JSON error object to stderr.  The environment variable
ANISOFLOW_THREADS (0 = automatic) caps the BLAS thread pools, best
effort, and is recorded in every report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .certificates import check_weak_solution
from .errors import (
    InvalidInputError,
    InvalidStateError,
    NonConvergenceError,
    NumericalFailureError,
)
from .flow import evolve
from .io import (
    emit_report,
    parse_config,
    read_field,
    report_bytes,
    report_payload,
    write_field,
)
from .oracle import oracle_minimize
from .selftest import format_lines, run_selftest
from .solver import solve_elliptic, solve_resolvent

_THREADS_VAR = "ANISOFLOW_THREADS"


def _thread_cap() -> int:
    raw = os.environ.get(_THREADS_VAR, "0")
    try:
        n = int(raw)
    except ValueError:
        raise InvalidInputError(f"{_THREADS_VAR} must be a nonnegative integer, got {raw!r}")
    if n < 0:
        raise InvalidInputError(f"{_THREADS_VAR} must be a nonnegative integer, got {raw!r}")
    if n > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(n))
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisoflow",
        description="Certified solver for anisotropic linear-growth/power-growth problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve-elliptic", "resolvent", "evolve", "check", "oracle", "selftest"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the key=value config file")
        p.add_argument("--out", default="./out", help="output directory (default ./out)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--max-iter", type=int, default=None, help="override max_iter")
        p.add_argument("--gap-tol", type=float, default=None, help="override gap_tol")
    return parser


def _load_config(args):
    text = Path(args.config).read_text(encoding="utf-8")
    config = parse_config(text)
    opts = config.solve_options
    seed = config.seed
    if args.seed is not None:
        if args.seed < 0:
            raise InvalidInputError("--seed must be nonnegative")
        seed = args.seed
    if args.max_iter is not None:
        opts = dataclasses.replace(opts, max_iter=args.max_iter)
    if args.gap_tol is not None:
        opts = dataclasses.replace(opts, gap_tol=args.gap_tol)
    return config, opts, seed


def _load_scalar(path, spec, name):
    if path is None:
        return np.zeros(spec.dims)
    values, spacing = read_field(path)
    if values.shape != spec.dims:
        raise InvalidInputError(
            f"{name} field {path} has shape {values.shape}, grid expects {spec.dims}"
        )
    if len(spacing) == len(spec.spacing) and not np.allclose(
        spacing, spec.spacing, rtol=1e-12, atol=0.0
    ):
        raise InvalidInputError(
            f"{name} field {path} spacing {spacing} does not match grid {spec.spacing}"
        )
    return values


def _need_spec(config):
    if config.spec is None:
        raise InvalidInputError("this command needs a [grid] section in the config")
    return config.spec


def _echo(config, seed, threads):
    return {"config_text": config.raw_text, "seed": seed, "threads": threads}


def _write_solution(out, spec, result):
    write_field(out / "u.anzf", result.u, spec.spacing)
    write_field(out / "z.anzf", result.z, (1.0,) + spec.spacing)
    if result.v0 is not None:
        write_field(out / "v0.anzf", result.v0, (1.0,))


def _cmd_solve(args, kind):
    config, opts, seed = _load_config(args)
    threads = _thread_cap()
    spec = _need_spec(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = _load_scalar(config.input_path, spec, "input")
    if kind == "elliptic":
        result = solve_elliptic(data, spec, opts)
    else:
        result = solve_resolvent(data, config.tau_time, spec, opts)
    _write_solution(out, spec, result)
    emit_report(
        result.report,
        result.report.certificate,
        out / "report.json",
        config_echo=_echo(config, seed, threads),
        seed=seed,
    )
    print(
        f"{kind}: converged in {result.report.iterations} iterations, "
        f"gap {result.report.final_gap:.6e}"
    )
    return 0


def _cmd_evolve(args):
    config, opts, seed = _load_config(args)
    threads = _thread_cap()
    spec = _need_spec(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    u0 = _load_scalar(config.input_path, spec, "input")
    traj = evolve(u0, spec, config.tau_time, config.n_steps, opts)
    write_field(out / "u.anzf", traj.last, spec.spacing)
    body = {
        "problem": "evolve",
        "n_steps": config.n_steps,
        "tau_time": config.tau_time,
        "times": traj.times,
        "step_gaps": traj.step_gaps,
        "energy_totals": [e.total for e in traj.energies],
    }
    emit_report(
        body,
        traj.certificates[-1],
        out / "report.json",
        config_echo=_echo(config, seed, threads),
        seed=seed,
    )
    print(
        f"evolve: {config.n_steps} steps, final energy {traj.energies[-1].total:.6e}, "
        f"largest step gap {max(traj.step_gaps):.6e}"
    )
    return 0


def _cmd_check(args):
    config, opts, seed = _load_config(args)
    threads = _thread_cap()
    spec = _need_spec(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if config.input_path is None or config.z_input_path is None:
        raise InvalidInputError("check needs [io] input (u) and z_input (z) paths")
    u = _load_scalar(config.input_path, spec, "input")
    z_values, _sp = read_field(config.z_input_path)
    if z_values.shape != (spec.ndim,) + spec.dims:
        raise InvalidInputError(
            f"z field has shape {z_values.shape}, expected {(spec.ndim,) + spec.dims}"
        )
    rhs = _load_scalar(config.rhs_input_path, spec, "rhs")
    cert = check_weak_solution(u, z_values, rhs, spec, mode=config.check_mode)
    emit_report(
        None,
        cert,
        out / "certificate.json",
        config_echo=_echo(config, seed, threads),
        seed=seed,
    )
    print(
        f"check: divergence residual {cert.divergence_residual:.6e}, "
        f"sup_norm_z1 {cert.sup_norm_z1:.6e}"
    )
    return 0


def _cmd_oracle(args):
    config, opts, seed = _load_config(args)
    threads = _thread_cap()
    spec = _need_spec(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kind = config.problem if config.problem in ("elliptic", "resolvent") else "elliptic"
    data = _load_scalar(config.input_path, spec, "input")
    u_ref, value_ref = oracle_minimize(kind, data, spec, tau_time=config.tau_time)
    write_field(out / "u_ref.anzf", u_ref, spec.spacing)
    body = {"problem": f"oracle-{kind}", "value_ref": value_ref}
    emit_report(
        body, None, out / "report.json", config_echo=_echo(config, seed, threads), seed=seed
    )
    print(f"oracle ({kind}): value {value_ref:.12e}")
    return 0


def _cmd_selftest(args):
    config, _opts, seed = _load_config(args)
    threads = _thread_cap()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = run_selftest(seed)
    for line in format_lines(results):
        print(line)
    payload = report_payload(
        {"problem": "selftest", "results": [dataclasses.asdict(r) for r in results]},
        None,
        config_echo=_echo(config, seed, threads),
        seed=seed,
    )
    (out / "selftest.json").write_bytes(report_bytes(payload))
    return 0 if all(r.passed for r in results) else 4


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve-elliptic":
            return _cmd_solve(args, "elliptic")
        if args.command == "resolvent":
            return _cmd_solve(args, "resolvent")
        if args.command == "evolve":
            return _cmd_evolve(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        return _cmd_selftest(args)
    except InvalidInputError as e:
        _fail("invalid_input", e)
        return 2
    except NonConvergenceError as e:
        _fail("non_convergence", e)
        return 3
    except (NumericalFailureError, InvalidStateError) as e:
        _fail("numerical_failure", e)
        return 3
    except OSError as e:
        _fail("io_error", e)
        return 1


def _fail(kind: str, exc: Exception) -> None:
    obj = {"error": {"type": kind, "message": str(exc)}}
    print(json.dumps(obj, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
