"""Built-in acceptance suite: twelve numbered criteria, one result each.

Every criterion is deterministic for a fixed base seed; the final
criterion reruns the first eleven and compares the serialized results
byte for byte.  ``run_selftest`` returns the full result list and
``format_lines`` renders the one-line-per-criterion summary the CLI
prints.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import io as aio
from .certificates import gauss_green_residual, pairing_measure, weak_normal_trace
from .energy import coarea_check, eval_F, poincare_check
from .flow import _positive_part_growth, accretivity_probe, evolve
from .grid import (
    GridSpec,
    div_blocks,
    grad_block,
    gradient,
    inner,
    lp_norm,
)
from .oracle import oracle_minimize
from .prox import prox_power_conj
from .solver import SolveOptions, solve_elliptic, solve_resolvent


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def _rng(seed: int, criterion: int) -> np.random.Generator:
    return np.random.default_rng([seed, criterion])


# -- criterion 1: integration by parts is exact by construction ------------

_GG_SPECS = [
    ((8, 8, 4), (1.0, 0.5, 0.25), (1, 1, 1), (1.0, 2.0, 4.0)),
    ((8, 8, 4), (0.3, 1.0, 0.7), (2, 1), (1.0, 2.0)),
    ((8, 8, 4), (1.0, 1.0, 1.0), (2, 1), (1.0, 3.0)),
    ((8, 8, 4), (0.5, 0.5, 0.5), (1, 2), (1.0, 2.0)),
    ((6, 5), (1.0, 0.5), (1, 1), (1.0, 3.0)),
    ((4, 3, 2), (2.0, 1.0, 0.5), (1, 1, 1), (1.0, 2.0, 2.0)),
]


def _criterion_1(seed: int, ctx: dict) -> CriterionResult:
    rng = _rng(seed, 1)
    worst = 0.0
    for trial in range(200):
        dims, spacing, blocks, expo = _GG_SPECS[trial % len(_GG_SPECS)]
        mode = ("dirichlet_penalized", "neumann_block1")[trial % 2]
        spec = GridSpec(dims, spacing, blocks, expo, mode)
        u = rng.standard_normal(spec.dims)
        z = rng.standard_normal((spec.ndim,) + spec.dims)
        lhs1 = inner(u, div_blocks(z, spec), spec)
        lhs2 = float(np.vdot(z, gradient(u, spec))) * spec.cell_volume
        res = gauss_green_residual(u, z, spec)
        scale = 1.0 + abs(lhs1) + abs(lhs2)
        worst = max(worst, res / scale)
    return CriterionResult(
        1,
        "integration by parts exact",
        worst <= 1e-11,
        {"worst_relative_residual": worst, "trials": 200},
    )


# -- criteria 2-4: certified solves, oracle agreement, certificates --------

def _spec16() -> GridSpec:
    return GridSpec((16, 16), (1.0, 1.0), (1, 1), (1.0, 2.0))


def _spec8(p2: float) -> GridSpec:
    return GridSpec((8, 8), (1.0, 1.0), (1, 1), (1.0, p2))


def _half_indicator(dims) -> np.ndarray:
    g = np.zeros(dims)
    g[: dims[0] // 2] = 1.0
    return g


def _solves(ctx: dict) -> list:
    """The six certified solves shared by criteria 2, 3, and 4."""
    if "solves" in ctx:
        return ctx["solves"]
    opts = SolveOptions()
    entries = []
    spec = _spec16()
    entries.append(
        ("elliptic-16x16-p2", solve_elliptic(np.ones(spec.dims), spec, opts), None)
    )
    entries.append(
        (
            "resolvent-16x16-p2",
            solve_resolvent(_half_indicator(spec.dims), 0.1, spec, opts),
            None,
        )
    )
    for p2 in (2.0, 3.0):
        s8 = _spec8(p2)
        entries.append(
            (f"elliptic-8x8-p{p2:g}", solve_elliptic(np.ones(s8.dims), s8, opts), ("elliptic", np.ones(s8.dims), s8, 1.0))
        )
        entries.append(
            (
                f"resolvent-8x8-p{p2:g}",
                solve_resolvent(_half_indicator(s8.dims), 0.1, s8, opts),
                ("resolvent", _half_indicator(s8.dims), s8, 0.1),
            )
        )
    ctx["solves"] = entries
    return entries


def _criterion_2(seed: int, ctx: dict) -> CriterionResult:
    details = {}
    ok = True
    for name, res, _oracle in _solves(ctx)[:2]:
        rel = res.report.final_gap / (1.0 + abs(res.report.primal_value))
        details[name] = {
            "iterations": res.report.iterations,
            "relative_gap": rel,
            "primal_value": res.report.primal_value,
        }
        ok &= res.report.converged and rel <= 1e-8 and res.report.iterations <= 50000
    return CriterionResult(2, "certified gap closure", bool(ok), details)


def _criterion_3(seed: int, ctx: dict) -> CriterionResult:
    details = {}
    ok = True
    for name, res, oracle_args in _solves(ctx):
        if oracle_args is None:
            continue
        kind, data, spec, tau_time = oracle_args
        _u_ref, value_ref = oracle_minimize(kind, data, spec, tau_time=tau_time)
        rel = abs(res.report.primal_value - value_ref) / (1.0 + abs(value_ref))
        details[name] = {
            "solver_value": res.report.primal_value,
            "oracle_value": value_ref,
            "relative_difference": rel,
        }
        ok &= rel <= 1e-4
    return CriterionResult(3, "reference minimizer agreement", bool(ok), details)


def _criterion_4(seed: int, ctx: dict) -> CriterionResult:
    details = {}
    ok = True
    for name, res, _ in _solves(ctx):
        cert = res.report.certificate
        scale = 1.0 + abs(res.report.primal_value)
        decomposition = (
            cert.pairing_gap + sum(cert.young_terms) + cert.boundary_sign_total
        )
        feas = cert.sup_norm_z1 <= 1.0 + 1e-9
        parts_ok = (
            cert.pairing_gap >= -1e-9 * scale
            and all(t >= -1e-9 * scale for t in cert.young_terms)
            and cert.boundary_sign_total >= -1e-9 * scale
        )
        bounded = decomposition <= cert.gap + 1e-9 * scale
        details[name] = {
            "sup_norm_z1": cert.sup_norm_z1,
            "decomposition": decomposition,
            "gap": cert.gap,
        }
        ok &= feas and parts_ok and bounded
    return CriterionResult(4, "weak-solution certificates", bool(ok), details)


# -- criterion 5: order preservation along the flow ------------------------

def _criterion_5(seed: int, ctx: dict) -> CriterionResult:
    rng = _rng(seed, 5)
    spec = _spec8(2.0)
    opts = SolveOptions(gap_tol=1e-10)
    worst = {1: 0.0, 2: 0.0, "inf": 0.0}
    for _pair in range(20):
        u1 = 0.5 * rng.standard_normal(spec.dims)
        u2 = u1 + np.abs(0.3 * rng.standard_normal(spec.dims))
        t1 = evolve(u1, spec, 0.1, 10, opts)
        t2 = evolve(u2, spec, 0.1, 10, opts)
        for key, r in ((1, 1.0), (2, 2.0), ("inf", np.inf)):
            scale = 1.0 + lp_norm(u1, r, spec) + lp_norm(u2, r, spec)
            v = _positive_part_growth(t1, t2, r, spec) / scale
            worst[key] = max(worst[key], v)
    ok = all(v <= 1e-6 for v in worst.values())
    return CriterionResult(
        5,
        "order preservation",
        bool(ok),
        {f"worst_relative_violation_r{k}": v for k, v in worst.items()},
    )


def _criterion_6(seed: int, ctx: dict) -> CriterionResult:
    rng = _rng(seed, 6)
    spec = _spec8(2.0)
    u0 = rng.standard_normal(spec.dims)
    tau = 0.1
    traj = evolve(u0, spec, tau, 10, SolveOptions())
    worst = -np.inf
    for n in range(10):
        fa = traj.energies[n].total
        fb = traj.energies[n + 1].total
        du = traj.states[n + 1] - traj.states[n]
        quad = 0.5 / tau * inner(du, du, spec)
        slack = fb + quad - fa - traj.step_gaps[n]
        worst = max(worst, slack / (1.0 + abs(fa)))
    return CriterionResult(
        6,
        "energy dissipation",
        worst <= 1e-12,
        {"worst_relative_excess": float(worst), "steps": 10},
    )


def _criterion_7(seed: int, ctx: dict) -> CriterionResult:
    rng = _rng(seed, 7)
    cases = [
        (GridSpec((8, 8), (1.0, 1.0), (1, 1), (1.0, 2.0)), "euclidean"),
        (GridSpec((5, 4, 4), (1.0, 0.5, 1.0), (2, 1), (1.0, 2.0)), "l1"),
        (GridSpec((5, 4, 4), (0.5, 1.0, 1.0), (1, 2), (1.0, 3.0)), "euclidean"),
    ]
    worst = 0.0
    for trial in range(50):
        spec, norm = cases[trial % len(cases)]
        u = rng.integers(-3, 4, size=spec.dims).astype(float)
        chk = coarea_check(u, spec, norm)
        worst = max(worst, chk.gap / (1.0 + abs(chk.lhs)))
    return CriterionResult(
        7,
        "level-set decomposition",
        worst <= 1e-10,
        {"worst_relative_gap": worst, "trials": 50},
    )


def _criterion_8(seed: int, ctx: dict) -> CriterionResult:
    rng = _rng(seed, 8)
    spec = GridSpec((6, 5, 4), (1.0, 0.5, 0.75), (2, 1), (1.0, 2.0))
    u = rng.standard_normal(spec.dims)
    z = 2.0 * rng.standard_normal((spec.ndim,) + spec.dims)
    g1 = grad_block(u, spec, 1)
    g1_mass = np.sqrt(np.sum(g1 * g1, axis=0)) * spec.cell_volume
    sup_z1 = float(np.sqrt(np.max(np.sum(z[:2] * z[:2], axis=0))))
    trace = weak_normal_trace(z, spec)
    trace_ok = float(np.max(np.abs(trace))) <= sup_z1 + 1e-12
    pm = pairing_measure(z, u, spec)
    worst = 0.0
    for _trial in range(100):
        mask = rng.random(spec.dims) < 0.5
        bound = sup_z1 * float(np.sum(g1_mass[mask]))
        excess = abs(float(np.sum(pm[mask]))) - bound
        worst = max(worst, excess / (1.0 + bound))
    return CriterionResult(
        8,
        "trace and pairing bounds",
        bool(trace_ok and worst <= 1e-12),
        {"trace_bound_ok": bool(trace_ok), "worst_relative_excess": worst},
    )


def _criterion_9(seed: int, ctx: dict) -> CriterionResult:
    rng = _rng(seed, 9)
    specs = [
        _spec8(2.0),
        _spec8(3.0),
        GridSpec((6, 4, 4), (0.5, 1.0, 0.25), (2, 1), (1.0, 2.5)),
        GridSpec((4, 5, 6), (1.0, 0.5, 0.5), (1, 2), (1.0, 4.0)),
    ]
    worst = -np.inf
    for trial in range(100):
        spec = specs[trial % len(specs)]
        u = rng.standard_normal(spec.dims)
        lhs, rhs = poincare_check(u, spec)
        worst = max(worst, (lhs - rhs) / (1.0 + rhs))
    return CriterionResult(
        9,
        "zero-trace norm bound",
        worst <= 1e-12,
        {"worst_relative_excess": float(worst), "trials": 100},
    )


def _criterion_10(seed: int, ctx: dict) -> CriterionResult:
    rng = _rng(seed, 10)
    spec = _spec8(2.0)
    opts = SolveOptions(gap_tol=1e-12)
    pairs = []
    for _i in range(3):
        g = rng.standard_normal(spec.dims)
        res = solve_resolvent(g, 0.1, spec, opts)
        v = -div_blocks(res.z, spec, res.v0)
        pairs.append((res.u, v))
    clamps = []
    for j in range(10):
        a = 0.05 + 0.45 * rng.random()
        b = a + 0.1 + 0.8 * rng.random()
        clamps.append((a, b) if j % 2 == 0 else (-b, -a))
    worst = np.inf
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            u1, v1 = pairs[i]
            u2, v2 = pairs[j]
            scale = 1.0 + lp_norm(u1 - u2, 2.0, spec) * lp_norm(v1 - v2, 2.0, spec)
            for a, b in clamps:
                val = accretivity_probe(u1, v1, u2, v2, a, b, spec)
                worst = min(worst, val / scale)
    return CriterionResult(
        10,
        "operator monotonicity probe",
        worst >= -1e-8,
        {"worst_relative_integral": float(worst), "clamps": 10},
    )


def _criterion_11(seed: int, ctx: dict) -> CriterionResult:
    rng = _rng(seed, 11)
    worst_firm = np.inf
    worst_res = 0.0
    for q in (1.5, 2.0, 3.0, 4.0):
        for sigma in (0.1, 1.0, 10.0):
            a = 10.0 * rng.standard_normal(2500)
            b = 10.0 * rng.standard_normal(2500)
            ta = prox_power_conj(a, sigma, q)
            tb = prox_power_conj(b, sigma, q)
            d = ta - tb
            s = a - b
            scale = 1.0 + np.abs(s) ** 2
            worst_firm = min(worst_firm, float(np.min((d * s - d * d) / scale)))
            for v, x in ((a, ta), (b, tb)):
                r = np.abs(x + sigma * np.sign(x) * np.abs(x) ** (q - 1.0) - v)
                worst_res = max(worst_res, float(np.max(r / (1.0 + np.abs(v)))))
    exact = abs(float(prox_power_conj(np.asarray(2.0), 1.0, 3.0)) - 1.0)
    ok = worst_firm >= -1e-10 and worst_res <= 1e-12 and exact <= 1e-12
    return CriterionResult(
        11,
        "prox kernel bounds",
        bool(ok),
        {
            "worst_firmness_margin": worst_firm,
            "worst_newton_residual": worst_res,
            "closed_form_error": exact,
        },
    )


_CRITERIA = [
    _criterion_1,
    _criterion_2,
    _criterion_3,
    _criterion_4,
    _criterion_5,
    _criterion_6,
    _criterion_7,
    _criterion_8,
    _criterion_9,
    _criterion_10,
    _criterion_11,
]


def _run_core(seed: int) -> list[CriterionResult]:
    ctx: dict = {}
    return [fn(seed, ctx) for fn in _CRITERIA]


def _serialize(results: list[CriterionResult]) -> bytes:
    return aio.report_bytes({"results": [asdict(r) for r in results]})


def run_selftest(seed: int = 0) -> list[CriterionResult]:
    """Run all twelve criteria; the last one is the determinism rerun."""
    first = _run_core(seed)
    second = _run_core(seed)
    identical = _serialize(first) == _serialize(second)
    results = list(first)
    results.append(
        CriterionResult(
            12,
            "determinism",
            bool(identical),
            {"identical_bytes": bool(identical), "seed": seed},
        )
    )
    return results


def format_lines(results: list[CriterionResult]) -> list[str]:
    return [
        f"criterion {r.index:02d} {'PASS' if r.passed else 'FAIL'} {r.name}"
        for r in results
    ]
