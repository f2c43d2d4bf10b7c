"""Implicit Euler time stepping and order-preservation probes.

Each step solves the strongly convex resolvent problem with the
previous state as data, so the whole trajectory inherits per-step gap
certificates.  The step obeys the dissipation inequality

    F(u_next) + ||u_next - u_prev||^2 / (2 tau) <= F(u_prev) + step_gap

exactly, because u_prev is feasible for the step objective.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .certificates import Certificate
from .energy import EnergyBreakdown, eval_F
from .errors import InvalidInputError, NonConvergenceError
from .grid import GridSpec, check_scalar_field, div_blocks, inner, lp_norm
from .solver import SolveOptions, solve_resolvent


@dataclass
class Trajectory:
    """States and certificates of an implicit Euler run.

    ``times``/``states``/``energies`` hold the stored snapshots (every
    ``stride``-th state, always including the initial and final ones).
    ``step_gaps`` and ``certificates`` cover every step taken, stored or
    not.
    """

    times: list[float] = field(default_factory=list)
    states: list[np.ndarray] = field(default_factory=list)
    energies: list[EnergyBreakdown] = field(default_factory=list)
    step_gaps: list[float] = field(default_factory=list)
    certificates: list[Certificate] = field(default_factory=list)

    @property
    def last(self) -> np.ndarray:
        return self.states[-1]


def evolve(
    u0,
    spec: GridSpec,
    tau_time: float,
    n_steps: int,
    opts: SolveOptions | None = None,
    stride: int = 1,
    warm_start: bool = False,
) -> Trajectory:
    """Run ``n_steps`` implicit Euler steps of size ``tau_time`` from u0.

    Every step starts its iteration from the current state, so a run of
    n steps makes exactly the same resolvent calls as n chained runs of
    one step.  ``warm_start=True`` additionally reuses each step's dual
    variables to seed the next step (still deterministic, but the calls
    then differ from single-step runs).  Solver failure is re-raised
    with the failing step index and the trajectory of the steps certified
    before it attached; that trajectory stores the last certified state
    as its final one, as a run of that many steps would.
    """
    for name, value in (("n_steps", n_steps), ("stride", stride)):
        if not (isinstance(value, numbers.Integral) and value >= 1):
            raise InvalidInputError(f"{name} must be an integer of at least 1, got {value!r}")
    opts = opts or SolveOptions()
    state = check_scalar_field(u0, spec).copy()
    traj = Trajectory()

    def store(t):
        traj.times.append(t)
        traj.states.append(state.copy())
        traj.energies.append(eval_F(state, spec, opts.tv_norm))

    store(0.0)
    y_seed = v0_seed = None
    for k in range(1, n_steps + 1):
        try:
            res = solve_resolvent(
                state,
                tau_time,
                spec,
                opts,
                u_init=state,
                y_init=y_seed,
                v0_init=v0_seed,
            )
        except NonConvergenceError as e:
            if (k - 1) % stride:
                store((k - 1) * tau_time)
            raise NonConvergenceError(
                f"evolution stalled at step {k}: {e}", report=e.report, step=k, trajectory=traj
            ) from e
        state = res.u
        if warm_start:
            y_seed, v0_seed = res.z, res.v0
        traj.step_gaps.append(res.report.final_gap)
        traj.certificates.append(res.report.certificate)
        if k % stride == 0 or k == n_steps:
            store(k * tau_time)
    return traj


def comparison_test(
    u10,
    u20,
    spec: GridSpec,
    tau_time: float,
    n_steps: int,
    r: float,
    opts: SolveOptions | None = None,
) -> float:
    """Largest growth of ||(u1 - u2)^+||_r along two parallel evolutions.

    Returns max over steps of (||(u1_n - u2_n)^+||_r - initial)^+ in the
    volume-weighted norm of order ``r`` (inf allowed).  Order
    preservation of the exact flow makes this zero; inexact steps leave
    a slack tied to the per-step gaps.
    """
    if not (r >= 1):
        raise InvalidInputError("norm order r must be at least 1")
    u1 = check_scalar_field(u10, spec, name="u10")
    u2 = check_scalar_field(u20, spec, name="u20")
    t1 = evolve(u1, spec, tau_time, n_steps, opts)
    t2 = evolve(u2, spec, tau_time, n_steps, opts)
    return _positive_part_growth(t1, t2, r, spec)


def _positive_part_growth(t1: Trajectory, t2: Trajectory, r: float, spec: GridSpec) -> float:
    """max over stored states of (||(u1_n - u2_n)^+||_r - ||(u1_0 - u2_0)^+||_r)^+."""
    base = lp_norm(np.maximum(t1.states[0] - t2.states[0], 0.0), r, spec)
    worst = 0.0
    for a, b in zip(t1.states[1:], t2.states[1:]):
        worst = max(worst, lp_norm(np.maximum(a - b, 0.0), r, spec) - base)
    return worst


def operator_pair(result, spec: GridSpec):
    """(u, v) with v = -div z from a solve result, the graph pair the
    accretivity probe expects."""
    return result.u, -div_blocks(result.z, spec, result.v0)


def accretivity_probe(u1, v1, u2, v2, a: float, b: float, spec: GridSpec) -> float:
    """Integral of T(u1 - u2) * (v1 - v2) for the shifted clamp T.

    T(s) = clamp(s, a, b) - clamp(0, a, b) with a < b and 0 outside
    [a, b], so T is monotone, 1-Lipschitz, and vanishes at 0.  For exact
    graph pairs of the flow operator the integral is nonnegative;
    solver-generated pairs may dip below by a gap-controlled slack.
    """
    if not a < b:
        raise InvalidInputError("truncation interval needs a < b")
    if a <= 0.0 <= b:
        raise InvalidInputError("truncation interval must exclude 0 (a > 0 or b < 0)")
    u1 = check_scalar_field(u1, spec, name="u1")
    u2 = check_scalar_field(u2, spec, name="u2")
    v1 = check_scalar_field(v1, spec, name="v1")
    v2 = check_scalar_field(v2, spec, name="v2")
    du = u1 - u2
    t = np.clip(du, a, b) - np.clip(0.0, a, b)
    return inner(t, v1 - v2, spec)
