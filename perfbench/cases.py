"""Seeded problem sets for the three workloads, and how one pass runs them.

A workload is a fixed list of cases built from ``--seed``.  The package
only ever sees the generated arrays and grid specs; the seed itself
never reaches it (``SolveOptions.seed`` stays at its default).  Cases
are timed one at a time in a closed loop: each solve starts when the
previous one has returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from tracer import EVOLVE

WORKLOADS = ("elliptic-power", "denoise", "flow")

# Order-preservation pairs per flow pass and steps per trajectory, and
# the amplitude of the pairs' initial data.  Iteration counts per step are
# chaotic in the data; at equal work, the total of two-step pairs at
# amplitude 2 varies about five times less between seeds than that of
# criterion 5's ten-step pairs at amplitude 0.5.  A pass of 24 pairs takes
# about 5 s, so a run's median is taken over several passes: the host's
# speed changes every few tens of seconds, and a run of a single long
# pass reads whatever speed that one stretch had.
FLOW_PAIRS = 24
FLOW_STEPS = 2
FLOW_AMPLITUDE = 2.0

# Noisy half-indicator images per denoise pass, and their noise level.  At
# 0.5 an image certifies in about 1000 iterations, varying by about 9%
# between seeds; at 0.1 it takes 8k-16k and varies by 18%.  Eight images
# take about 17 s, so a run has two passes.
DENOISE_IMAGES = 8
DENOISE_NOISE = 0.5

# 8x8x8 resolvents per exponent in an elliptic-power pass.  Their
# iteration counts move by about 10% between seeds, where 8x8 resolvents
# at p = 2.5 and 3 move by up to a factor 3 and would swamp the pass time.
POWER_CUBES = 3


@dataclass
class Case:
    """One solve (elliptic / resolvent) or one order-preservation pair (flow)."""

    name: str
    kind: str
    spec: object
    data: tuple
    tau_time: float | None = None
    gap_tol: float = 1e-8


@dataclass
class Outcome:
    """What one case produced in one pass, for timing and for the checks."""

    case: Case
    wall: float = 0.0  # seconds inside the package's public calls
    seconds: list[float] = field(default_factory=list)  # one per solve / step
    results: list = field(default_factory=list)  # (data g or f, SolveResult)
    reports: list = field(default_factory=list)  # every SolveReport, failed ones too
    trajectories: list = field(default_factory=list)
    error: str | None = None


def _half_indicator(dims) -> np.ndarray:
    g = np.zeros(dims)
    g[: dims[0] // 2] = 1.0
    return g


def build(workload: str, seed: int, af) -> list[Case]:
    """The workload's cases for ``seed``; equal seeds give equal inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    GridSpec = af.GridSpec

    def noise(dims, amp):
        return amp * rng.standard_normal(dims)

    if workload == "elliptic-power":
        cases = []
        for n in (16, 32):
            spec = GridSpec((n, n), (1.0, 1.0), (1, 1), (1.0, 2.0))
            cases.append(Case(f"elliptic-{n}x{n}", "elliptic", spec, (1.0 + noise(spec.dims, 0.1),)))
        # Any perturbation of f moves this case's count by 10-25%, so its
        # source is fixed, and so are the p != 2 elliptic sources below; the
        # seed varies the resolvent data.  Spacing 0.5 keeps the p = 1.5
        # solve at 2700 iterations (15650 at unit spacing).
        spec = GridSpec((8, 8), (2.0, 0.5), (1, 1), (1.0, 2.0))
        cases.append(Case("elliptic-8x8-h2x0.5", "elliptic", spec, (np.ones(spec.dims),)))
        for p in (1.5, 2.5, 3.0):
            spec = GridSpec((8, 8), (0.5, 0.5), (1, 1), (1.0, p))
            cases.append(Case(f"elliptic-8x8-p{p:g}", "elliptic", spec, (np.ones(spec.dims),)))
        for p in (2.5, 3.0):
            spec = GridSpec((8, 8, 8), (1.0, 1.0, 1.0), (1, 2), (1.0, p), "neumann_block1")
            for k in range(POWER_CUBES):
                g = _half_indicator(spec.dims) + noise(spec.dims, 0.1)
                cases.append(Case(f"resolvent-8x8x8-p{p:g}-{k}", "resolvent", spec, (g,), 0.1))
        return cases
    if workload == "denoise":
        spec = GridSpec((256, 256), (1.0, 1.0), (1, 1), (1.0, 2.0), "neumann_block1")
        return [
            Case(f"resolvent-256x256-{k}", "resolvent", spec,
                 (_half_indicator(spec.dims) + noise(spec.dims, DENOISE_NOISE),), tau_time=0.1)
            for k in range(DENOISE_IMAGES)
        ]
    if workload == "flow":
        spec = GridSpec((8, 8), (1.0, 1.0), (1, 1), (1.0, 2.0))
        cases = []
        for k in range(FLOW_PAIRS):
            u1 = noise(spec.dims, FLOW_AMPLITUDE)
            u2 = u1 + np.abs(noise(spec.dims, 0.6 * FLOW_AMPLITUDE))
            cases.append(Case(f"flow-pair{k:03d}", "flow", spec, (u1, u2), 0.1, 1e-10))
        return cases
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(cases: list[Case], af):
    """One 1-iteration solve per distinct GridSpec, filling the package caches."""
    seen = set()
    for case in cases:
        if case.spec in seen:
            continue
        seen.add(case.spec)
        opts = af.SolveOptions(max_iter=1)
        try:
            if case.kind == "elliptic":
                af.solve_elliptic(case.data[0], case.spec, opts)
            else:
                af.solve_resolvent(case.data[0], case.tau_time, case.spec, opts)
        except af.NonConvergenceError:
            pass


def time_steps(flow_module) -> list:
    """Record (seconds, data, result) of each implicit-Euler step ``flow`` takes.

    Wraps ``flow.solve_resolvent`` in every run, traced or not, because
    per-step times are an end-to-end metric; it costs two clock reads per
    step of at least a millisecond.
    """
    steps = []
    inner = flow_module.solve_resolvent
    clock = time.perf_counter

    def timed(g, *args, **kwargs):
        t0 = clock()
        res = inner(g, *args, **kwargs)
        steps.append((clock() - t0, g, res))
        return res

    flow_module.solve_resolvent = timed
    return steps


def run_case(case: Case, af, steps: list, tracer=None) -> Outcome:
    out = Outcome(case)
    failures = (af.NonConvergenceError, af.NumericalFailureError)
    opts = af.SolveOptions(gap_tol=case.gap_tol)
    if case.kind != "flow":
        t0 = time.perf_counter()
        try:
            if case.kind == "elliptic":
                res = af.solve_elliptic(case.data[0], case.spec, opts)
            else:
                res = af.solve_resolvent(case.data[0], case.tau_time, case.spec, opts)
        except failures as e:
            out.error = f"{type(e).__name__}: {e}"
            res = e
        out.wall = time.perf_counter() - t0
        out.seconds.append(out.wall)
        out.reports.append(getattr(res, "report", None))
        if out.error is None:
            out.results.append((case.data[0], res))
        return out

    for u0 in case.data:
        del steps[:]
        if tracer is not None:
            tracer.open(EVOLVE)
        t0 = time.perf_counter()
        try:
            traj = af.evolve(u0, case.spec, case.tau_time, FLOW_STEPS, opts)
        except failures as e:
            out.error = f"{type(e).__name__}: {e}"
            out.reports.append(getattr(e, "report", None))
            traj = None
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.close()
        out.wall += wall
        out.seconds.extend(s for s, _g, _r in steps)
        out.results.extend((g, r) for _s, g, r in steps)
        out.reports.extend(r.report for _s, _g, r in steps)
        if traj is None:
            # the failing step raised before its time was recorded
            out.seconds.append(wall - sum(s for s, _g, _r in steps))
            return out
        out.trajectories.append((u0, traj))
    return out
