"""Primal-dual solver with a certified duality gap.

Both problems minimize E(Au) + G(u) where A stacks the boundary trace
(dirichlet_penalized only) and the blockwise gradients, E couples the
total-variation, boundary, and power terms, and G is the source term
(elliptic) or the implicit-Euler coupling (resolvent).  The iteration is
the relaxed primal-dual scheme: dual ascent through the conjugate
proxes, primal descent through the G prox, extrapolation with factor
theta_relax, and step sizes sigma = tau = 1/L, where L is 1.01 times a
power-iteration estimate of ||A|| so that sigma * tau * ||A||^2 < 1.
The power iteration has a fixed length and start, so L depends on the
grid alone and no solve depends on a seed.

Convergence is declared only through the certified gap: the primal
value at the iterate minus a dual value that is a true lower bound of
the problem.  Both dual values are exact.  The resolvent dual has no
constraint.  The elliptic dual needs div z + f = 0, which the iteration
does not keep; at each check a copy of every dual candidate is
restored onto it exactly (the PDHG iterate itself is left alone).  The
restoration corrects only the last axis, which always belongs to a
power block: its ghost-closed divergence is lower bidiagonal, so a
cumulative sum inverts it, and power components carry no dual bound,
so the unit bounds on the block-1 part and on v0 are untouched.

Sign conventions: the conjugate-side multiplier is the negative of the
iterated dual variable, so the returned vector field z is the certified
dual candidate itself (restored, for the elliptic problem), and the
returned boundary field v0 (the weak normal flux on the penalized
faces) is the negative of the candidate's boundary dual.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import certificates as cert
from .energy import EnergyBreakdown, eval_F, eval_J
from .errors import InvalidInputError, InvalidStateError, NonConvergenceError
from .grid import (
    GridSpec,
    _div_impl,
    _grad_impl,
    _power_blocks,
    _restrict_impl,
    _scatter_impl,
    boundary_face_count,
    check_boundary_field,
    check_scalar_field,
    check_vector_field,
)
from .prox import (
    project_ball,
    project_interval,
    prox_power_conj_radial,
    prox_primal_linear,
    prox_primal_quadratic,
)

PROBLEM_KINDS = ("elliptic", "resolvent")
_OPNORM_ITERS = 200  # power-iteration length
_OPNORM_SEED = 0  # seed of its random start


@dataclass(frozen=True)
class SolveOptions:
    """Iteration budget, gap tolerance, and scheme parameters."""

    max_iter: int = 50000
    gap_tol: float = 1e-8
    residual_check_every: int = 50
    theta_relax: float = 1.0
    tv_norm: str = "euclidean"

    def __post_init__(self):
        for name in ("max_iter", "residual_check_every"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise InvalidInputError(f"{name} must be an integer of at least 1, got {value!r}")
        if not (self.gap_tol > 0 and math.isfinite(self.gap_tol)):
            raise InvalidInputError(f"gap_tol must be positive and finite, got {self.gap_tol!r}")
        if not 0.0 <= self.theta_relax <= 1.0:
            raise InvalidInputError("theta_relax must lie in [0, 1]")
        if self.tv_norm not in ("euclidean", "l1"):
            raise InvalidInputError(f"unknown tv_norm {self.tv_norm!r}")


@dataclass
class DualState:
    """Conjugate-side variables (v0*, v1*, ..., vk*).

    ``v_blocks`` stacks one component per axis; ``v0`` lives on the
    penalized boundary faces and is absent (None) under neumann_block1.
    Feasibility: per-cell dual norm of the block-1 part and |v0| both
    at most 1.
    """

    v0: np.ndarray | None
    v_blocks: np.ndarray


@dataclass
class SolveReport:
    """Certified outcome of a solve.

    ``divergence_residual`` is the volume-weighted l2 norm of div z + f
    (elliptic: roundoff, the dual being restored exactly) or of
    u - g - tau_time * div z (resolvent: shrinks with the gap), with div
    including the boundary flux v0.
    """

    problem: str
    iterations: int
    converged: bool
    primal_value: float
    dual_value: float
    final_gap: float
    divergence_residual: float
    dual_feasibility_violation: float
    bracket_conjugate: float
    bracket_source: float
    sigma: float
    tau: float
    theta_relax: float
    wall_time_s: float
    gap_history: list[tuple[int, float, float, float]] = field(default_factory=list)
    energy: EnergyBreakdown | None = None
    certificate: "cert.Certificate | None" = None


class SolveResult(NamedTuple):
    u: np.ndarray
    z: np.ndarray
    v0: np.ndarray | None
    report: SolveReport


@functools.cache
def estimate_opnorm(spec: GridSpec) -> float:
    """Over-estimate of the operator norm of A by power iteration.

    Runs on A*A in the volume/area-weighted spaces and returns 1.01
    times the Rayleigh-quotient estimate as a safety margin, so that the
    unit step product sigma * tau * L^2 stays at most 1.  With a power
    block, as the solver requires, A is injective (the last axis is a
    ghost-closed power axis), so no iterate vanishes.
    """
    x = np.random.default_rng(_OPNORM_SEED).standard_normal(spec.dims)
    for _ in range(_OPNORM_ITERS):
        y = _div_impl(-_grad_impl(x, spec), spec)
        if spec.has_trace_term:
            y += _scatter_impl(_restrict_impl(x, spec), spec)
        nrm = float(np.sqrt(np.vdot(y, y).real * spec.cell_volume))
        lam = float(np.vdot(x, y).real * spec.cell_volume)
        x = y / nrm
    return 1.01 * float(np.sqrt(lam))


class _Problem:
    """Shared state for one solve: operators, conjugates, gap bookkeeping."""

    def __init__(self, kind, data, spec, tau_time, opts):
        if spec.n_blocks < 2:
            raise InvalidInputError(
                "solver needs at least one power block; pure block-1 grids are not solvable"
            )
        self.kind = kind
        self.spec = spec
        self.opts = opts
        self.vol = spec.cell_volume
        self.n1 = spec.blocks[0]
        self.power = _power_blocks(spec)
        self.trace = spec.has_trace_term
        if kind == "elliptic":
            self.f = data
        else:
            if not (tau_time > 0 and math.isfinite(tau_time)):
                raise InvalidInputError(f"tau_time must be positive and finite, got {tau_time}")
            self.g = data
            self.tau_time = float(tau_time)

    def primal(self, u):
        if self.kind == "elliptic":
            bd = eval_J(u, self.f, self.spec, self.opts.tv_norm)
        else:
            base = eval_F(u, self.spec, self.opts.tv_norm)
            quad = 0.5 / self.tau_time * float(np.vdot(u - self.g, u - self.g)) * self.vol
            bd = EnergyBreakdown(
                tv_block1=base.tv_block1,
                power_terms=base.power_terms,
                boundary_term=base.boundary_term,
                source_term=quad,
            )
        return bd

    def conj_power_value(self, y):
        val = 0.0
        for sl, _p, q in self.power:
            mags = np.sqrt(np.sum(y[sl] * y[sl], axis=0))
            val += float(np.sum(mags**q)) * self.vol / q
        return val

    def adjoint_paper(self, y, v0_cp):
        """A* applied to the conjugate-side variable: the full divergence."""
        w = _div_impl(y, self.spec)
        if self.trace:
            w -= _scatter_impl(v0_cp, self.spec)
        return w

    def dual(self, y, v0_cp):
        """Certified lower bound on the primal infimum at (y, v0_cp).

        Returns (value, y).  For the elliptic problem y is a restored
        copy satisfying A*(y, v0_cp) + f = 0 to roundoff.
        """
        w = self.adjoint_paper(y, v0_cp)
        if self.kind == "elliptic":
            y = y.copy()
            y[-1] -= self.spec.spacing[-1] * np.cumsum(w + self.f, axis=-1)
            return -self.conj_power_value(y), y
        gconj = float(np.vdot(w, self.g)) * self.vol
        gconj += 0.5 * self.tau_time * float(np.vdot(w, w)) * self.vol
        return -self.conj_power_value(y) - gconj, y


class _Tracker:
    """The certified pair: the best primal and the best dual point seen.

    Candidate points are the current iterates and the mean of the
    iterates since the previous check: feasibility survives averaging
    (the dual constraint sets are convex), and near degenerate flat
    regions the mean damps the oscillation of the raw iterates.  The
    best primal and the best dual point are chosen independently, so
    the certified gap never increases between checks.  Each check logs
    (iteration, gap, conjugate bracket, source bracket): the brackets
    realize the eps-subdifferentiability of the certified pair, both
    nonnegative up to roundoff and summing exactly to the gap.
    """

    def __init__(self, prob, u, y, v0_cp):
        self.prob = prob
        self.n = 0  # iterates summed since the last check
        self.sum_u = np.zeros_like(u)
        self.sum_y = np.zeros_like(y)
        self.sum_v0 = None if v0_cp is None else np.zeros_like(v0_cp)
        self.primal = None  # (breakdown, u) at the lowest primal value
        self.dual = None  # (value, y, v0_cp) at the highest dual value
        self.history: list[tuple[int, float, float, float]] = []

    def add(self, u, y, v0_cp):
        self.n += 1
        self.sum_u += u
        self.sum_y += y
        if v0_cp is not None:
            self.sum_v0 += v0_cp

    def check(self, it, u, y, v0_cp) -> bool:
        """Offer the iterate and the mean; True once the gap is certified."""
        prob = self.prob
        u_cands = [u]
        d_cands = [(y, v0_cp)]
        if self.n:
            k = float(self.n)
            u_cands.append(self.sum_u / k)
            d_cands.append((self.sum_y / k, None if self.sum_v0 is None else self.sum_v0 / k))
        for u_c in u_cands:
            bd = prob.primal(u_c)
            if self.primal is None or bd.total < self.primal[0].total:
                self.primal = (bd, u_c)
        for y_c, v0_c in d_cands:
            value, y_c = prob.dual(y_c, v0_c)
            if self.dual is None or value > self.dual[0]:
                # the iteration updates y in place
                self.dual = (value, y_c.copy(), v0_c)
        bd, u_w = self.primal
        value, y_w, v0_w = self.dual
        gap = bd.total - value
        flux = None if v0_w is None else -v0_w
        be = cert._gap_terms(u_w, y_w, flux, prob.spec, prob.opts.tv_norm).total
        self.history.append((it, float(gap), float(be), float(gap - be)))
        self.n = 0
        self.sum_u.fill(0.0)
        self.sum_y.fill(0.0)
        if self.sum_v0 is not None:
            self.sum_v0.fill(0.0)
        return gap <= prob.opts.gap_tol * (1.0 + abs(bd.total))


def _solve(kind, data, spec, tau_time, opts, u_init=None, y_init=None, v0_init=None):
    t0 = time.perf_counter()
    data = check_scalar_field(data, spec, name="f" if kind == "elliptic" else "g")
    prob = _Problem(kind, data, spec, tau_time, opts)

    L = estimate_opnorm(spec)
    sigma = tau = 1.0 / L
    theta = opts.theta_relax

    u = np.zeros(spec.dims) if u_init is None else check_scalar_field(u_init, spec).copy()
    y = np.zeros((spec.ndim,) + spec.dims) if y_init is None else check_vector_field(y_init, spec).copy()
    if prob.trace:
        if v0_init is None:
            v0_cp = np.zeros(boundary_face_count(spec))
        else:
            v0_cp = check_boundary_field(v0_init, spec, name="v0_init").copy()
    else:
        v0_cp = None
    ubar = u.copy()

    track = _Tracker(prob, u, y, v0_cp)
    it = 0
    converged = track.check(0, u, y, v0_cp)
    while not converged and it < opts.max_iter:
        it += 1
        grads_bar = _grad_impl(ubar, spec)
        if prob.trace:
            v0_cp = project_interval(v0_cp + sigma * _restrict_impl(ubar, spec))
        y1 = y[: prob.n1] + sigma * grads_bar[: prob.n1]
        if opts.tv_norm == "euclidean":
            y[: prob.n1] = project_ball(y1)
        else:
            y[: prob.n1] = project_interval(y1)
        for sl, _p, q in prob.power:
            y[sl] = prox_power_conj_radial(y[sl] + sigma * grads_bar[sl], sigma, q)
        w_cp = -_div_impl(y, spec)
        if prob.trace:
            w_cp += _scatter_impl(v0_cp, spec)
        u_old = u
        if kind == "elliptic":
            u = prox_primal_linear(u - tau * w_cp, tau, prob.f)
        else:
            u = prox_primal_quadratic(u - tau * w_cp, tau, prob.g, prob.tau_time)
        ubar = u + theta * (u - u_old)
        track.add(u, y, v0_cp)
        if it % opts.residual_check_every == 0 or it == opts.max_iter:
            converged = track.check(it, u, y, v0_cp)

    bd, u_out = track.primal
    dual_value, z, v0_out = track.dual
    _, gap, bracket_e, bracket_s = track.history[-1]
    w = prob.adjoint_paper(z, v0_out)
    rr = w + prob.f if kind == "elliptic" else u_out - prob.g - prob.tau_time * w
    v0_trace = None if v0_out is None else -v0_out
    rhs = prob.f if kind == "elliptic" else (prob.g - u_out) / prob.tau_time
    certificate = cert.check_weak_solution(
        u_out,
        z,
        rhs,
        spec,
        mode="elliptic" if kind == "elliptic" else "parabolic",
        boundary_trace=v0_trace,
        gap=gap,
        tv_norm=opts.tv_norm,
    )
    report = SolveReport(
        problem=kind,
        iterations=it,
        converged=bool(converged),
        primal_value=float(bd.total),
        dual_value=float(dual_value),
        final_gap=gap,
        divergence_residual=float(np.sqrt(np.vdot(rr, rr).real * prob.vol)),
        dual_feasibility_violation=_feasibility_violation(z, v0_out, prob),
        bracket_conjugate=bracket_e,
        bracket_source=bracket_s,
        sigma=float(sigma),
        tau=float(tau),
        theta_relax=float(theta),
        wall_time_s=time.perf_counter() - t0,
        gap_history=track.history,
        energy=bd,
        certificate=certificate,
    )
    if not converged:
        raise NonConvergenceError(
            f"{kind} solve stopped at iteration {it} with gap {gap:.3e} "
            f"above tolerance {opts.gap_tol:.3e} * (1 + |primal|)",
            report=report,
        )
    return SolveResult(u=u_out, z=z, v0=v0_trace, report=report)


def _feasibility_violation(y, v0_cp, prob) -> float:
    viol = max(0.0, cert._block1_sup(y[: prob.n1], prob.opts.tv_norm) - 1.0)
    if v0_cp is not None and v0_cp.size:
        viol = max(viol, float(np.max(np.abs(v0_cp))) - 1.0)
    return max(0.0, viol)


def solve_elliptic(f, spec: GridSpec, opts: SolveOptions | None = None) -> SolveResult:
    """Minimize the anisotropic energy minus <f, u>, with a certificate.

    Returns (u, z, v0, report); z is the conjugate vector field with the
    per-cell block-1 bound ||z1|| <= 1, v0 the weak normal flux on the
    penalized faces (None under neumann_block1), and the report carries
    the certified gap, the dual divergence residual, and the weak-
    solution certificate.  Raises NonConvergenceError (with the report
    attached) if the gap tolerance is not met within max_iter.
    """
    return _solve("elliptic", f, spec, None, opts or SolveOptions())


def solve_resolvent(
    g,
    tau_time: float,
    spec: GridSpec,
    opts: SolveOptions | None = None,
    u_init=None,
    y_init=None,
    v0_init=None,
) -> SolveResult:
    """One implicit Euler step: minimize F(u) + ||u - g||^2 / (2 tau_time).

    At convergence u = g + tau_time * div z holds within the
    gap-controlled residual reported as divergence_residual.  Optional
    warm-start arguments seed the iteration (deterministically) with a
    previous state.
    """
    return _solve(
        "resolvent",
        g,
        spec,
        tau_time,
        opts or SolveOptions(),
        u_init=u_init,
        y_init=y_init,
        v0_init=v0_init,
    )


def duality_gap(u, dual: DualState, data, spec: GridSpec, problem_kind: str,
                tau_time: float = 1.0, tv_norm: str = "euclidean") -> float:
    """Certified gap between the primal value at u and the dual lower bound.

    The dual state must be feasible after its projections; a violation
    beyond roundoff raises InvalidStateError rather than returning an
    invalid bound.
    """
    if problem_kind not in PROBLEM_KINDS:
        raise InvalidInputError(f"problem_kind must be one of {PROBLEM_KINDS}")
    u = check_scalar_field(u, spec)
    data = check_scalar_field(data, spec, name="data")
    v = check_vector_field(dual.v_blocks, spec, name="v_blocks")
    opts = SolveOptions(tv_norm=tv_norm)
    prob = _Problem(problem_kind, data, spec, tau_time, opts)
    y = -v
    v0_cp = None
    if prob.trace:
        if dual.v0 is None:
            raise InvalidInputError("dual state lacks v0 in dirichlet_penalized mode")
        v0_cp = -check_boundary_field(dual.v0, spec, name="v0")
    viol = _feasibility_violation(y, v0_cp, prob)
    if viol > 1e-9:
        raise InvalidStateError(
            f"dual state violates its unit bounds by {viol:.3e} after projection"
        )
    gap = prob.primal(u).total - prob.dual(y, v0_cp)[0]
    return float(gap)
