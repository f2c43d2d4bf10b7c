"""Primal-dual solver with a certified duality gap.

Both problems minimize E(Au) + G(u) where A stacks the boundary trace
(dirichlet_penalized only) and the blockwise gradients, E couples the
total-variation, boundary, and power terms, and G is the source term
(elliptic) or the implicit-Euler coupling (resolvent).  The iteration is
the primal-dual scheme of Chambolle and Pock: dual ascent through the
conjugate proxes, primal descent through the G prox, and extrapolation
with factor 1.  The base step is sigma = 1/L, where L is 1.01 times a
power-iteration estimate of ||A||.  The power iteration has a fixed
length and start, so L depends on the grid alone and no solve depends
on a seed.  The dual step is omega * sigma and the primal step
sigma / omega, so their product stays sigma^2 and sigma^2 * ||A||^2 < 1
holds for every primal weight omega.  Both problems adapt omega by one
rule.  A solve starts at omega = 1 and updates it at a check that does
not certify, but only once the certified gap has fallen to a fifth of
its value at the previous update (or at iteration 0), or once 36% of
all iterations so far have passed since that update (the restart
criteria of Applegate et al., Math. Prog. 2023).  An update moves log
omega halfway towards log(|d(z, v0)| / |du|), the movements of the
iterate since the previous update in the volume- and face-weighted
norms (the primal weight of Applegate et al., NeurIPS 2021).  A zero
movement, or a new weight that is not finite and positive, leaves
omega as it is.  The iterate itself is never reset.

Convergence is declared only through the certified gap: the primal
value minus a dual value that is a true lower bound of the problem.
Both dual values are exact.  The resolvent dual has no constraint, and
each resolvent dual candidate is paired with its exact primal, the
minimizer u(z) = g + tau_time * A*(z, v0) of the Lagrangian; the
certified pair is the candidate pair of smallest gap, so the returned
u, z and v0 satisfy the divergence condition to roundoff.  The
elliptic dual needs div z + f = 0, which the iteration does not keep;
at each check a copy of every dual candidate is restored onto it
exactly (the PDHG iterate itself is left alone), and the best primal
iterate is kept apart.  The restoration replaces only the last axis,
which always belongs to a power block: its ghost-closed divergence is
lower bidiagonal, so a cumulative sum of the other terms gives it, and
power components carry no dual bound, so the unit bounds on the
block-1 part and on v0 are untouched.  Each primal candidate of a check
costs one gradient: the primal value and, for the point kept, the gap
terms of its conjugate bracket are computed from it.

The iterated dual pair (z, v0) is the one returned: z the vector field
and v0 the weak normal flux on the penalized faces, with A*(z, v0) =
div z + scatter(v0).

Each solve allocates one workspace up front: the iterates u, z and v0,
the extrapolated point, the gradient stack, the divergence and its
axis-term scratch, the boundary restriction and scatter buffers, and
the iterate at the previous weight update.  The iteration runs
in place on it, with u and its successor swapped by reference, and
calls each kernel with ``out=``; what still allocates per iteration is
the radial power prox at p != 2 (the cell magnitudes and their shrink
factors, plus the Newton iterates at p other than 3/2 and 3), the
product of the primal step and g in the resolvent prox, and face-sized
terms of the scatter at non-unit spacing.  Every floating-point
operation is the one the allocating kernels perform, in the same
order, so iterates, certificates and iteration counts are bit for bit
those of the allocating form.  Because the buffers are overwritten,
the tracker copies every point it keeps.
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
from .energy import EnergyBreakdown, _energy
from .errors import InvalidInputError, NonConvergenceError
from .grid import (
    GridSpec,
    _div_impl,
    _grad_impl,
    _power_blocks,
    _restrict_impl,
    _scatter_impl,
    boundary_face_count,
    boundary_weights,
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

_OPNORM_ITERS = 200  # power-iteration length
_OPNORM_SEED = 0  # seed of its random start
# A check updates the primal weight only once the certified gap has fallen
# to _RESTART_SUFFICIENT times its value at the previous update, or once
# _RESTART_ARTIFICIAL times all iterations so far have passed since then
# (PDLP's beta_sufficient and beta_artificial, Applegate et al. 2023).
_RESTART_SUFFICIENT = 0.2
_RESTART_ARTIFICIAL = 0.36


@dataclass(frozen=True)
class SolveOptions:
    """Iteration budget, gap tolerance, and scheme parameters."""

    max_iter: int = 50000
    gap_tol: float = 1e-8
    residual_check_every: int = 50
    tv_norm: str = "euclidean"

    def __post_init__(self):
        for name in ("max_iter", "residual_check_every"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise InvalidInputError(f"{name} must be an integer of at least 1, got {value!r}")
        if not (self.gap_tol > 0 and math.isfinite(self.gap_tol)):
            raise InvalidInputError(f"gap_tol must be positive and finite, got {self.gap_tol!r}")
        if self.tv_norm not in ("euclidean", "l1"):
            raise InvalidInputError(f"unknown tv_norm {self.tv_norm!r}")


@dataclass
class SolveReport:
    """Certified outcome of a solve.

    ``sigma`` is the base step 1/L.  Both problems iterate with the dual
    step omega * sigma and the primal step sigma / omega for a weight
    omega they adapt, which is not reported.  ``gap_history`` logs each
    check as (iteration, gap, conjugate bracket, source bracket), never
    NaN.  The residuals of the returned pair live in ``certificate``
    alone.
    """

    problem: str
    iterations: int
    converged: bool
    primal_value: float
    dual_value: float
    final_gap: float
    sigma: float
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
    g = np.empty((spec.ndim,) + spec.dims)
    y = np.empty(spec.dims)
    tmp = np.empty(spec.dims)
    if spec.has_trace_term:
        trace = np.empty(boundary_face_count(spec))
        spread = np.empty(spec.dims)
    for _ in range(_OPNORM_ITERS):
        _grad_impl(x, spec, out=g)
        g *= -1.0
        _div_impl(g, spec, out=y, scratch=tmp)
        if spec.has_trace_term:
            y += _scatter_impl(_restrict_impl(x, spec, out=trace), spec, out=spread)
        nrm = float(np.sqrt(np.vdot(y, y).real * spec.cell_volume))
        lam = float(np.vdot(x, y).real * spec.cell_volume)
        np.divide(y, nrm, out=x)
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
        self.face_weights = boundary_weights(spec) if self.trace else None
        if kind == "elliptic":
            self.f = data
        else:
            if not (tau_time > 0 and math.isfinite(tau_time)):
                raise InvalidInputError(f"tau_time must be positive and finite, got {tau_time}")
            self.g = data
            self.tau_time = float(tau_time)

    def primal(self, u):
        """(breakdown, gradient) of the primal objective at u.

        A check computes the gap terms of the point it keeps from this
        gradient, so each primal candidate is differentiated once.
        """
        u = check_scalar_field(u, self.spec)
        g = _grad_impl(u, self.spec)
        if self.kind == "elliptic":
            src = -float(np.vdot(self.f, u)) * self.vol
        else:
            src = 0.5 / self.tau_time * float(np.vdot(u - self.g, u - self.g)) * self.vol
        return _energy(u, g, self.spec, self.opts.tv_norm, src), g

    def conj_power_value(self, y):
        val = 0.0
        for sl, _p, q in self.power:
            mags = np.sqrt(np.sum(y[sl] * y[sl], axis=0))
            val += float(np.sum(mags**q)) * self.vol / q
        return val

    def adjoint(self, y, v0):
        """A*(y, v0): the divergence of y with the boundary flux v0."""
        w = _div_impl(y, self.spec)
        if self.trace:
            w += _scatter_impl(v0, self.spec)
        return w

    def dual(self, y, v0):
        """Certified lower bound on the primal infimum at (y, v0).

        Returns (value, y, u).  For the elliptic problem y is a restored
        copy satisfying A*(y, v0) + f = 0 to roundoff, and u is None:
        its last component is rebuilt from the others alone, so however
        large the iterate's own last component grows, it cannot cancel
        into the restored one.  For the resolvent u = g + tau_time *
        A*(y, v0), the minimizer of the Lagrangian at (y, v0): the exact
        primal of that dual point.
        """
        if self.kind == "elliptic":
            y = y.copy()
            y[-1] = 0.0
            w = self.adjoint(y, v0)
            y[-1] = -self.spec.spacing[-1] * np.cumsum(w + self.f, axis=-1)
            return -self.conj_power_value(y), y, None
        w = self.adjoint(y, v0)
        gconj = float(np.vdot(w, self.g)) * self.vol
        gconj += 0.5 * self.tau_time * float(np.vdot(w, w)) * self.vol
        return -self.conj_power_value(y) - gconj, y, self.g + self.tau_time * w

    def source_bracket(self, u, y, v0):
        """The source term's Fenchel-Young slack at u and the dual point (y, v0).

        Elliptic: -<u, A*(y, v0) + f>; resolvent: |u - g - tau_time *
        A*(y, v0)|^2 / (2 tau_time).  Both are finite for finite points
        and 0 up to roundoff at the certified pair.
        """
        w = self.adjoint(y, v0)
        if self.kind == "elliptic":
            return -float(np.vdot(u, w + self.f)) * self.vol
        r = u - self.g - self.tau_time * w
        return 0.5 / self.tau_time * float(np.vdot(r, r)) * self.vol


class _Tracker:
    """The certified pair: the best primal and dual points seen.

    Dual candidates are the current iterate and the mean of the iterates
    since the previous check: feasibility survives averaging (the dual
    constraint sets are convex), and near degenerate flat regions the
    mean damps the oscillation of the raw iterates.  An elliptic solve
    offers the iterate u and its mean as primal candidates and keeps the
    best primal and the best dual point independently.  A resolvent
    pairs each dual candidate with its exact primal u(z) = g + tau_time *
    A*(z, v0) and keeps the pair of smallest gap, so its divergence
    condition holds to roundoff.  Either way the certified gap never
    increases between checks.  Each check logs (iteration, gap,
    conjugate bracket, source bracket): the brackets realize the
    eps-subdifferentiability of the certified pair, both nonnegative up
    to roundoff and summing exactly to the gap.  Where the gap and the
    conjugate bracket are both inf, the source bracket is evaluated from
    its definition rather than as their difference, so no entry is NaN.
    The primal point is kept with the gradient its value was computed
    from, and the conjugate bracket reuses it, so a check takes one
    gradient per primal candidate.  The iteration overwrites its
    buffers, so every kept point is a copy.
    """

    def __init__(self, prob, u, y, v0):
        self.prob = prob
        self.n = 0  # iterates summed since the last check
        self.sum_u = np.zeros_like(u) if prob.kind == "elliptic" else None
        self.sum_y = np.zeros_like(y)
        self.sum_v0 = None if v0 is None else np.zeros_like(v0)
        self.primal = None  # (breakdown, u, gradient of u) of the certified primal point
        self.dual = None  # (value, y, v0) of the certified dual point
        self.history: list[tuple[int, float, float, float]] = []

    def add(self, u, y, v0):
        self.n += 1
        if self.sum_u is not None:
            self.sum_u += u
        self.sum_y += y
        if v0 is not None:
            self.sum_v0 += v0

    def check(self, it, u, y, v0) -> bool:
        """Offer the iterate and the mean; True once the gap is certified."""
        prob = self.prob
        k = float(self.n)
        d_cands = [(y, v0)]
        if self.n:
            d_cands.append((self.sum_y / k, None if self.sum_v0 is None else self.sum_v0 / k))
        if self.sum_u is not None:
            for u_c in [u, self.sum_u / k] if self.n else [u]:
                bd, g = prob.primal(u_c)
                if self.primal is None or bd.total < self.primal[0].total:
                    self.primal = (bd, u_c.copy(), g)
        for y_c, v0_c in d_cands:
            value, y_c, u_c = prob.dual(y_c, v0_c)
            if u_c is None:  # elliptic: the highest dual value
                better = self.dual is None or value > self.dual[0]
            else:  # resolvent: the pair (u(z), z, v0) of smallest gap
                bd, g = prob.primal(u_c)
                better = self.primal is None or bd.total - value < self.primal[0].total - self.dual[0]
                if better:
                    self.primal = (bd, u_c, g)
            if better:
                self.dual = (value, y_c.copy(), None if v0_c is None else v0_c.copy())
        bd, u_w, g_w = self.primal
        value, y_w, v0_w = self.dual
        gap = bd.total - value
        be = cert._gap_terms(u_w, g_w, y_w, v0_w, prob.spec, prob.opts.tv_norm).total
        src = gap - be
        if math.isnan(src):  # inf - inf: the conjugate bracket holds the inf
            src = prob.source_bracket(u_w, y_w, v0_w)
        self.history.append((it, float(gap), float(be), float(src)))
        self.n = 0
        if self.sum_u is not None:
            self.sum_u.fill(0.0)
        self.sum_y.fill(0.0)
        if self.sum_v0 is not None:
            self.sum_v0.fill(0.0)
        return math.isfinite(gap) and gap <= prob.opts.gap_tol * (1.0 + abs(bd.total))


def _reweight(omega, prob, last, u, y, v0):
    """One primal-weight step of Applegate et al. (NeurIPS 2021), smoothing 1/2.

    ``last`` holds (u, y, v0) at the previous update and is overwritten
    with the current ones.  Returns sqrt(omega * |d(y, v0)| / |du|) for
    the movements d since then, in the volume- and face-weighted norms,
    or omega unchanged when either movement is 0 or the result is not
    finite and positive.
    """
    u_last, y_last, v0_last = last
    du = math.sqrt(float(np.vdot(u - u_last, u - u_last)) * prob.vol)
    dz2 = float(np.vdot(y - y_last, y - y_last)) * prob.vol
    if v0 is not None:
        dz2 += float(np.sum(prob.face_weights * (v0 - v0_last) ** 2))
        np.copyto(v0_last, v0)
    np.copyto(u_last, u)
    np.copyto(y_last, y)
    new = math.sqrt(omega * math.sqrt(dz2) / du) if du > 0.0 else 0.0
    return new if 0.0 < new < math.inf else omega


def _solve(kind, data, spec, tau_time, opts, u_init=None, y_init=None, v0_init=None):
    t0 = time.perf_counter()
    data = check_scalar_field(data, spec, name="f" if kind == "elliptic" else "g")
    prob = _Problem(kind, data, spec, tau_time, opts)

    with np.errstate(all="ignore"):  # a spacing that breaks the estimate fails below
        sigma = 1.0 / estimate_opnorm(spec)
    if not 0.0 < sigma < math.inf:
        raise InvalidInputError(
            f"spacing {spec.spacing} gives no finite positive step size "
            f"(sigma = {sigma}); rescale the grid"
        )

    # The workspace: one buffer per iterate and per full-size intermediate.
    u = np.zeros(spec.dims) if u_init is None else check_scalar_field(u_init, spec).copy()
    y = np.zeros((spec.ndim,) + spec.dims) if y_init is None else check_vector_field(y_init, spec).copy()
    if prob.trace:
        if v0_init is None:
            v0 = np.zeros(boundary_face_count(spec))
        else:
            v0 = check_boundary_field(v0_init, spec, name="v0_init").copy()
        trace = np.empty(v0.shape)  # the step on v0
        spread = np.empty(spec.dims)  # its scatter onto the cells
    else:
        v0 = None
    ubar = u.copy()
    u_new = np.empty(spec.dims)
    step = np.empty((spec.ndim,) + spec.dims)  # y + sig_d * grad ubar
    w = np.empty(spec.dims)  # u + tau_p * A*(y, v0)
    tmp = np.empty(spec.dims)  # axis terms of the divergence
    n1 = prob.n1

    # The steps carry the primal weight omega: dual omega * sigma, primal
    # sigma / omega, product sigma^2 for every omega.  ``last`` holds the
    # iterate at the previous weight update, made at iteration last_it
    # with certified gap last_gap.
    omega = 1.0
    sig_d = tau_p = sigma
    last = (u.copy(), y.copy(), None if v0 is None else v0.copy())

    track = _Tracker(prob, u, y, v0)
    it = last_it = 0
    converged = track.check(0, u, y, v0)
    last_gap = track.history[0][1]
    while not converged and it < opts.max_iter:
        it += 1
        _grad_impl(ubar, spec, out=step)
        if prob.trace:
            _restrict_impl(ubar, spec, out=trace)
            trace *= sig_d
            np.subtract(v0, trace, out=trace)
            project_interval(trace, out=v0)
        step *= sig_d
        step += y
        if opts.tv_norm == "euclidean":
            project_ball(step[:n1], out=y[:n1])
        else:
            project_interval(step[:n1], out=y[:n1])
        for sl, _p, q in prob.power:
            prox_power_conj_radial(step[sl], sig_d, q, out=y[sl])
        _div_impl(y, spec, out=w, scratch=tmp)
        if prob.trace:
            w += _scatter_impl(v0, spec, out=spread)
        w *= tau_p
        w += u
        if kind == "elliptic":
            prox_primal_linear(w, tau_p, prob.f, out=u_new)
        else:
            prox_primal_quadratic(w, tau_p, prob.g, prob.tau_time, out=u_new)
        np.subtract(u_new, u, out=ubar)
        ubar += u_new
        u, u_new = u_new, u
        track.add(u, y, v0)
        if it % opts.residual_check_every == 0 or it == opts.max_iter:
            converged = track.check(it, u, y, v0)
            gap = track.history[-1][1]
            if not converged and (
                gap <= _RESTART_SUFFICIENT * last_gap or it - last_it >= _RESTART_ARTIFICIAL * it
            ):
                omega = _reweight(omega, prob, last, u, y, v0)
                sig_d, tau_p = omega * sigma, sigma / omega
                last_it, last_gap = it, gap

    bd, u_out, _ = track.primal
    dual_value, z, v0 = track.dual
    gap = track.history[-1][1]
    rhs = prob.f if kind == "elliptic" else (prob.g - u_out) / prob.tau_time
    certificate = cert.check_weak_solution(
        u_out,
        z,
        rhs,
        spec,
        mode="elliptic" if kind == "elliptic" else "parabolic",
        boundary_trace=v0,
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
        sigma=float(sigma),
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
    return SolveResult(u=u_out, z=z, v0=v0, report=report)


def solve_elliptic(f, spec: GridSpec, opts: SolveOptions | None = None) -> SolveResult:
    """Minimize the anisotropic energy minus <f, u>, with a certificate.

    Returns (u, z, v0, report); z is the conjugate vector field with the
    per-cell block-1 bound ||z1|| <= 1, v0 the weak normal flux on the
    penalized faces (None under neumann_block1), and the report carries
    the certified gap and the weak-solution certificate.  Raises NonConvergenceError (with the report
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

    The returned u is the exact primal of the returned dual: u = g +
    tau_time * div z, with the boundary flux v0, holds to roundoff (the
    certificate's divergence_residual), so the gap is exactly the sum of
    the certificate's pairing, Young and boundary terms.  The optional
    warm-start arguments take (u, z, v0) as a solve returns them and
    seed the iteration deterministically.
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
