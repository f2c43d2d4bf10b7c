"""Primal-dual solver with a certified duality gap.

Both problems minimize E(Au) + G(u) where A stacks the boundary trace
(dirichlet_penalized only) and the blockwise gradients, E couples the
total-variation, boundary, and power terms, and G is the source term
(elliptic) or the implicit-Euler coupling (resolvent).  The iteration is
the primal-dual scheme of Chambolle and Pock: dual ascent through the
conjugate proxes, primal descent through the G prox, and extrapolation
with factor 1.  The base step is sigma = 1/L, where L is 1.01 times
the exact ||A||: A*A is a Kronecker sum of one tridiagonal matrix per
axis, so ||A||^2 is the sum of their top eigenvalues and depends on the
grid alone.  The dual step is omega * sigma and the primal step
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

Both problems start with the dual pair (z, v0) at 0, and the elliptic
primal starts at 0.  A resolvent starts at the better of its two natural
points, 0 and g.  Its check at iteration 0 values the exact primal g of
the dual point 0, so the kept primal value is F(g); the objective at 0 is
||g||^2 / (2 tau_time), since F(0) = 0.  The start is g unless 0 is
strictly lower, which takes no gradient beyond the check's.

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

Where every power exponent is 2 and block 1 has one axis, each check
from iteration ``residual_check_every`` on also offers an active-set
polish (module ``polish``, imported at the first one): the block-1 links
and faces whose dual the projected iterate holds at exactly +-1 start
the active set, on which the optimality system is linear, and a few
rounds of the primal-dual active-set strategy (Hintermueller and
Kunisch, SIAM J. Appl. Math. 2004) correct that set, each a symmetric
positive definite solve with one unknown per run of cells joined by
free links.  The last point's duals are clipped to their bounds, and the
tracker values it like any other candidate, so the certificate does not
change and a wrong set costs a few solves.  A 1-iteration solve never
polishes.

The gap is checked at every multiple of ``residual_check_every`` and at
max_iter.  The certified gap of restarted PDHG falls by a near-constant
factor per iteration, so a regular check that does not certify
extrapolates the decay since the previous check to the iteration where
the gap should reach its tolerance, and if that lies before the next
multiple it checks once more there.  This added check is a full check
(the candidates, the means and the weight gate all act as at any
check), but it schedules nothing itself.  So at most one check falls
between two multiples, and a solve spends fewer of its iterations past
the point where its gap could certify.  The schedule only reads the
check history, so until a solve's first added check every iterate and
check is the one a multiples-only schedule gives.

The iterated dual pair (z, v0) is the one returned: z the vector field
and v0 the weak normal flux on the penalized faces, with A*(z, v0) =
div z + scatter(v0).

Each solve allocates one workspace up front: the iterates u, z and v0,
the extrapolated point, the gradient stack, the divergence and its
axis-term scratch, the boundary restriction buffer, the iterate at the
previous weight update, and the views of the block-1 and power-block
components that the dual step writes.  The iteration runs in place on
it, with u and its successor swapped by reference, and calls every
kernel but the scatter with ``out=``; the kernels read the grid's index
plan (``grid``), built once per ``GridSpec``.  A block 1 of one axis
projects its dual onto the interval [-1, 1], the unit ball of one
component, with the bits of the ball projection.  What still allocates
per iteration is the radial power prox at p != 2 (the cell magnitudes
and their shrink factors, plus the Newton iterates at p other than 3/2
and 3), the product of the primal step and g in the resolvent prox, and
the scatter: its ``bincount`` sum, a cell-sized array that adds the
face terms into zeroed cells in face order, and the face terms divided
by their spacing where some spacing is not 1.  Every floating-point
operation is the one the allocating kernels perform, in the same order,
so iterates, certificates and iteration counts are bit for bit those of
the allocating form.  Because the buffers are overwritten, the tracker
copies every point it keeps.
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
    check_scalar_field,
)
from .prox import (
    project_ball,
    project_interval,
    prox_power_conj_radial,
    prox_primal_linear,
    prox_primal_quadratic,
)

# A check updates the primal weight only once the certified gap has fallen
# to _RESTART_SUFFICIENT times its value at the previous update, or once
# _RESTART_ARTIFICIAL times all iterations so far have passed since then
# (PDLP's beta_sufficient and beta_artificial, Applegate et al. 2023).
_RESTART_SUFFICIENT = 0.2
_RESTART_ARTIFICIAL = 0.36


@dataclass(frozen=True)
class SolveOptions:
    """Iteration budget, gap tolerance, and scheme parameters.

    ``residual_check_every`` is the longest interval between two gap
    checks: a check falls on each of its multiples, and at most one more
    between two of them where the gap's decay predicts certification.
    """

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

    ``sigma`` is the base step 1/(1.01 ||A||), with the exact operator
    norm of A.  Both problems iterate with the dual step omega * sigma
    and the primal step sigma / omega for a weight omega they adapt,
    which is not reported.  ``gap_history`` logs each check as
    (iteration, gap, conjugate bracket, source bracket), never NaN.  Its
    rows fall at iteration 0, at the multiples of
    ``residual_check_every`` and at max_iter, plus at most one
    added row between two multiples.  The
    residuals of the returned pair live in ``certificate`` alone.
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
    """1.01 times the exact operator norm of A between the weighted spaces.

    A*A = -div grad + scatter restrict is a Kronecker sum of one
    tridiagonal matrix T_a per axis, so ||A||^2 is the sum over the axes
    of the top eigenvalue of T_a.  h_a^2 T_a is D^T D for the axis's
    forward difference D, whose top eigenvalue is 2 (1 + cos(2 pi /
    (2n + 1))) on a ghost-closed power axis of n cells and 2 (1 + cos(pi
    / n)) on a block-1 axis; under dirichlet_penalized the trace adds
    h_a at both end cells of a block-1 axis, and ``eigvalsh`` gives the
    top eigenvalue of that matrix.  The sum is taken relative to the
    largest 1/h_a^2, so it cannot overflow.  The margin 1.01 keeps the
    unit step product sigma * tau * ||A||^2 below 1.
    """
    h_min = min(spec.spacing)
    total = 0.0
    for a, (n, h) in enumerate(zip(spec.dims, spec.spacing)):
        if a >= spec.blocks[0]:
            mu = 2.0 * (1.0 + math.cos(2.0 * math.pi / (2 * n + 1)))
        elif spec.has_trace_term:
            t = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
            t[0, 0] = t[-1, -1] = 1.0 + h
            mu = float(np.linalg.eigvalsh(t)[-1])
        else:
            mu = 2.0 * (1.0 + math.cos(math.pi / n))
        total += mu * (h_min / h) ** 2
    return 1.01 * math.sqrt(total) / h_min


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
        gradient, so each primal candidate is differentiated once.  u is
        finite: the tracker skips a candidate that is not.
        """
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
    condition holds to roundoff.  Where the solve is polishable (module
    docstring), a check also gets the polished point (u, z, v0): a
    resolvent offers only its dual, as one more dual candidate; an
    elliptic offers the pair, z restored like any dual candidate, and
    keeps both halves if the pair's gap is below the certified gap after
    the other candidates, and neither otherwise, so a polished z is never
    certified with a u it does not fit.  A candidate is valued with
    overflow silenced, and one that bounds nothing is never kept: a primal
    point that is not finite or whose value is -inf or NaN (its source
    term overflowed), and a dual point whose value is NaN.  Either way
    the certified gap never increases between checks.  Each check logs (iteration, gap,
    conjugate bracket, source bracket): the brackets realize the
    eps-subdifferentiability of the certified pair, both nonnegative up
    to roundoff and summing exactly to the gap.  Where the primal and
    dual values both overflow to -inf, the gap is logged as inf; where
    the gap and the conjugate bracket are both inf, the source bracket
    is evaluated from its definition rather than as their difference.
    So no entry is NaN.
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

    def check(self, it, u, y, v0, polished=None) -> bool:
        """Offer the iterate, the mean and a polished point; True once certified.

        ``polished`` is None or the (u, y, v0) of the active-set polish.
        """
        prob = self.prob
        k = float(self.n)
        d_cands = [(y, v0)]
        if self.n:
            d_cands.append((self.sum_y / k, None if self.sum_v0 is None else self.sum_v0 / k))
        if polished is not None and self.sum_u is None:
            d_cands.append(polished[1:])
        # A candidate may overflow; one that is not finite bounds nothing.
        with np.errstate(over="ignore", invalid="ignore"):
            if self.sum_u is not None:
                for u_c in [u, self.sum_u / k] if self.n else [u]:
                    bd, g = self._primal(u_c)
                    if bd is not None and (self.primal is None or bd.total < self.primal[0].total):
                        self.primal = (bd, u_c.copy(), g)
            for y_c, v0_c in d_cands:
                value, y_c, u_c = prob.dual(y_c, v0_c)
                if math.isnan(value):
                    continue
                if u_c is None:  # elliptic: the highest dual value
                    better = self.dual is None or value > self.dual[0]
                else:  # resolvent: the pair (u(z), z, v0) of smallest gap
                    bd, g = self._primal(u_c)
                    better = bd is not None and (
                        self.primal is None
                        or bd.total - value < self.primal[0].total - self.dual[0]
                    )
                    if better:
                        self.primal = (bd, u_c, g)
                if better:
                    self.dual = (value, y_c.copy(), None if v0_c is None else v0_c.copy())
            if polished is not None and self.sum_u is not None:
                # elliptic: the polished pair replaces both halves or neither
                u_p, y_p, v0_p = polished
                bd, g = self._primal(u_p)
                if bd is not None:
                    value, y_p, _ = prob.dual(y_p, v0_p)
                    if bd.total - value < self.primal[0].total - self.dual[0]:
                        self.primal = (bd, u_p, g)
                        self.dual = (value, y_p, v0_p)
        bd, u_w, g_w = self.primal
        value, y_w, v0_w = self.dual
        gap = bd.total - value
        if math.isnan(gap):  # -inf - (-inf): both values overflowed, nothing is certified
            gap = math.inf
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
        return math.isfinite(gap) and gap <= self.tolerance()

    def _primal(self, u):
        """(breakdown, gradient) at u, or (None, None) where u bounds nothing.

        That is where u is not finite, or its value is -inf or NaN (an
        overflowed source term).
        """
        if not np.isfinite(u).all():
            return None, None
        bd, g = self.prob.primal(u)
        return (bd, g) if bd.total > -math.inf else (None, None)

    def tolerance(self) -> float:
        """The gap that certifies: gap_tol * (1 + |primal value|)."""
        return self.prob.opts.gap_tol * (1.0 + abs(self.primal[0].total))

    def crossing(self) -> int | None:
        """Iterations from the last check until the gap should reach tol.

        The geometric decay of the last two rows (it_prev, G_prev) and
        (it, G) predicts ceil(ln(tol / G) * (it - it_prev) / ln(G /
        G_prev)); None unless tol < G < G_prev < inf.
        """
        (it_prev, g_prev, *_), (it, g, *_) = self.history[-2:]
        tol = self.tolerance()
        if not tol < g < g_prev < math.inf:
            return None
        return math.ceil(math.log(tol / g) * (it - it_prev) / math.log(g / g_prev))


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


def _solve(kind, data, spec, tau_time, opts):
    t0 = time.perf_counter()
    data = check_scalar_field(data, spec, name="f" if kind == "elliptic" else "g")
    prob = _Problem(kind, data, spec, tau_time, opts)

    sigma = 1.0 / estimate_opnorm(spec)
    if not 0.0 < sigma < math.inf:
        raise InvalidInputError(
            f"spacing {spec.spacing} gives no finite positive step size "
            f"(sigma = {sigma}); rescale the grid"
        )

    # The workspace: one buffer per iterate and per full-size intermediate.
    u = np.zeros(spec.dims)
    y = np.zeros((spec.ndim,) + spec.dims)
    if prob.trace:
        v0 = np.zeros(boundary_face_count(spec))
        trace = np.empty(v0.shape)  # the step on v0
    else:
        v0 = None
    # The start rule: a resolvent's check at iteration 0 does not read u,
    # and keeps F(g) to compare with the objective ||g||^2 / (2 tau_time) at 0.
    track = _Tracker(prob, u, y, v0)
    converged = track.check(0, u, y, v0)
    last_gap = track.history[0][1]
    if kind == "resolvent" and not (
        0.5 / prob.tau_time * float(np.vdot(prob.g, prob.g)) * prob.vol < track.primal[0].total
    ):
        np.copyto(u, prob.g)
    ubar = u.copy()
    u_new = np.empty(spec.dims)
    step = np.empty((spec.ndim,) + spec.dims)  # y + sig_d * grad ubar
    w = np.empty(spec.dims)  # u + tau_p * A*(y, v0)
    tmp = np.empty(spec.dims)  # axis terms of the divergence
    # The workspace views the dual step writes: block 1, then each power block.
    step1, y1 = step[: prob.n1], y[: prob.n1]
    power = [(step[sl], y[sl], q) for sl, _p, q in prob.power]
    # One component: the Euclidean ball is the interval, bit for bit.
    ball = opts.tv_norm == "euclidean" and prob.n1 > 1

    # The steps carry the primal weight omega: dual omega * sigma, primal
    # sigma / omega, product sigma^2 for every omega.  ``last`` holds the
    # iterate at the previous weight update, made at iteration last_it
    # with certified gap last_gap.
    omega = 1.0
    sig_d = tau_p = sigma
    last = (u.copy(), y.copy(), None if v0 is None else v0.copy())

    # Checks fall on the multiples of ``every``, on max_iter, and on the one
    # ``extra`` iteration a regular check may add before the next multiple.
    # From iteration ``every`` on, each check of a polishable solve also
    # offers the polished point.
    every = opts.residual_check_every
    polishable = prob.n1 == 1 and all(p == 2.0 for _sl, p, _q in prob.power)
    extra = None
    it = last_it = 0
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
        if ball:
            project_ball(step1, out=y1)
        else:
            project_interval(step1, out=y1)
        for step_b, y_b, q in power:
            prox_power_conj_radial(step_b, sig_d, q, out=y_b)
        _div_impl(y, spec, out=w, scratch=tmp)
        if prob.trace:
            w += _scatter_impl(v0, spec)
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
        regular = it % every == 0
        if regular or it == extra or it == opts.max_iter:
            polished = None
            if polishable and it >= every:
                from . import polish

                polished = polish.candidate(prob, u, y, v0)
            converged = track.check(it, u, y, v0, polished)
            gap = track.history[-1][1]
            if not converged and (
                gap <= _RESTART_SUFFICIENT * last_gap or it - last_it >= _RESTART_ARTIFICIAL * it
            ):
                omega = _reweight(omega, prob, last, u, y, v0)
                sig_d, tau_p = omega * sigma, sigma / omega
                last_it, last_gap = it, gap
            if regular and not converged:
                n = track.crossing()
                extra = it + n if n is not None and n < every else None

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
            f"above tolerance {track.tolerance():.3e}",
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
    g, tau_time: float, spec: GridSpec, opts: SolveOptions | None = None
) -> SolveResult:
    """One implicit Euler step: minimize F(u) + ||u - g||^2 / (2 tau_time).

    The iteration starts at u = g, or at u = 0 where that has the lower
    objective, with the dual at 0.  The returned u is the exact primal of
    the returned dual: u = g + tau_time * div z, with the boundary flux
    v0, holds to roundoff (the certificate's divergence_residual), so the
    gap is exactly the sum of the certificate's pairing, Young and
    boundary terms.
    """
    return _solve("resolvent", g, spec, tau_time, opts or SolveOptions())
