"""Independent reference minimizer for small instances.

Replaces every nonsmooth absolute value (per-cell block-1 magnitude,
boundary trace, and power magnitudes with exponent below 2) by the
smooth surrogate sqrt(x^2 + eps^2) - eps, minimizes the smoothed
objective by gradient descent with a Barzilai-Borwein trial step and
Armijo backtracking, and drives eps down a fixed schedule, warm-starting
each stage.  The surrogate is uniformly within eps of the true term, so
the exact energy at the final point is a certified near-optimal value.

Deliberately slow and simple: this is the ground truth the fast solver
is validated against, so it shares no iteration machinery with it.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import eval_F, eval_J
from .errors import InvalidInputError, NumericalFailureError
from .grid import (
    GridSpec,
    _power_blocks,
    boundary_restriction,
    boundary_scatter,
    boundary_weights,
    check_scalar_field,
    gradient,
    interior_divergence,
)

_MAX_CELLS = 256  # 16 x 16

# Continuation schedule, strictly decreasing and ending at 1e-8, and the
# per-stage descent controls (see _descend).
_EPS_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
_STAGE_GRAD_TOL = 1e-6
_MAX_INNER = 200000
_PROGRESS_FLOOR = 1e-13
_STALL_WINDOW = 30


def _value_and_grad(u, spec: GridSpec, eps: float, kind: str, data, tau_time: float):
    """Smoothed objective value and its exact analytic gradient.

    ``kind`` is "elliptic" or "resolvent" and eps is positive, as
    :func:`oracle_minimize` guarantees; fields are assumed validated.
    """
    vol = spec.cell_volume
    n1 = spec.blocks[0]
    g = gradient(u, spec)
    s = np.zeros_like(g)

    m1 = np.sqrt(np.sum(g[:n1] * g[:n1], axis=0) + eps * eps)
    val = float(np.sum(m1 - eps)) * vol
    s[:n1] = g[:n1] / m1

    for sl, p, _q in _power_blocks(spec):
        sq = np.sum(g[sl] * g[sl], axis=0)
        if p >= 2.0:
            m = np.sqrt(sq)
            val += float(np.sum(m**p)) * vol / p
            s[sl] = m ** (p - 2.0) * g[sl]
        else:
            me = np.sqrt(sq + eps * eps)
            val += float(np.sum(me**p - eps**p)) * vol / p
            s[sl] = me ** (p - 2.0) * g[sl]

    grad = -vol * interior_divergence(s, spec)

    if spec.has_trace_term:
        tr = boundary_restriction(u, spec)
        tre = np.sqrt(tr * tr + eps * eps)
        val += float(np.sum((tre - eps) * boundary_weights(spec)))
        grad += vol * boundary_scatter(tr / tre, spec)

    if kind == "elliptic":
        val -= float(np.vdot(data, u)) * vol
        grad -= vol * data
    else:
        d = u - data
        val += 0.5 / tau_time * float(np.vdot(d, d)) * vol
        grad += vol * d / tau_time
    return val, grad


def _descend(u, spec, eps, kind, data, tau_time, stage_index):
    """BB-stepped Armijo descent for one smoothing stage.

    Stops when the weighted gradient norm meets the stage tolerance, or
    when the per-iteration decrease stays below ``_PROGRESS_FLOOR``
    (relative) for ``_STALL_WINDOW`` consecutive accepted steps: at the
    tightest smoothings the backtracked iteration reaches the double
    precision floor of the surrogate before the gradient test can fire,
    and the best iterate found is then returned.  Only exhausting
    ``_MAX_INNER`` is an error.
    """
    val, grad = _value_and_grad(u, spec, eps, kind, data, tau_time)
    gn2 = float(np.vdot(grad, grad))
    step = 1.0 / (1.0 + np.sqrt(gn2))
    stalled = 0
    for _ in range(_MAX_INNER):
        if np.sqrt(gn2 * spec.cell_volume) <= _STAGE_GRAD_TOL * (1.0 + abs(val)):
            return u, val
        t = step
        for _bt in range(80):
            cand = u - t * grad
            cval, cgrad = _value_and_grad(cand, spec, eps, kind, data, tau_time)
            if cval <= val - 1e-4 * t * gn2:
                break
            t *= 0.5
        else:
            # no decrease in 80 halvings: the surrogate's numerical floor
            return u, val
        if val - cval <= _PROGRESS_FLOOR * (1.0 + abs(cval)):
            stalled += 1
        else:
            stalled = 0
        du = cand - u
        dg = cgrad - grad
        denom = float(np.vdot(du, dg))
        step = float(np.vdot(du, du)) / denom if denom > 0 else 2.0 * t
        u, val, grad = cand, cval, cgrad
        gn2 = float(np.vdot(grad, grad))
        if stalled >= _STALL_WINDOW:
            return u, val
    raise NumericalFailureError(
        f"oracle stage did not meet its gradient tolerance within "
        f"{_MAX_INNER} iterations at eps={eps:g}",
        residual=float(np.sqrt(gn2 * spec.cell_volume)),
        stage=stage_index,
    )


def oracle_minimize(problem_kind: str, data, spec: GridSpec, tau_time: float = 1.0):
    """(u_ref, value_ref) from the continuation descent; small grids only.

    value_ref is the exact (unsmoothed) objective at the final iterate,
    hence always an upper bound for the true minimum no matter how each
    stage terminated.  Deterministic: starts from zero, no randomness
    anywhere.  A stage that exhausts its iteration budget raises with
    the stage index.
    """
    if problem_kind not in ("elliptic", "resolvent"):
        raise InvalidInputError("problem_kind must be 'elliptic' or 'resolvent'")
    if int(np.prod(spec.dims)) > _MAX_CELLS:
        raise InvalidInputError(
            f"oracle is limited to grids of at most {_MAX_CELLS} cells"
        )
    if not (tau_time > 0 and math.isfinite(tau_time)):
        raise InvalidInputError(f"tau_time must be positive and finite, got {tau_time}")
    data = check_scalar_field(data, spec, name="data")
    u = np.zeros(spec.dims)
    for i, eps in enumerate(_EPS_SCHEDULE):
        u, _ = _descend(u, spec, eps, problem_kind, data, tau_time, i)
    if problem_kind == "elliptic":
        value = eval_J(u, data, spec).total
    else:
        bd = eval_F(u, spec)
        value = bd.total + 0.5 / tau_time * float(np.vdot(u - data, u - data)) * spec.cell_volume
    return u, float(value)
