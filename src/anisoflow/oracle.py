"""Independent reference minimizer for small instances.

Replaces every nonsmooth absolute value (per-cell block-1 magnitude,
boundary trace, and power magnitudes with exponent below 2) by the
smooth surrogate sqrt(x^2 + eps^2) - eps, minimizes the smoothed
objective by damped Newton on its exact dense Hessian, and drives eps
down a fixed schedule, warm-starting each stage.  The surrogate is
uniformly within eps of the true term, so the exact energy at the final
point is a certified near-optimal value.

Deliberately simple: this is the ground truth the fast solver is
validated against, so it shares no iteration machinery with it.  Its
only operators are the public ``gradient`` and ``boundary_restriction``,
applied once per grid to unit fields to build their matrices.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .energy import eval_F, eval_J
from .errors import InvalidInputError, NumericalFailureError
from .grid import (
    GridSpec,
    _power_blocks,
    boundary_restriction,
    boundary_weights,
    check_scalar_field,
    gradient,
)

_MAX_CELLS = 256  # 16 x 16

# Continuation schedule, strictly decreasing and ending at 1e-8, and the
# Newton steps allowed per stage (see _newton).
_EPS_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
_MAX_NEWTON = 200


@functools.cache
def _matrices(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Gradient matrix, shaped (ndim, cells, cells), and trace matrix."""
    n = math.prod(spec.dims)
    units = np.eye(n).reshape((n,) + spec.dims)
    grad = np.stack([gradient(e, spec).reshape(spec.ndim, n) for e in units], axis=-1)
    trace = np.stack([boundary_restriction(e, spec) for e in units], axis=-1)
    return grad, trace


def _derivatives(x, spec: GridSpec, eps: float, kind: str, data, tau_time: float):
    """Smoothed objective at the flat field x: value, gradient, Hessian.

    ``kind`` is "elliptic" or "resolvent" and eps is positive, as
    :func:`oracle_minimize` guarantees; fields are assumed validated.
    Every block, block 1 as exponent 1, is m^p / p in its cell magnitude
    m, smoothed to sqrt(|g|^2 + eps^2) where p < 2.
    """
    vol = spec.cell_volume
    G, R = _matrices(spec)
    g = G @ x
    val, grad, hess = 0.0, np.zeros_like(x), np.zeros((x.size, x.size))
    blocks = [(slice(0, spec.blocks[0]), 1.0)] + [(sl, p) for sl, p, _q in _power_blocks(spec)]
    for sl, p in blocks:
        gb, A = g[sl], G[sl].reshape(-1, x.size)
        s = eps if p < 2.0 else 0.0
        m = np.sqrt(np.sum(gb * gb, axis=0) + s * s)
        val += float(np.sum(m**p - s**p)) * vol / p
        # per cell: gradient a g, Hessian a (I + (p - 2) e e^T), with e = g / m
        a = m ** (p - 2.0)
        e = np.divide(gb, m, out=np.zeros_like(gb), where=m > 0)
        E = np.einsum("kc,kcj->cj", e, G[sl])
        grad += vol * (A.T @ (a * gb).ravel())
        hess += vol * (A.T @ (np.tile(a, len(gb))[:, None] * A))
        hess += vol * (p - 2.0) * (E.T @ (a[:, None] * E))

    if spec.has_trace_term:
        w, t = boundary_weights(spec), R @ x
        r = np.sqrt(t * t + eps * eps)
        val += float(np.sum((r - eps) * w))
        grad += R.T @ (w * t / r)
        hess += R.T @ ((w * eps * eps / r**3)[:, None] * R)

    if kind == "elliptic":
        val -= float(np.vdot(data, x)) * vol
        grad -= vol * data
    else:
        d = x - data
        val += 0.5 / tau_time * float(np.vdot(d, d)) * vol
        grad += vol * d / tau_time
        hess[np.diag_indices(x.size)] += vol / tau_time
    return val, grad, hess


def _newton(x, spec, eps, kind, data, tau_time, stage_index):
    """Damped Newton with Armijo backtracking for one smoothing stage.

    Stops once the Newton decrement grad.H^-1.grad is below the value's
    rounding unit, or when 80 halvings of the step find no decrease (the
    surrogate's numerical floor); the best iterate is then returned.
    The Hessian is shifted by the rounding unit of its largest diagonal
    entry, which keeps a singular one (a p > 2 block at zero gradient)
    solvable.  Only exhausting ``_MAX_NEWTON`` steps is an error.
    """
    val, grad, hess = _derivatives(x, spec, eps, kind, data, tau_time)
    tiny, diag = np.finfo(float).eps, np.diag_indices(x.size)
    for _ in range(_MAX_NEWTON):
        hess[diag] += tiny * np.max(hess[diag])
        step = np.linalg.solve(hess, -grad)
        dec = -float(np.vdot(grad, step))
        if dec <= tiny * (1.0 + abs(val)):
            return x, val
        t = 1.0
        for _bt in range(80):
            cand = x + t * step
            cval, cgrad, chess = _derivatives(cand, spec, eps, kind, data, tau_time)
            if cval <= val - 1e-4 * t * dec:
                break
            t *= 0.5
        else:
            return x, val
        x, val, grad, hess = cand, cval, cgrad, chess
    raise NumericalFailureError(
        f"oracle stage did not meet its Newton decrement tolerance within "
        f"{_MAX_NEWTON} steps at eps={eps:g}",
        residual=math.sqrt(dec),
        stage=stage_index,
    )


def oracle_minimize(problem_kind: str, data, spec: GridSpec, tau_time: float = 1.0):
    """(u_ref, value_ref) from the Newton continuation; small grids only.

    value_ref is the exact (unsmoothed) objective at the final iterate,
    hence always an upper bound for the true minimum no matter how each
    stage terminated.  Deterministic: starts from zero, no randomness
    anywhere.  A stage that exhausts its Newton budget raises with the
    stage index.
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
    x = np.zeros(data.size)
    for i, eps in enumerate(_EPS_SCHEDULE):
        x, _ = _newton(x, spec, eps, problem_kind, data.ravel(), tau_time, i)
    u = x.reshape(spec.dims)
    if problem_kind == "elliptic":
        value = eval_J(u, data, spec).total
    else:
        bd = eval_F(u, spec)
        value = bd.total + 0.5 / tau_time * float(np.vdot(u - data, u - data)) * spec.cell_volume
    return u, float(value)
