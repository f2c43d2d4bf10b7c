"""Proximal and projection kernels used by the saddle-point iteration.

All kernels act elementwise (or per-cell on vector magnitudes) and are
firmly nonexpansive.  All are closed-form except the power prox at
conjugate exponents other than 2, 3 and 3/2, which is exact up to the
stated Newton tolerance.
Their scalar parameters are checked, never their arrays.  Where a
kernel takes ``out``, the result written there is bit for bit the one
it allocates without it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

# Controls of the power prox's Newton branch: the tolerance on the
# residual, relative to 1 + |v| (on the Moreau dual, after scaling by
# sigma), which bounds the error in x; and the iteration budget.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50


def project_ball(v, radius: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """Project per-cell vectors (components along axis 0) onto the Euclidean ball.

    ``out``, when given, must not overlap ``v``: its first component
    holds the magnitudes until the last division.  A cell whose
    magnitude overflows is recomputed from its components scaled by
    their largest absolute value; every other cell is unaffected.
    """
    if not radius > 0.0:
        raise InvalidInputError(f"radius must be positive, got {radius!r}")
    v = np.asarray(v, dtype=float)
    if out is None:
        out = np.empty(v.shape)
    mags = out[:1]
    with np.errstate(over="ignore"):
        np.multiply(v[:1], v[:1], out=mags)
        for k in range(1, len(v)):
            mags += np.multiply(v[k : k + 1], v[k : k + 1], out=out[k : k + 1])
        np.sqrt(mags, out=mags)
        if radius != 1.0:
            mags /= radius
    np.maximum(mags, 1.0, out=mags)
    big = np.isinf(mags[0])
    for k in range(len(v) - 1, -1, -1):
        np.divide(v[k : k + 1], mags, out=out[k : k + 1])
    if big.any():
        huge = v[:, big]
        with np.errstate(over="ignore"):
            scale = np.max(np.abs(huge), axis=0)
            unit = huge / scale
            nrm = np.sqrt(np.sum(unit * unit, axis=0))
            # |v| / radius = nrm * scale / radius; only a huge radius holds v
            out[:, big] = np.where(nrm * (scale / radius) > 1.0, unit / nrm * radius, huge)
    return out


def project_interval(
    v, lo: float = -1.0, hi: float = 1.0, out: np.ndarray | None = None
) -> np.ndarray:
    """Componentwise clamp onto [lo, hi]; ``out`` may be ``v`` itself."""
    if not lo <= hi:
        raise InvalidInputError(f"interval needs lo <= hi, got [{lo!r}, {hi!r}]")
    return np.clip(np.asarray(v, dtype=float), lo, hi, out=out)


def _check_power_params(sigma, q):
    if not 1.0 + 1e-6 <= q < math.inf:
        raise InvalidInputError(f"conjugate exponent q={q} must be finite and at least 1 + 1e-6")
    if not 0.0 <= sigma < math.inf:
        raise InvalidInputError(f"sigma must be nonnegative and finite, got {sigma!r}")


def _monotone_newton(b, c: float, r: float, tol) -> np.ndarray:
    """Root y >= 0 of y + c y^r = b (b >= 0, c > 0, r > 1), elementwise.

    The left side is convex and increasing in y, so Newton started from
    the upper bound min(b, (b/c)^(1/r)) descends monotonically onto the
    root and never overflows.  A cell leaves after the step it takes at
    a residual of at most ``tol``, or once a step no longer lowers it:
    it then sits within an ulp of the root, and at very large r one ulp
    of y moves c y^r by more than ``tol``.  Raises NumericalFailureError
    when a cell still iterates after the budget.
    """
    shape = np.shape(b)
    b, tol = np.ravel(b), np.ravel(tol)
    y = np.minimum(b, (b / c) ** (1.0 / r))
    idx = np.arange(y.size)  # the cells still iterating
    for _ in range(_NEWTON_MAX_ITER):
        yk = y[idx]
        ym = yk ** (r - 1.0)
        res = yk + c * (ym * yk) - b[idx]
        step = yk - res / (1.0 + (c * r) * ym)
        down = step < yk
        y[idx] = np.where(down, step, yk)
        idx = idx[down & (res > tol[idx])]
        if idx.size == 0:
            return y.reshape(shape)
    yk = y[idx]
    res = yk + c * yk ** r - b[idx]
    raise NumericalFailureError(
        f"power prox Newton did not reach tolerance after {_NEWTON_MAX_ITER} iterations",
        residual=float(np.max(res)),
    )


def _newton_root(a, sigma: float, q: float) -> np.ndarray:
    """The root x >= 0 of x + sigma x^{q-1} = a (sigma > 0) by monotone Newton.

    For q < 2, where that equation's slope is infinite at 0, Newton runs
    on its Moreau dual, whose exponent p - 1 exceeds 1.
    """
    tol = _NEWTON_TOL * (1.0 + a)
    if q >= 2.0:
        return _monotone_newton(a, sigma, q - 1.0, tol)
    y = _monotone_newton(a / sigma, 1.0 / sigma, 1.0 / (q - 1.0), tol / sigma)
    return np.maximum(a - sigma * y, 0.0)  # sigma * y can round above a


def _shrink_factor(a, sigma: float, q: float) -> np.ndarray:
    """x / a for the root x >= 0 of x + sigma x^{q-1} = a (sigma > 0, q != 2).

    The quotients at q = 3 and q = 3/2 are closed-form and finite at
    a = 0, so they need no guard.  Other q take the Newton root; there a
    cell with a = 0 gets 0.
    """
    if q == 3.0:
        return 2.0 / (1.0 + np.sqrt(1.0 + 4.0 * sigma * a))
    if q == 1.5:
        d = sigma + np.sqrt(sigma * sigma + 4.0 * a)
        return 4.0 * a / (d * d)
    return np.divide(_newton_root(a, sigma, q), a, out=np.zeros(np.shape(a)), where=a > 0)


def prox_power_conj(v, sigma: float, p_conj: float) -> np.ndarray:
    """Prox of sigma/q * |.|^q with q = p_conj, elementwise.

    Returns the root x >= 0 of x + sigma x^{q-1} = |v| with the sign of
    v.  q = 2 is a linear shrink; q = 3 and q = 3/2 (p = 3/2 and p = 3)
    are the quadratic roots x = 2|v|/(1 + sqrt(1 + 4 sigma |v|)) and
    x = s^2, s = 2|v|/(sigma + sqrt(sigma^2 + 4|v|)).  Every other q runs
    Newton on an equation y + c y^r = b with r > 1: for q > 2 the one
    above; for q < 2, whose equation has infinite slope at 0, its Moreau
    dual y + y^{p-1}/sigma = |v|/sigma with p = q/(q - 1), and then
    x = |v| - sigma y.  Started from the upper bound min(b, (b/c)^(1/r)),
    Newton descends monotonically onto the root, with no bracket.  It
    takes one more step once the residual (the dual one scaled by sigma)
    is within 1e-12 * (1 + |v|), and stops there or where y stops
    falling; the error in x is then within the same bound.
    """
    q = p_conj
    _check_power_params(sigma, q)
    v = np.asarray(v, dtype=float)
    av = np.abs(v)
    if sigma == 0.0:
        return v.copy()
    if q == 2.0:
        return v / (1.0 + sigma)
    return v * _shrink_factor(av, sigma, q)


def prox_power_conj_radial(
    w, sigma: float, p_conj: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-cell radial prox for vector fields (components along axis 0).

    Shrinks each cell vector's magnitude by the scalar prox and keeps
    its direction.
    """
    _check_power_params(sigma, p_conj)
    w = np.asarray(w, dtype=float)
    if p_conj == 2.0 and sigma > 0:
        # magnitude shrink is linear, so it commutes with the direction
        return np.divide(w, 1.0 + sigma, out=out)
    if sigma == 0.0:
        return np.multiply(w, 1.0, out=out)
    mags = np.sqrt(np.sum(w * w, axis=0))
    return np.multiply(w, _shrink_factor(mags, sigma, p_conj), out=out)


def _check_step(tau):
    if not 0.0 <= tau < math.inf:
        raise InvalidInputError(f"tau must be nonnegative and finite, got {tau!r}")


def prox_primal_linear(u, tau: float, f, out: np.ndarray | None = None) -> np.ndarray:
    """Prox of the linear source term -<f, .>: a shift by tau * f.

    ``out``, when given, must not overlap ``u``.
    """
    _check_step(tau)
    f = np.asarray(f, dtype=float)
    return np.add(np.asarray(u, dtype=float), np.multiply(f, tau, out=out), out=out)


def prox_primal_quadratic(
    u, tau: float, g, tau_time: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Prox of the implicit-Euler coupling (1/(2 tau_time)) ||. - g||^2.

    ``out`` may be ``u`` itself.
    """
    _check_step(tau)
    if not 0.0 < tau_time < math.inf:
        raise InvalidInputError(f"tau_time must be positive and finite, got {tau_time!r}")
    num = np.multiply(np.asarray(u, dtype=float), tau_time, out=out)
    num = np.add(num, tau * np.asarray(g, dtype=float), out=out)
    return np.divide(num, tau_time + tau, out=out)
