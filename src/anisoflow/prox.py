"""Proximal and projection kernels used by the saddle-point iteration.

All kernels act elementwise (or per-cell on vector magnitudes), are
firmly nonexpansive, and are exact up to the stated Newton tolerance.
Their scalar parameters are checked, never their arrays.  Where a
kernel takes ``out``, the result written there is bit for bit the one
it allocates without it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

# Scalar-solve controls of the power prox: the residual tolerance,
# relative to 1 + |v|, and the Newton iteration budget.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50


def project_ball(v, radius: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """Project per-cell vectors (components along axis 0) onto the Euclidean ball.

    ``out``, when given, must not overlap ``v``: its first component
    holds the magnitudes until the last division.
    """
    if not radius > 0.0:
        raise InvalidInputError(f"radius must be positive, got {radius!r}")
    v = np.asarray(v, dtype=float)
    if out is None:
        out = np.empty(v.shape)
    mags = out[:1]
    np.multiply(v[:1], v[:1], out=mags)
    for k in range(1, len(v)):
        mags += np.multiply(v[k : k + 1], v[k : k + 1], out=out[k : k + 1])
    np.sqrt(mags, out=mags)
    if radius != 1.0:
        mags /= radius
    np.maximum(mags, 1.0, out=mags)
    for k in range(len(v) - 1, -1, -1):
        np.divide(v[k : k + 1], mags, out=out[k : k + 1])
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


def prox_power_conj(v, sigma: float, p_conj: float) -> np.ndarray:
    """Prox of sigma/q * |.|^q with q = p_conj, elementwise.

    Solves x + sigma x^{q-1} = |v| for x >= 0 and returns the root with
    the sign of v.  q = 2 is closed-form; otherwise a Newton iteration
    safeguarded by bisection on [0, |v|] runs until
    |x + sigma x^{q-1} - |v|| <= 1e-12 * (1 + |v|).
    """
    q = p_conj
    _check_power_params(sigma, q)
    v = np.asarray(v, dtype=float)
    av = np.abs(v)
    if sigma == 0.0:
        return v.copy()
    if q == 2.0:
        return v / (1.0 + sigma)

    # Vectorized guarded Newton; the residual is increasing in x, so the
    # bracket [lo, hi] always contains the root.
    lo = np.zeros_like(av)
    hi = av.copy()
    x = av / (1.0 + sigma)
    tol = _NEWTON_TOL * (1.0 + av)
    done = av == 0.0
    for _ in range(_NEWTON_MAX_ITER):
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            xa = np.where(x > 0, x, 1.0)
            res = x + sigma * xa ** (q - 1.0) * (x > 0) - av
            done |= np.abs(res) <= tol
            if done.all():
                break
            lo = np.where(res < 0, x, lo)
            hi = np.where(res > 0, x, hi)
            slope = 1.0 + sigma * (q - 1.0) * xa ** (q - 2.0)
            step = x - res / slope
        x = np.where(done, x, np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi)))
    else:
        with np.errstate(invalid="ignore", over="ignore"):
            xa = np.where(x > 0, x, 1.0)
            res = x + sigma * xa ** (q - 1.0) * (x > 0) - av
        bad = np.abs(res) > tol
        if bad.any():
            worst = float(np.max(np.abs(res[bad])))
            raise NumericalFailureError(
                f"power prox Newton did not reach tolerance after "
                f"{_NEWTON_MAX_ITER} iterations",
                residual=worst,
            )
    return np.sign(v) * x


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
    mags = np.sqrt(np.sum(w * w, axis=0))
    new_mags = prox_power_conj(mags, sigma, p_conj)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(mags > 0, new_mags / np.where(mags > 0, mags, 1.0), 0.0)
    return np.multiply(w, scale, out=out)


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
