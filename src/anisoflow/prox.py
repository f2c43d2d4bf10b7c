"""Proximal and projection kernels used by the saddle-point iteration.

All kernels act elementwise (or per-cell on vector magnitudes), are
firmly nonexpansive, and are exact up to the stated Newton tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError


@dataclass(frozen=True)
class ProxParams:
    """Scalar-solve tolerances for the power prox."""

    newton_tol: float = 1e-12
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.newton_tol <= 0 or self.newton_max_iter < 1:
            raise InvalidInputError("newton_tol must be positive, newton_max_iter >= 1")


def project_ball(v, radius: float = 1.0) -> np.ndarray:
    """Project per-cell vectors (components along axis 0) onto the Euclidean ball."""
    v = np.asarray(v, dtype=float)
    mags = np.sqrt(np.sum(v * v, axis=0, keepdims=True))
    return v / np.maximum(mags / radius, 1.0)


def project_interval(v, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    """Componentwise clamp onto [lo, hi]."""
    return np.clip(np.asarray(v, dtype=float), lo, hi)


def prox_power_conj(v, sigma: float, p_conj: float, params: ProxParams | None = None) -> np.ndarray:
    """Prox of sigma/q * |.|^q with q = p_conj, elementwise.

    Solves x + sigma x^{q-1} = |v| for x >= 0 and returns the root with
    the sign of v.  q = 2 is closed-form; otherwise a Newton iteration
    safeguarded by bisection on [0, |v|] runs until
    |x + sigma x^{q-1} - |v|| <= newton_tol * (1 + |v|).
    """
    q = p_conj
    if params is None:
        params = ProxParams()
    if q < 1.0 + 1e-6:
        raise InvalidInputError(f"conjugate exponent q={q} too close to 1")
    if sigma < 0:
        raise InvalidInputError("sigma must be nonnegative")
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
    tol = params.newton_tol * (1.0 + av)
    done = av == 0.0
    for _ in range(params.newton_max_iter):
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
                f"{params.newton_max_iter} iterations",
                residual=worst,
            )
    return np.sign(v) * x


def prox_power_conj_radial(w, sigma: float, p_conj: float, params: ProxParams | None = None) -> np.ndarray:
    """Per-cell radial prox for vector fields (components along axis 0).

    Shrinks each cell vector's magnitude by the scalar prox and keeps
    its direction.
    """
    w = np.asarray(w, dtype=float)
    if p_conj == 2.0 and sigma > 0:
        # magnitude shrink is linear, so it commutes with the direction
        return w / (1.0 + sigma)
    mags = np.sqrt(np.sum(w * w, axis=0))
    new_mags = prox_power_conj(mags, sigma, p_conj, params)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(mags > 0, new_mags / np.where(mags > 0, mags, 1.0), 0.0)
    return w * scale


def prox_primal_linear(u, tau: float, f) -> np.ndarray:
    """Prox of the linear source term -<f, .>: a shift by tau * f."""
    return np.asarray(u, dtype=float) + tau * np.asarray(f, dtype=float)


def prox_primal_quadratic(u, tau: float, g, tau_time: float) -> np.ndarray:
    """Prox of the implicit-Euler coupling (1/(2 tau_time)) ||. - g||^2."""
    if tau_time <= 0:
        raise InvalidInputError("tau_time must be positive")
    return (tau_time * np.asarray(u, dtype=float) + tau * np.asarray(g, dtype=float)) / (
        tau_time + tau
    )
