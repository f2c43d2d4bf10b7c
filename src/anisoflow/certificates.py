"""Residual checks for the optimality system of a solve.

A pair (u, z) with boundary flux v0 is optimal exactly when

  * per-cell block-1 dual norm of z at most 1,
  * the block-1 pairing saturates: <z1, grad1 u> equals the total
    variation,
  * constitutive law on each power block: z_i = |grad_i u|^{p_i-2}
    grad_i u,
  * divergence condition: div z + rhs = 0 (rhs = f for the elliptic
    problem, the backward difference quotient for a flow step),
  * boundary sign condition on the penalized faces: v0 * u_face =
    -|u_face| with |v0| <= 1.

``check_weak_solution`` measures all five and never raises on large
values; it is a reporting tool.  The same function records the exact
nonnegative bookkeeping terms (pairing slack, per-block Young slack,
boundary slack) whose sum is bounded by the duality gap of a certified
solve, and equals it when div z + rhs = 0 holds exactly, as it does for
the pairs both solves return.  Large residuals therefore always point at
a genuine violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .energy import _tv_value
from .errors import InvalidInputError
from .grid import (
    GridSpec,
    _grad_impl,
    _power_blocks,
    _restrict_impl,
    boundary_restriction,
    boundary_weights,
    check_boundary_field,
    check_scalar_field,
    check_vector_field,
    div_blocks,
    grad_block,
    gradient,
    inner,
    weak_normal_trace,
)

MODES = ("elliptic", "parabolic")


@dataclass(frozen=True)
class Certificate:
    """Residuals of the five optimality conditions plus gap bookkeeping.

    All residual fields are nonnegative and finite.  The last three
    fields are the exact gap-decomposition contributions: for a
    certified solve, pairing_gap + sum(young_terms) + boundary_sign_total
    is at most the gap plus roundoff.
    """

    mode: str
    boundary_mode: str
    gap: float
    sup_norm_z1: float
    pairing_residual: float
    constitutive_residuals: tuple[float, ...]
    divergence_residual: float
    boundary_sign_residual: float
    trace_sup: float
    pairing_gap: float
    young_terms: tuple[float, ...]
    boundary_sign_total: float


class _GapTerms(NamedTuple):
    """Nonnegative pieces of the duality gap at a feasible (u, z, flux)."""

    pairing_gap: float
    young_terms: tuple[float, ...]
    sign: np.ndarray  # per face |u| + flux * u; empty without a trace term
    boundary_sign_total: float

    @property
    def total(self) -> float:
        return self.pairing_gap + sum(self.young_terms) + self.boundary_sign_total


def _gap_terms(u, g, z, flux, spec: GridSpec, tv_norm: str) -> _GapTerms:
    """Block-1 pairing slack, per-power-block Young slack, boundary sign slack.

    ``g`` is the gradient of u, which the caller has already taken.
    Each term is nonnegative when the block-1 dual norm of z and |flux|
    are at most 1.  Where div z + rhs = 0 holds exactly, the Gauss-Green
    identity makes their sum equal the duality gap of the pair.  Inputs
    are assumed validated.
    """
    vol = spec.cell_volume
    n1 = spec.blocks[0]
    pairing = _tv_value(g[:n1], spec, tv_norm) - float(np.vdot(z[:n1], g[:n1])) * vol
    young = []
    for sl, p, q in _power_blocks(spec):
        gb, zb = g[sl], z[sl]
        gm = np.sqrt(np.sum(gb * gb, axis=0))
        zm = np.sqrt(np.sum(zb * zb, axis=0))
        with np.errstate(over="ignore"):  # at large p or q, inf is the value
            young.append(float(np.sum(gm**p / p + zm**q / q - np.sum(zb * gb, axis=0))) * vol)
    if spec.has_trace_term:
        tr = _restrict_impl(u, spec)
        sign = np.abs(tr) + flux * tr
        sign_total = float(np.sum(boundary_weights(spec) * sign))
    else:
        sign, sign_total = np.zeros(0), 0.0
    return _GapTerms(pairing, tuple(young), sign, sign_total)


def _block1_sup(z1: np.ndarray, tv_norm: str) -> float:
    """Largest per-cell dual norm of the block-1 components."""
    if z1.size == 0:
        return 0.0
    if tv_norm == "euclidean":
        return float(np.sqrt(np.max(np.sum(z1 * z1, axis=0))))
    return float(np.max(np.abs(z1)))


def pairing_measure(z1, u, spec: GridSpec) -> np.ndarray:
    """Per-cell mass of the pairing between z1 and the block-1 gradient.

    Accepts either the block-1 components or a full vector field (the
    block-1 components are then sliced off).  The total over any cell
    subset is bounded by sup||z1|| times the subset's variation mass.
    """
    u = check_scalar_field(u, spec)
    z1 = np.asarray(z1, dtype=float)
    n1 = spec.blocks[0]
    if z1.shape == (spec.ndim,) + spec.dims:
        z1 = z1[:n1]
    if z1.shape != (n1,) + spec.dims:
        raise InvalidInputError(
            f"z1 must have shape {(n1,) + spec.dims}, got {z1.shape}"
        )
    g1 = grad_block(u, spec, 1)
    return np.sum(z1 * g1, axis=0) * spec.cell_volume


def gauss_green_residual(u, z, spec: GridSpec, boundary_flux=None) -> float:
    """Defect of the integration-by-parts identity; zero by construction.

    Checks <u, div z> + sum_blocks <z, grad u> = boundary pairing of the
    flux with the trace of u.  Exact up to roundoff for every (u, z)
    because the divergence is defined as the negative adjoint of the
    gradient plus explicit boundary bookkeeping.
    """
    u = check_scalar_field(u, spec)
    z = check_vector_field(z, spec)
    if boundary_flux is None:
        boundary_flux = weak_normal_trace(z, spec)
    lhs = inner(u, div_blocks(z, spec, boundary_flux), spec)
    lhs += float(np.vdot(z, gradient(u, spec))) * spec.cell_volume
    rhs = float(np.sum(boundary_weights(spec) * boundary_flux * boundary_restriction(u, spec)))
    return abs(lhs - rhs)


def _default_floor(g1_mags: np.ndarray, grad_floor) -> float:
    if grad_floor is not None:
        if not grad_floor > 0:
            raise InvalidInputError("grad_floor must be positive")
        return float(grad_floor)
    top = float(np.max(g1_mags)) if g1_mags.size else 0.0
    return 1e-10 * top if top > 0 else 1e-300


def theta_density(z, u, spec: GridSpec, grad_floor: float | None = None) -> np.ndarray:
    """Per-cell density z1 . grad1 u / |grad1 u|, NaN below the floor.

    The default floor is 1e-10 times the largest block-1 gradient
    magnitude; below it the ratio has no meaning.  Defined values are
    bounded by the per-cell norm of z1.
    """
    u = check_scalar_field(u, spec)
    z = check_vector_field(z, spec)
    n1 = spec.blocks[0]
    g1 = grad_block(u, spec, 1)
    mags = np.sqrt(np.sum(g1 * g1, axis=0))
    floor = _default_floor(mags, grad_floor)
    out = np.full(spec.dims, np.nan)
    mask = mags > floor
    num = np.sum(z[:n1] * g1, axis=0)
    out[mask] = num[mask] / mags[mask]
    return out


def check_weak_solution(
    u,
    z,
    rhs,
    spec: GridSpec,
    mode: str = "elliptic",
    boundary_trace=None,
    gap: float = float("nan"),
    tv_norm: str = "euclidean",
) -> Certificate:
    """Populate every optimality residual for the pair (u, z).

    ``boundary_trace`` is the boundary flux to use for the divergence
    and sign conditions; when omitted it is sampled from z directly.
    ``rhs`` is f in elliptic mode and the backward difference quotient
    (previous state minus current, over the time step) in parabolic
    mode.  Reports only; large residuals never raise.
    """
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}")
    u = check_scalar_field(u, spec)
    z = check_vector_field(z, spec)
    rhs = check_scalar_field(rhs, spec, name="rhs")
    n1 = spec.blocks[0]
    vol = spec.cell_volume

    if boundary_trace is None:
        boundary_trace = weak_normal_trace(z, spec)
    else:
        boundary_trace = check_boundary_field(boundary_trace, spec, name="boundary_trace")

    g = _grad_impl(u, spec)
    terms = _gap_terms(u, g, z, boundary_trace, spec, tv_norm)
    consti = []
    for sl, p, _q in _power_blocks(spec):
        gb = g[sl]
        gm = np.sqrt(np.sum(gb * gb, axis=0))
        law = gm ** (p - 2.0) * gb if p >= 2.0 else np.where(gm > 0, gm, 1.0) ** (p - 2.0) * gb * (gm > 0)
        diff = z[sl] - law
        with np.errstate(over="ignore"):  # at large spacing, inf is the value
            consti.append(float(np.sqrt(np.sum(diff * diff) * vol)))

    w = div_blocks(z, spec, boundary_trace)
    div_res = float(np.sqrt(np.vdot(w + rhs, w + rhs).real * vol))
    sign = terms.sign

    return Certificate(
        mode=mode,
        boundary_mode=spec.boundary_mode,
        gap=float(gap),
        sup_norm_z1=_block1_sup(z[:n1], tv_norm),
        pairing_residual=abs(terms.pairing_gap),
        constitutive_residuals=tuple(consti),
        divergence_residual=div_res,
        boundary_sign_residual=float(np.max(np.abs(sign))) if sign.size else 0.0,
        trace_sup=float(np.max(np.abs(boundary_trace))) if sign.size else 0.0,
        pairing_gap=terms.pairing_gap,
        young_terms=terms.young_terms,
        boundary_sign_total=terms.boundary_sign_total,
    )
