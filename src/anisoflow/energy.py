"""Blockwise energies: total variation, power terms, boundary penalty.

The flow energy of a field u is

    F(u) = sum_cells V |grad_1 u|            (block-1 total variation)
         + sum_faces A |trace u|             (dirichlet_penalized only)
         + sum_{i>=2} (1/p_i) sum_cells V |grad_i u|_2^{p_i}

with V the cell volume and A the face area.  The elliptic objective
subtracts the source pairing <f, u>.  The block-1 cell norm is Euclidean
by default; the ``l1`` variant sums absolute components, which makes the
co-area identity exact for every field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .grid import (
    GridSpec,
    _grad_impl,
    _power_blocks,
    _restrict_impl,
    boundary_weights,
    check_scalar_field,
    grad_block,
)

TV_NORMS = ("euclidean", "l1")


def _cell_norms(g: np.ndarray, norm: str) -> np.ndarray:
    if norm == "euclidean":
        return np.sqrt(np.sum(g * g, axis=0))
    if norm == "l1":
        return np.sum(np.abs(g), axis=0)
    raise InvalidInputError(f"unknown block norm {norm!r}, expected one of {TV_NORMS}")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Additive pieces of an energy evaluation; ``total`` is their exact sum."""

    tv_block1: float
    power_terms: tuple[float, ...]
    boundary_term: float
    source_term: float
    total: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self,
            "total",
            self.tv_block1 + sum(self.power_terms) + self.boundary_term + self.source_term,
        )


def _tv_value(g1: np.ndarray, spec: GridSpec, norm: str) -> float:
    return float(np.sum(_cell_norms(g1, norm))) * spec.cell_volume


def _power_value(g: np.ndarray, p: float, spec: GridSpec) -> float:
    mags = np.sqrt(np.sum(g * g, axis=0))
    with np.errstate(over="ignore"):  # at large p, inf is the value
        return float(np.sum(mags**p)) * spec.cell_volume / p


def _boundary_value(u: np.ndarray, spec: GridSpec) -> float:
    if not spec.has_trace_term:
        return 0.0
    return float(np.sum(boundary_weights(spec) * np.abs(_restrict_impl(u, spec))))


def tv_block1(u, spec: GridSpec, norm: str = "euclidean") -> float:
    """Discrete total variation along the block-1 axes.

    Nonnegative; zero exactly when every block-1 difference vanishes.
    """
    return _tv_value(grad_block(u, spec, 1), spec, norm)


def _energy(u: np.ndarray, g: np.ndarray, spec: GridSpec, norm: str,
            source_term: float = 0.0) -> EnergyBreakdown:
    """Breakdown at a validated u whose gradient g is already taken."""
    return EnergyBreakdown(
        tv_block1=_tv_value(g[: spec.blocks[0]], spec, norm),
        power_terms=tuple(_power_value(g[sl], p, spec) for sl, p, _q in _power_blocks(spec)),
        boundary_term=_boundary_value(u, spec),
        source_term=source_term,
    )


def eval_F(u, spec: GridSpec, norm: str = "euclidean") -> EnergyBreakdown:
    """Energy driving the gradient flow (no source term)."""
    u = check_scalar_field(u, spec)
    return _energy(u, _grad_impl(u, spec), spec, norm)


def eval_J(u, f, spec: GridSpec, norm: str = "euclidean") -> EnergyBreakdown:
    """Flow energy minus the source pairing <f, u>."""
    u = check_scalar_field(u, spec)
    f = check_scalar_field(f, spec, name="f")
    return _energy(u, _grad_impl(u, spec), spec, norm, -float(np.vdot(f, u)) * spec.cell_volume)


class CoareaCheck(NamedTuple):
    """Both sides of the layer-cake identity for the block-1 variation."""

    lhs: float
    rhs: float
    gap: float


def coarea_check(u, spec: GridSpec, norm: str = "euclidean") -> CoareaCheck:
    """Compare tv_block1(u) against the layered sum over superlevel sets.

    The right-hand side integrates the variation of the strict
    superlevel indicators over the levels between consecutive distinct
    values of u.  The two sides agree to machine precision for the
    ``l1`` norm, and for the Euclidean norm whenever block 1 has a
    single axis; otherwise the identity relaxes to lhs <= rhs and the
    gap is reported.
    """
    u = check_scalar_field(u, spec)
    lhs = tv_block1(u, spec, norm)
    values = np.unique(u)
    rhs = 0.0
    for lo, hi in zip(values[:-1], values[1:]):
        ind = (u > lo).astype(float)
        rhs += (hi - lo) * tv_block1(ind, spec, norm)
    return CoareaCheck(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))


def poincare_constant(spec: GridSpec) -> float:
    """Constant C = L^{p_k} with L the extent along the last block-k axis."""
    return spec.last_block_length() ** spec.exponents[-1]


def poincare_check(u, spec: GridSpec) -> tuple[float, float]:
    """Return (lhs, rhs) of sum V |u|^{p_k} <= C * sum V |grad_k u|^{p_k}."""
    u = check_scalar_field(u, spec)
    p = spec.exponents[-1]
    g = grad_block(u, spec, spec.n_blocks)
    mags = np.sqrt(np.sum(g * g, axis=0))
    lhs = float(np.sum(np.abs(u) ** p)) * spec.cell_volume
    rhs = poincare_constant(spec) * float(np.sum(mags**p)) * spec.cell_volume
    return lhs, rhs
