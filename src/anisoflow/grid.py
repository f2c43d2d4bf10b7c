"""Cell-centered box grids with blockwise forward-difference calculus.

The coordinate axes are partitioned into ordered blocks.  Block 1 is the
linear-growth (total-variation) block: its axes carry interior forward
differences only, and the outer faces of those axes form the penalized
part of the boundary.  Blocks 2..k are power-growth blocks: their axes
carry a ghost value 0 beyond the far face, which enforces the zero trace
strongly.

The divergence is the exact negative adjoint of the concatenated
gradient, so the discrete integration-by-parts identity

    <u, div z> + <grad u, z> = sum over boundary faces of u * flux * area

holds to machine precision by construction for any boundary flux
bookkeeping passed to :func:`div_blocks`.

Scalar fields are plain ``float64`` arrays of shape ``spec.dims``
(C-order).  Vector fields stack one component per axis in front:
shape ``(ndim, *dims)``, with the forward difference along axis ``a``
stored at the cell where the difference originates.  Boundary fields are
flat arrays enumerating the outer faces of block-1 axes in a fixed
order: axis by axis, low side then high side, row-major within a side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

BOUNDARY_MODES = ("dirichlet_penalized", "neumann_block1")

# Conjugate exponents are kept away from 1 so the dual power prox stays
# well posed; p <= _P_MAX is equivalent to p' >= 1 + 1e-6.
_P_MAX = 1.0 + 1e6
_P_MIN = 1.0 + 1e-6


@dataclass(frozen=True)
class GridSpec:
    """Geometry, block partition, exponents, and boundary mode of a grid.

    Parameters
    ----------
    dims:
        Cells per axis, each at least 2.
    spacing:
        Positive mesh width per axis.
    blocks:
        Sizes of the axis blocks, in order; must sum to ``len(dims)``.
        The first block is the linear-growth block.
    exponents:
        One growth exponent per block.  The first must equal 1 exactly;
        the remaining ones must exceed 1 and be nondecreasing.
    boundary_mode:
        ``dirichlet_penalized`` penalizes |u| on the outer faces of the
        block-1 axes; ``neumann_block1`` closes them with zero flux.
        Axes of blocks >= 2 always carry a strong zero trace.
    """

    dims: tuple[int, ...]
    spacing: tuple[float, ...]
    blocks: tuple[int, ...]
    exponents: tuple[float, ...]
    boundary_mode: str = "dirichlet_penalized"

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))
        object.__setattr__(self, "exponents", tuple(float(p) for p in self.exponents))
        errs = []
        if len(self.dims) < 1:
            errs.append("dims must name at least one axis")
        if any(d < 2 for d in self.dims):
            errs.append(f"every axis needs at least 2 cells, got dims={self.dims}")
        if len(self.spacing) != len(self.dims):
            errs.append("spacing must have one entry per axis")
        elif any(not (h > 0.0 and math.isfinite(h)) for h in self.spacing):
            errs.append(f"spacing entries must be positive finite, got {self.spacing}")
        if any(b < 1 for b in self.blocks) or sum(self.blocks) != len(self.dims):
            errs.append(
                f"blocks {self.blocks} must be positive and sum to ndim={len(self.dims)}"
            )
        if len(self.exponents) != len(self.blocks):
            errs.append("need exactly one exponent per block")
        else:
            if self.exponents and self.exponents[0] != 1.0:
                errs.append("p1 must equal 1")
            for i, p in enumerate(self.exponents[1:], start=2):
                if not (_P_MIN <= p <= _P_MAX):
                    errs.append(
                        f"exponent p{i}={p} outside the supported range "
                        f"({_P_MIN} .. {_P_MAX})"
                    )
            if any(
                a > b for a, b in zip(self.exponents[1:], self.exponents[2:])
            ):
                errs.append(f"exponents {self.exponents} must be nondecreasing from block 2")
        if self.boundary_mode not in BOUNDARY_MODES:
            errs.append(
                f"boundary_mode must be one of {BOUNDARY_MODES}, got {self.boundary_mode!r}"
            )
        if errs:
            raise InvalidInputError("; ".join(errs))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def block_axes(self, block: int) -> tuple[int, ...]:
        """Axis indices of a 1-based block."""
        if not 1 <= block <= self.n_blocks:
            raise InvalidInputError(f"block {block} out of range 1..{self.n_blocks}")
        start = sum(self.blocks[: block - 1])
        return tuple(range(start, start + self.blocks[block - 1]))

    @property
    def block1_axes(self) -> tuple[int, ...]:
        return tuple(range(self.blocks[0]))

    def face_area(self, axis: int) -> float:
        """Area weight of a face normal to ``axis`` (product of the other spacings)."""
        return self.cell_volume / self.spacing[axis]

    def last_block_length(self) -> float:
        """Domain extent along the last axis of the last block."""
        a = self.block_axes(self.n_blocks)[-1]
        return self.dims[a] * self.spacing[a]

    @property
    def has_trace_term(self) -> bool:
        return self.boundary_mode == "dirichlet_penalized"


def check_scalar_field(u, spec: GridSpec, name: str = "u") -> np.ndarray:
    """Validate and return a scalar field as a float64 array of shape ``dims``."""
    u = np.asarray(u, dtype=float)
    if u.shape != spec.dims:
        raise InvalidInputError(
            f"{name} has shape {u.shape}, expected {spec.dims} for this grid"
        )
    if not np.all(np.isfinite(u)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return u


def check_vector_field(z, spec: GridSpec, name: str = "z") -> np.ndarray:
    """Validate and return a per-axis vector field of shape ``(ndim, *dims)``."""
    z = np.asarray(z, dtype=float)
    if z.shape != (spec.ndim,) + spec.dims:
        raise InvalidInputError(
            f"{name} has shape {z.shape}, expected {(spec.ndim,) + spec.dims}"
        )
    if not np.all(np.isfinite(z)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return z


def check_boundary_field(w, spec: GridSpec, name: str = "v0") -> np.ndarray:
    """Validate and return a boundary field of shape ``(boundary_face_count,)``."""
    w = np.asarray(w, dtype=float)
    n = boundary_face_count(spec)
    if w.shape != (n,):
        raise InvalidInputError(f"{name} has shape {w.shape}, expected ({n},)")
    if not np.all(np.isfinite(w)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return w


def _power_blocks(spec: GridSpec) -> list[tuple[slice, float, float]]:
    """(component slice, p, conjugate q) per block i >= 2."""
    out = []
    for b in range(2, spec.n_blocks + 1):
        axes = spec.block_axes(b)
        p = spec.exponents[b - 1]
        out.append((slice(axes[0], axes[-1] + 1), p, p / (p - 1.0)))
    return out


def _idx(axis: int, sl) -> tuple:
    return (slice(None),) * axis + (sl,)


def _axis_forward_diff(u: np.ndarray, axis: int, h: float, ghost_zero: bool) -> np.ndarray:
    g = np.zeros_like(u)
    g[_idx(axis, slice(None, -1))] = np.diff(u, axis=axis) / h
    if ghost_zero:
        g[_idx(axis, -1)] = -u[_idx(axis, -1)] / h
    return g


def _axis_divergence(z_a: np.ndarray, axis: int, h: float, ghost_zero: bool) -> np.ndarray:
    # Exact negative transpose of _axis_forward_diff with the same closure:
    # d_j = (z_j - z_{j-1})/h with z_{-1} = 0, and without the ghost closure
    # the far slot is dead weight (d_last = -z_{last-1}/h).
    d = z_a.copy()
    if not ghost_zero:
        d[_idx(axis, -1)] = 0.0
    d[_idx(axis, slice(1, None))] -= z_a[_idx(axis, slice(None, -1))]
    return d / h


def grad_block(u, spec: GridSpec, block: int) -> np.ndarray:
    """Forward-difference gradient restricted to one 1-based block.

    Returns an array of shape ``(block size, *dims)``.  Block-1 axes use
    interior differences with a zero far slot; later blocks difference
    against the ghost value 0 beyond the far face.
    """
    u = check_scalar_field(u, spec)
    ghost = block >= 2
    comps = [
        _axis_forward_diff(u, a, spec.spacing[a], ghost) for a in spec.block_axes(block)
    ]
    return np.stack(comps)


def _grad_impl(u: np.ndarray, spec: GridSpec) -> np.ndarray:
    n1 = spec.blocks[0]
    return np.stack(
        [_axis_forward_diff(u, a, spec.spacing[a], a >= n1) for a in range(spec.ndim)]
    )


def gradient(u, spec: GridSpec) -> np.ndarray:
    """Full gradient, all blocks concatenated: shape ``(ndim, *dims)``."""
    return _grad_impl(check_scalar_field(u, spec), spec)


def _div_impl(z: np.ndarray, spec: GridSpec) -> np.ndarray:
    n1 = spec.blocks[0]
    d = _axis_divergence(z[0], 0, spec.spacing[0], 0 >= n1)
    for a in range(1, spec.ndim):
        d += _axis_divergence(z[a], a, spec.spacing[a], a >= n1)
    return d


def interior_divergence(z, spec: GridSpec) -> np.ndarray:
    """Exact negative adjoint of :func:`gradient` (no boundary flux).

    Satisfies ``<gradient(u), z> + <u, interior_divergence(z)> = 0``
    exactly for every pair, in the cell-volume-weighted inner product.
    """
    return _div_impl(check_vector_field(z, spec), spec)


# -- boundary bookkeeping on the outer faces of block-1 axes ---------------


def boundary_faces(spec: GridSpec) -> list[tuple[int, int]]:
    """Ordered (axis, side) face groups; side 0 is the low end."""
    return [(a, s) for a in spec.block1_axes for s in (0, 1)]


def boundary_face_count(spec: GridSpec) -> int:
    n = 0
    for a in spec.block1_axes:
        n += 2 * int(np.prod(spec.dims)) // spec.dims[a]
    return n


_FACE_META: dict = {}


def _face_meta(spec: GridSpec):
    """Cached (axis, side slice index, offset, count, face shape) per face."""
    if spec not in _FACE_META:
        total_cells = 1
        for d in spec.dims:
            total_cells *= d
        entries = []
        pos = 0
        for a, s in boundary_faces(spec):
            n = total_cells // spec.dims[a]
            shape = tuple(d for i, d in enumerate(spec.dims) if i != a)
            entries.append((a, 0 if s == 0 else -1, pos, n, shape))
            pos += n
        _FACE_META[spec] = (tuple(entries), pos)
    return _FACE_META[spec]


def _restrict_impl(u: np.ndarray, spec: GridSpec) -> np.ndarray:
    entries, total = _face_meta(spec)
    out = np.empty(total)
    for a, edge, pos, n, _shape in entries:
        out[pos : pos + n] = u[_idx(a, edge)].ravel()
    return out


def boundary_restriction(u, spec: GridSpec) -> np.ndarray:
    """Values of the boundary-adjacent cells, flattened in face order."""
    return _restrict_impl(check_scalar_field(u, spec), spec)


def boundary_weights(spec: GridSpec) -> np.ndarray:
    """Face area per boundary entry, matching the restriction order."""
    parts = []
    for a, _s in boundary_faces(spec):
        n = int(np.prod(spec.dims)) // spec.dims[a]
        parts.append(np.full(n, spec.face_area(a)))
    return np.concatenate(parts) if parts else np.zeros(0)


def boundary_scatter(w, spec: GridSpec) -> np.ndarray:
    """Adjoint of :func:`boundary_restriction` between weighted spaces.

    Spreads a boundary field back onto adjacent cells with weight
    ``1/h_axis``, so that ``<boundary_restriction(u), w>_faces =
    <u, boundary_scatter(w)>_cells`` with face-area and cell-volume
    weights respectively.
    """
    return _scatter_impl(check_boundary_field(w, spec, name="boundary field"), spec)


def _scatter_impl(w: np.ndarray, spec: GridSpec) -> np.ndarray:
    out = np.zeros(spec.dims)
    entries, _total = _face_meta(spec)
    for a, edge, pos, n, shape in entries:
        out[_idx(a, edge)] += w[pos : pos + n].reshape(shape) / spec.spacing[a]
    return out


def sampled_normal_trace(z, spec: GridSpec) -> np.ndarray:
    """Outward normal component of the block-1 part of ``z`` at the faces.

    Sampled from the nearest stored slot: the first slot (sign flipped)
    at a low face, the far slot at a high face.  Identically zero under
    ``neumann_block1``, whose closure carries no boundary flux.
    """
    z = check_vector_field(z, spec)
    if not spec.has_trace_term:
        return np.zeros(boundary_face_count(spec))
    parts = []
    for a, s in boundary_faces(spec):
        if s == 0:
            parts.append(-z[a][_idx(a, 0)].ravel())
        else:
            parts.append(z[a][_idx(a, -1)].ravel())
    return np.concatenate(parts) if parts else np.zeros(0)


def div_blocks(z, spec: GridSpec, boundary_flux=None) -> np.ndarray:
    """Divergence with explicit boundary-flux bookkeeping.

    ``boundary_flux`` is the outward normal flux on the block-1 outer
    faces (one entry per face, restriction order).  When omitted it
    defaults to :func:`sampled_normal_trace`, so that

        <u, div_blocks(z, flux)> + <gradient(u), z> = <trace u, flux>

    holds exactly, with the right-hand side the face-area-weighted sum.
    Passing an all-zero flux recovers the pure negative adjoint.
    """
    d = interior_divergence(z, spec)
    if boundary_flux is None:
        boundary_flux = sampled_normal_trace(z, spec)
    if np.any(boundary_flux):
        d = d + boundary_scatter(boundary_flux, spec)
    return d


# -- weighted inner products and norms -------------------------------------


def inner(u, w, spec: GridSpec) -> float:
    """Cell-volume-weighted inner product of two cell or vector fields."""
    return float(np.vdot(u, w)) * spec.cell_volume


def boundary_inner(v, w, spec: GridSpec) -> float:
    """Face-area-weighted inner product of two boundary fields."""
    return float(np.sum(boundary_weights(spec) * np.asarray(v) * np.asarray(w)))


def lp_norm(u, p: float, spec: GridSpec) -> float:
    """Weighted l^p norm ``(sum |u|^p * cell_volume)^(1/p)``; p=inf is the max."""
    u = np.asarray(u)
    if np.isinf(p):
        return float(np.max(np.abs(u))) if u.size else 0.0
    return float((np.sum(np.abs(u) ** p) * spec.cell_volume) ** (1.0 / p))
