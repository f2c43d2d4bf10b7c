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

The unvalidated kernels behind the public operators (``_grad_impl``,
``_div_impl``, ``_restrict_impl``, ``_scatter_impl``) take an optional
``out``: a C-contiguous float64 array of the result's shape, which is
overwritten and returned; without it they allocate the result.
``_div_impl`` also takes ``scratch``, a ``dims``-shaped buffer for the
axis terms after the first.  Buffers must not overlap the input.  With
or without them every entry comes from the same floating-point
operations in the same order, so the results are bitwise equal.

The kernels run from one plan per grid (``GridSpec._plan``), built on
first use and kept on the instance, so no call rebuilds an index or
hashes the spec.  Per axis it holds the flat slices of the shifted
differences, the index tuples of the far, first and second-to-last
slots, the spacing and the ghost flag.  For the faces it holds the flat
cell index of every face in restriction order, the spacing of each
face's axis and the face weights, which :func:`boundary_weights`
returns read-only to every caller.  The restriction is one ``take`` over
those indices; the scatter is one ``bincount`` over the same indices,
which adds the face terms into zeroed cells in face order, so a cell
shared by faces 1 and 2 gets (0 + t1) + t2, the sum of a face-by-face
loop.  The plan holds indices and constants only, never functions, so
replacing a kernel's module attribute still intercepts every call.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

BOUNDARY_MODES = ("dirichlet_penalized", "neumann_block1")

# Conjugate exponents are kept away from 1 so the dual power prox stays
# well posed; p <= _P_MAX is equivalent to p' >= 1 + 1e-6.
_P_MAX = 1.0 + 1e6
_P_MIN = 1.0 + 1e-6


def _integers(values, name: str, errs: list) -> tuple[int, ...]:
    """``values`` as ints, a non-integral entry reported in ``errs``.

    Reported entries are truncated (0 when they have no integer part) so
    that the remaining checks still run.
    """
    values = tuple(values)
    out = []
    for v in values:
        try:
            out.append(int(v))
        except (TypeError, ValueError, OverflowError):
            out.append(0)
    if any(n != v for n, v in zip(out, values)):
        errs.append(f"{name} entries must be integers, got {values}")
    return tuple(out)


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
        errs = []
        object.__setattr__(self, "dims", _integers(self.dims, "dims", errs))
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))
        object.__setattr__(self, "blocks", _integers(self.blocks, "blocks", errs))
        object.__setattr__(self, "exponents", tuple(float(p) for p in self.exponents))
        if len(self.dims) < 1:
            errs.append("dims must name at least one axis")
        if any(d < 2 for d in self.dims):
            errs.append(f"every axis needs at least 2 cells, got dims={self.dims}")
        if len(self.spacing) != len(self.dims):
            errs.append("spacing must have one entry per axis")
        elif any(not (h > 0.0 and math.isfinite(h)) for h in self.spacing):
            errs.append(f"spacing entries must be positive finite, got {self.spacing}")
        else:
            with np.errstate(over="ignore"):
                weights = [self.cell_volume] + [self.face_area(a) for a in range(self.ndim)]
            if not all(sys.float_info.min <= w < math.inf for w in weights):
                errs.append(
                    f"spacing {self.spacing} gives a cell volume or face area that is "
                    f"zero, subnormal or infinite"
                )
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
        return math.prod(self.spacing)

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

    @functools.cached_property
    def _plan(self) -> _Plan:
        # cached_property writes the instance dict, not a field: it works
        # on the frozen dataclass and leaves equality and hashing alone
        return _Plan(self)


class _Plan:
    """One grid's kernel plan (module docstring).  ``grad`` and ``div`` hold
    a tuple per axis, unpacked by name in their kernels; ``face_h`` is
    None when every face spacing is 1."""

    def __init__(self, spec: GridSpec):
        dims = spec.dims
        n = math.prod(dims)
        self.vshape = (len(dims),) + dims
        self.n_cells = n
        self.grad, self.div = [], []
        for a, h in enumerate(spec.spacing):
            s = math.prod(dims[a + 1 :])  # one step along axis a on the flat array
            pre = (slice(None),) * a
            # An integer index gives a view without the length-1 axis, which
            # the ufuncs run faster; the Ellipsis keeps it a view on 1-D grids.
            far, first = pre + (-1, ...), pre + (0, ...)
            ghost = a >= spec.blocks[0]
            # component a of a flat vector field, less its last / first s cells
            head, tail = slice(a * n, (a + 1) * n - s), slice(a * n + s, (a + 1) * n)
            self.grad.append((a, slice(s, None), slice(None, n - s), head, far, (a,) + far, ghost, h))
            self.div.append(
                (a, tail, head, slice(s, None), first, (a,) + first,
                 (a,) + pre + (-2, ...), far, ghost, h)
            )
        cells = np.arange(n).reshape(dims)
        faces = boundary_faces(spec)
        counts = [n // dims[a] for a, _s in faces]
        self.gather = np.concatenate(
            [cells[(slice(None),) * a + (0 if s == 0 else -1,)].ravel() for a, s in faces]
        )
        self.n_faces = self.gather.size
        face_h = np.repeat([spec.spacing[a] for a, _s in faces], counts)
        self.face_h = face_h if np.any(face_h != 1.0) else None
        self.face_weights = np.repeat([spec.face_area(a) for a, _s in faces], counts)
        self.face_weights.flags.writeable = False


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


def grad_block(u, spec: GridSpec, block: int) -> np.ndarray:
    """Forward-difference gradient restricted to one 1-based block.

    Returns the block's slice of :func:`gradient`, of shape
    ``(block size, *dims)``: block-1 axes use interior differences with
    a zero far slot, later blocks difference against the ghost value 0
    beyond the far face.
    """
    axes = spec.block_axes(block)
    return gradient(u, spec)[axes[0] : axes[-1] + 1]


def _grad_impl(u: np.ndarray, spec: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    plan = spec._plan
    if out is None:
        out = np.empty(plan.vshape)
    flat, flat_out = u.reshape(-1), out.reshape(-1)
    for a, hi, lo, dst, far, out_far, ghost, h in plan.grad:
        # The flat cells hi and lo lie one step along axis a apart; the
        # steps that wrap into the next row land on the far slots, which
        # the closure overwrites.
        np.subtract(flat[hi], flat[lo], out=flat_out[dst])
        if ghost:
            # ghost value 0 beyond the far face; np.negative misreads some
            # strided views, the multiplication is the same negation
            np.multiply(u[far], -1.0, out=out[out_far])
        else:
            out[out_far] = 0.0
        if h != 1.0:  # x / 1.0 == x
            g = out[a]
            np.divide(g, h, out=g)
    return out


def gradient(u, spec: GridSpec) -> np.ndarray:
    """Full gradient, all blocks concatenated: shape ``(ndim, *dims)``."""
    return _grad_impl(check_scalar_field(u, spec), spec)


def _div_impl(
    z: np.ndarray,
    spec: GridSpec,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    # Exact negative transpose of _grad_impl, axis by axis:
    # d_j = (z_j - z_{j-1})/h with z_{-1} = 0, and without the ghost
    # closure the far slot is dead weight (d_last = (0 - z_{last-1})/h).
    # The flat steps that wrap land on the first slots, which are then
    # set.  The axis terms are summed in axis order; axes after the
    # first pass through `scratch`.
    plan = spec._plan
    if out is None:
        out = np.empty(spec.dims)
    if scratch is None and spec.ndim > 1:
        scratch = np.empty(spec.dims)
    flat = z.reshape(-1)
    for a, hi, lo, dst, first, z_first, z_before_far, far, ghost, h in plan.div:
        d = out if a == 0 else scratch
        np.subtract(flat[hi], flat[lo], out=d.reshape(-1)[dst])
        d[first] = z[z_first]
        if not ghost:
            np.subtract(0.0, z[z_before_far], out=d[far])
        if h != 1.0:
            np.divide(d, h, out=d)
        if a:
            out += d
    return out


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
    return spec._plan.n_faces


def _restrict_impl(u: np.ndarray, spec: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    # every index is in range, so the mode only spares take its buffered copy
    return u.take(spec._plan.gather, out=out, mode="wrap")


def boundary_restriction(u, spec: GridSpec) -> np.ndarray:
    """Values of the boundary-adjacent cells, flattened in face order."""
    return _restrict_impl(check_scalar_field(u, spec), spec)


def boundary_weights(spec: GridSpec) -> np.ndarray:
    """Face area per boundary entry, matching the restriction order.

    The array is the grid's own and read-only.
    """
    return spec._plan.face_weights


def boundary_scatter(w, spec: GridSpec) -> np.ndarray:
    """Adjoint of :func:`boundary_restriction` between weighted spaces.

    Spreads a boundary field back onto adjacent cells with weight
    ``1/h_axis``, so that ``<boundary_restriction(u), w>_faces =
    <u, boundary_scatter(w)>_cells`` with face-area and cell-volume
    weights respectively.
    """
    return _scatter_impl(check_boundary_field(w, spec, name="boundary field"), spec)


def _scatter_impl(w: np.ndarray, spec: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    plan = spec._plan
    terms = w if plan.face_h is None else w / plan.face_h
    total = np.bincount(plan.gather, terms, plan.n_cells).reshape(spec.dims)
    if out is None:
        return total
    np.copyto(out, total)
    return out


def weak_normal_trace(z, spec: GridSpec) -> np.ndarray:
    """Outward normal component of the block-1 part of ``z`` at the faces.

    Sampled from the nearest stored slot: the first slot (sign flipped)
    at a low face, the far slot at a high face.  Identically zero under
    ``neumann_block1``, whose closure carries no boundary flux.  Its sup
    never exceeds the per-cell sup of ||z1||.
    """
    z = check_vector_field(z, spec)
    if not spec.has_trace_term:
        return np.zeros(boundary_face_count(spec))
    parts = []
    for a, s in boundary_faces(spec):
        face = z[a][(slice(None),) * a + (0 if s == 0 else -1,)].ravel()
        parts.append(face if s else -face)
    return np.concatenate(parts)


def div_blocks(z, spec: GridSpec, boundary_flux=None) -> np.ndarray:
    """Divergence with explicit boundary-flux bookkeeping.

    ``boundary_flux`` is the outward normal flux on the block-1 outer
    faces (one entry per face, restriction order).  When omitted it
    defaults to :func:`weak_normal_trace`, so that

        <u, div_blocks(z, flux)> + <gradient(u), z> = <trace u, flux>

    holds exactly, with the right-hand side the face-area-weighted sum.
    Passing an all-zero flux recovers the pure negative adjoint.
    """
    d = interior_divergence(z, spec)
    if boundary_flux is None:
        boundary_flux = weak_normal_trace(z, spec)
    if np.any(boundary_flux):
        d = d + boundary_scatter(boundary_flux, spec)
    return d


# -- weighted inner products and norms -------------------------------------


def inner(u, w, spec: GridSpec) -> float:
    """Cell-volume-weighted inner product of two cell or vector fields."""
    return float(np.vdot(u, w)) * spec.cell_volume


def lp_norm(u, p: float, spec: GridSpec) -> float:
    """Weighted l^p norm ``(sum |u|^p * cell_volume)^(1/p)``; p=inf is the max."""
    u = np.asarray(u)
    if np.isinf(p):
        return float(np.max(np.abs(u))) if u.size else 0.0
    return float((np.sum(np.abs(u) ** p) * spec.cell_volume) ** (1.0 / p))
