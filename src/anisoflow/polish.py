"""Active-set polish: the p = 2 optimality system solved on a guessed active set.

Where every power exponent is 2 and block 1 has one axis, the optimality
system is linear once it is known which block-1 duals sit at +-1
(Hintermueller and Kunisch, SIAM J. Appl. Math. 2004).  The guess is read
off a projected dual iterate: a block-1 link or a penalized face whose
dual is exactly +-1 is fixed at that value; a free link forces the
difference of u across it to 0, and a free face forces the trace to 0.

So u is constant on each run of cells along axis 0 joined by free links,
and a run that ends on a free face is pinned to 0.  With z_P = D u on the
power axes (D their forward differences, ghost-closed) and K = D^T D, the
sum of the cell equations over a run cancels its free multipliers and
leaves one equation per unpinned run:

    P^T (I / tau_time + K) P c = P^T (g / tau_time + div_1 z_F + scatter v0_F)

for the resolvent, and the same without the mass term and with f for g
in the elliptic, where P spreads run values onto cells and (z_F, v0_F)
holds the fixed duals (free ones 0).  The matrix is symmetric positive
definite: K is, since the ghost closure makes D injective.  Given u = P c,
the cell equations div_1 z_1 + scatter v0 = (u - g) / tau_time + K u (or
K u - f) fix the free multipliers: along a column of axis 0 the block-1
duals, with -v0 at the low face and v0 at the high face, are a
cumulative sum of the right-hand side times the spacing, anchored at the
nearest fixed value to the left, or to the right where the column starts
on a free face (in a column with no fixed value, any anchor solves the
equations, and the high face's own value is taken).  The duals are then clipped to [-1, 1], so the point is
feasible whether or not the guess was right.

D and K are kept as coordinate lists built from the grid plan's indices
once per ``GridSpec``; the kernels are not called.  No entry of the
polished point is trusted: the tracker values it with the exact dual and
primal of every other candidate.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def _operators(spec):
    """(D, K) as (rows, cols, vals): D the power-axis differences, K = D^T D.

    Row (a - n1) * n + k of D is component a of the gradient at flat cell
    k: (u[k + s] - u[k]) / h_a for the axis's flat step s, and -u[k] / h_a
    at a far slot, beyond which the ghost value is 0.
    """
    plan = spec._plan
    n = plan.n_cells
    cells = np.arange(n)
    d, k = [], []
    for a, hi, _lo, _dst, far, _out_far, ghost, h in plan.grad:
        if not ghost:
            continue
        inner = np.ones(spec.dims, dtype=bool)
        inner[far] = False
        lo = cells[inner.ravel()]
        up = lo + hi.start
        row = (a - spec.blocks[0]) * n
        d += [(row + cells, cells, np.full(n, -1.0 / h)), (row + lo, up, np.full(lo.size, 1.0 / h))]
        w, v = np.full(n, h**-2.0), np.full(lo.size, h**-2.0)
        k += [(cells, cells, w), (up, up, v), (lo, up, -v), (up, lo, -v)]
    return tuple(tuple(np.concatenate(parts) for parts in zip(*ops)) for ops in (d, k))


@np.errstate(over="ignore", invalid="ignore")
def candidate(prob, y, v0):
    """(u, z, v0) solving the optimality system on the active set of (y, v0).

    None when the reduced system is singular to working precision.  The
    entries may overflow; the caller skips a candidate that is not finite.
    """
    spec = prob.spec
    dims = spec.dims
    n0, h = dims[0], spec.spacing[0]
    n = y[0].size
    m = n // n0
    (d_rows, d_cols, d_vals), (k_rows, k_cols, k_vals) = _operators(spec)

    # ell[c] holds column c's block-1 duals: -v0 at the low face, the n0 - 1
    # links, v0 at the high face.  Under neumann_block1 the faces are fixed at 0.
    ell = np.zeros((m, n0 + 1))
    ell[:, 1:n0] = y[0, :-1].reshape(n0 - 1, m).T
    fixed = np.ones((m, n0 + 1), dtype=bool)
    fixed[:, 1:n0] = np.abs(ell[:, 1:n0]) == 1.0
    if prob.trace:
        ell[:, 0], ell[:, n0] = -v0[:m], v0[m:]
        fixed[:, 0], fixed[:, n0] = np.abs(v0[:m]) == 1.0, np.abs(v0[m:]) == 1.0

    # Cell (c, j) starts a run where the link before it is fixed; a run that
    # starts or ends on a free face is pinned.  Unknown index nk is the pin.
    starts = fixed[:, :n0].copy()
    starts[:, 0] = True
    run = np.cumsum(starts).reshape(m, n0) - 1
    keep = np.ones(run[-1, -1] + 1, dtype=bool)
    keep[run[~fixed[:, 0], 0]] = False
    keep[run[~fixed[:, n0], n0 - 1]] = False
    nk = int(np.count_nonzero(keep))
    index = np.where(keep, np.cumsum(keep) - 1, nk)
    unk = index[run].T.ravel()  # flat C-order cell -> unknown

    if prob.kind == "elliptic":
        data = prob.f.ravel()
    else:
        data = prob.g.ravel() / prob.tau_time
    fixed_ell = np.where(fixed, ell, 0.0)
    rhs = data + ((fixed_ell[:, 1:] - fixed_ell[:, :-1]) / h).T.ravel()  # + div_1 z_F + scatter v0_F
    mat = np.bincount(unk[k_rows] * (nk + 1) + unk[k_cols], k_vals, (nk + 1) ** 2)
    mat = mat.reshape(nk + 1, nk + 1)[:nk, :nk]
    if prob.kind == "resolvent":
        mat[np.diag_indices(nk)] += np.bincount(unk, minlength=nk + 1)[:nk] / prob.tau_time
    try:
        c = np.linalg.solve(mat, np.bincount(unk, rhs, nk + 1)[:nk])
    except np.linalg.LinAlgError:
        return None
    u = np.concatenate((c, [0.0]))[unk]

    z_p = np.bincount(d_rows, d_vals * u[d_cols], (spec.ndim - 1) * n)
    div = np.bincount(d_cols, d_vals * z_p[d_rows], n) - data  # K u - f, or K u - g / tau_time
    if prob.kind == "resolvent":
        div += u / prob.tau_time
    # The free duals: a cumulative sum from the nearest fixed one to the left,
    # else to the right, else from the high face's own value.
    s = np.zeros((m, n0 + 1))
    np.cumsum(div.reshape(n0, m).T * h, axis=1, out=s[:, 1:])
    pos = np.arange(n0 + 1)
    left = np.maximum.accumulate(np.where(fixed, pos, -1), axis=1)
    right = np.minimum.accumulate(np.where(fixed, pos, n0)[:, ::-1], axis=1)[:, ::-1]
    anchor = np.where(left >= 0, left, right)
    offset = (ell - s)[np.arange(m)[:, None], anchor]
    ell = np.clip(np.where(fixed, ell, s + offset), -1.0, 1.0)

    z = np.empty((spec.ndim,) + dims)
    z[0, :-1] = ell[:, 1:n0].T.reshape((n0 - 1,) + dims[1:])
    z[0, -1] = 0.0
    z[1:] = z_p.reshape((spec.ndim - 1,) + dims)
    v0_p = np.concatenate([-ell[:, 0], ell[:, n0]]) if prob.trace else None
    return u.reshape(dims), z, v0_p
