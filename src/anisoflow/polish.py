"""Active-set polish: the p = 2 optimality system solved by active-set rounds.

Where every power exponent is 2 and block 1 has one axis, the optimality
system is linear once it is known which block-1 duals sit at +-1
(Hintermueller and Kunisch, SIAM J. Appl. Math. 2004).  The first guess
is read off a projected dual iterate: a block-1 link or a penalized face
whose dual is exactly +-1 is fixed at that value; a free link forces the
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
equations, and the high face's own value is taken).

Each solve is one round of the primal-dual active-set strategy
(Hintermueller, Ito and Kunisch, SIAM J. Optim. 2002): a free link or
face whose recovered dual leaves [-1, 1] is fixed at its sign, and a
fixed one whose dual has the wrong sign against the jump of u across it
(z * (u_next - u_prev) < 0, with u = 0 beyond the faces) is released.
The rounds stop once an update changes nothing (the point then solves
the optimality system), when an active set comes back, after _ROUNDS
rounds, or at a round whose solve fails, and the last solved point is
offered with its duals clipped to [-1, 1], so it is feasible whether or
not the set was right.

A reduced system of at most _DENSE_UNKNOWNS unknowns is solved densely.
A larger one is solved by conjugate gradients preconditioned with its
diagonal, started from the previous round's u (the iterate's in the
first round), without forming the matrix: the product spreads the
unknowns onto cells, applies K along each power axis with the grid
plan's slices, and sums each run back with a ``bincount``.  The dense
path keeps K as coordinate lists; both are built once per ``GridSpec``
from the plan's indices, and no kernel is called.  No entry of the
polished point is trusted: the tracker values it with the exact dual
and primal of every other candidate.
"""

from __future__ import annotations

import functools

import numpy as np

# Reduced systems up to this size are solved densely: there a factorization
# is cheaper than the Python overhead of CG iterations, and below about 100
# unknowns a threaded LU does not yet stall.
_DENSE_UNKNOWNS = 64
# Active-set rounds per polish, and the relative residual at which CG stops.
_ROUNDS = 8
_CG_RTOL = 1e-12


@functools.cache
def _operators(spec):
    """(axes, diagonal, K): the power-axis operators of ``spec``.

    ``axes`` holds per power axis the plan's flat slices of the cells one
    step apart (hi, lo), its far and first slot indices and 1/h, for the
    matrix-free products.  K = D^T D is a coordinate list (rows, cols,
    vals) for the dense path, and ``diagonal`` its diagonal per cell for
    the CG preconditioner.
    """
    plan = spec._plan
    n = plan.n_cells
    cells = np.arange(n)
    axes, k = [], []
    for (a, hi, lo, _dst, far, _out_far, ghost, h), div in zip(plan.grad, plan.div):
        if not ghost:
            continue
        axes.append((hi, lo, far, div[4], 1.0 / h))
        inner = np.ones(spec.dims, dtype=bool)
        inner[far] = False
        low = cells[inner.ravel()]
        up = low + hi.start
        w, v = np.full(n, h**-2.0), np.full(low.size, h**-2.0)
        k += [(cells, cells, w), (up, up, v), (low, up, -v), (up, low, -v)]
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*k))
    return axes, np.bincount(rows, np.where(rows == cols, vals, 0.0), n), (rows, cols, vals)


def _grad(axes, dims, u):
    """D u for a flat cell field u: one row per power axis."""
    out = np.empty((len(axes), u.size))
    for w, (hi, lo, far, _first, inv_h) in zip(out, axes):
        np.subtract(u[hi], u[lo], out=w[lo])
        # np.negative misreads some strided views; the product is the same
        np.multiply(u.reshape(dims)[far], -1.0, out=w.reshape(dims)[far])
        if inv_h != 1.0:
            w *= inv_h
    return out


def _kernel(axes, dims, u):
    """K u = D^T D u for a flat cell field u."""
    out = None
    for w, (hi, lo, _far, first, inv_h) in zip(_grad(axes, dims, u), axes):
        t = np.empty(u.size)
        np.subtract(w[lo], w[hi], out=t[hi])
        np.multiply(w.reshape(dims)[first], -1.0, out=t.reshape(dims)[first])
        if inv_h != 1.0:
            t *= inv_h
        out = t if out is None else np.add(out, t, out=out)
    return out


def _pcg(apply, b, diag, x):
    """x solving apply(x) = b by diagonally preconditioned CG, or None.

    Starts from x (overwritten) and stops at relative residual _CG_RTOL;
    None if it does not get there within len(b) steps.
    """
    bound = _CG_RTOL * np.linalg.norm(b)
    r = b - apply(x)
    z = r / diag
    p = z.copy()
    rz = np.dot(r, z)
    for _ in range(b.size):
        if not np.linalg.norm(r) > bound:  # NaN stops too; the caller checks finiteness
            return x
        ap = apply(p)
        alpha = rz / np.dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        np.divide(r, diag, out=z)
        rz, rz_old = np.dot(r, z), rz
        p *= rz / rz_old
        p += z
    return None


def _round(prob, ops, data, ell, fixed, u):
    """(u, duals) solving the optimality system on the active set, or None.

    ``fixed`` marks the slots of ``ell`` held at their value; ``duals`` is
    ell with the free slots recovered, not clipped.  The flat u starts the
    CG.  None where the solve fails or the point is not finite.
    """
    axes, k_diag, (k_rows, k_cols, k_vals) = ops
    spec = prob.spec
    dims = spec.dims
    n0, h = dims[0], spec.spacing[0]
    n = u.size
    m = n // n0
    tau = prob.tau_time if prob.kind == "resolvent" else np.inf  # no mass term: u / inf = 0

    # Cell j of a column starts a run where slot j before it is fixed, and
    # cell 0 always.  Numbered column by column, run r spans the cells of
    # the transposed grid from start[r] on, between its low slot and its
    # high slot (flat indices into the (n0 + 1, m) slot arrays).  Both are
    # fixed links unless they are faces; a run that ends on a free face is
    # pinned to 0, and its cells get the unknown index nk.
    starts = fixed[:n0].T.copy()
    starts[:, 0] = True
    start = np.flatnonzero(starts)
    length = np.diff(start, append=n)
    col, j0 = np.divmod(start, n0)
    low = j0 * m + col
    high = low + length * m
    run = np.repeat(np.arange(start.size), length).reshape(m, n0).T
    flat_fixed = fixed.ravel()
    keep = flat_fixed[low] & flat_fixed[high]
    nk = int(np.count_nonzero(keep))
    unk = np.where(keep, np.cumsum(keep) - 1, nk)[run].ravel()

    rhs = data + (np.diff(ell * fixed, axis=0) / h).ravel()  # + div_1 z_F + scatter v0_F
    b = np.bincount(unk, rhs, nk + 1)[:nk]
    count = length[keep]
    mass = count / tau  # P^T P / tau_time, diagonal: the runs do not overlap
    if nk <= _DENSE_UNKNOWNS:
        mat = np.bincount(unk[k_rows] * (nk + 1) + unk[k_cols], k_vals, (nk + 1) ** 2)
        mat = mat.reshape(nk + 1, nk + 1)[:nk, :nk]
        mat[np.diag_indices(nk)] += mass
        try:
            c = np.linalg.solve(mat, b)
        except np.linalg.LinAlgError:
            return None
    else:
        ext = np.zeros(nk + 1)

        def apply(x):
            ext[:nk] = x
            return np.bincount(unk, _kernel(axes, dims, ext[unk]), nk + 1)[:nk] + mass * x

        diag = np.bincount(unk, k_diag, nk + 1)[:nk] + mass
        c = _pcg(apply, b, diag, np.bincount(unk, u, nk + 1)[:nk] / count)
        if c is None:
            return None
    u = np.append(c, 0.0)[unk]

    # The free duals: a cumulative sum along each column, offset on each run
    # to its low slot where that is fixed, else to its high slot (in a column
    # with no fixed slot, the high face's own value).
    s = np.zeros((n0 + 1, m))
    np.cumsum(((_kernel(axes, dims, u) + u / tau - data) * h).reshape(n0, m), axis=0, out=s[1:])
    d = (ell - s).ravel()
    offset = np.where(flat_fixed[low], d[low], d[high])
    s[:n0] += offset[run]
    s[n0] += offset[run[-1]]
    duals = np.where(fixed, ell, s)
    if not (np.isfinite(u).all() and np.isfinite(duals).all()):
        return None
    return u, duals


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def candidate(prob, u, y, v0):
    """(u, z, v0) from active-set rounds started at the active set of (y, v0).

    ``u`` is the iterate, where the first round's CG starts.  None when
    the first round fails.
    """
    spec = prob.spec
    dims = spec.dims
    n0 = dims[0]
    m = u.size // n0
    ops = _operators(spec)
    data = prob.f.ravel() if prob.kind == "elliptic" else prob.g.ravel() / prob.tau_time

    # ell[:, c] holds column c's block-1 duals: -v0 at the low face, the
    # n0 - 1 links, v0 at the high face.  Under neumann_block1 the faces are
    # fixed at 0.
    ell = np.zeros((n0 + 1, m))
    ell[1:n0] = y[0, :-1].reshape(n0 - 1, m)
    fixed = np.ones((n0 + 1, m), dtype=bool)
    fixed[1:n0] = np.abs(ell[1:n0]) == 1.0
    if prob.trace:
        ell[0], ell[n0] = -v0[:m], v0[m:]
        fixed[0], fixed[n0] = np.abs(v0[:m]) == 1.0, np.abs(v0[m:]) == 1.0

    point, seen = None, set()
    u = u.ravel()
    for _ in range(_ROUNDS):
        key = np.packbits(fixed).tobytes() + np.packbits(fixed & (ell > 0.0)).tobytes()
        if key in seen:
            break
        seen.add(key)
        solved = _round(prob, ops, data, ell, fixed, u)
        if solved is None:
            break
        point = u, duals = solved
        # Fix a free slot whose dual leaves [-1, 1] at its sign; release a
        # fixed one whose sign disagrees with the jump of u across it (u = 0
        # beyond both faces).  A neumann face holds 0 and is never released.
        jump = np.diff(u.reshape(n0, m), axis=0, prepend=0.0, append=0.0)
        leaves = np.flatnonzero(~fixed & (np.abs(duals) > 1.0))
        fixed = fixed & (ell * jump >= 0.0)
        fixed.flat[leaves] = True
        ell.flat[leaves] = np.sign(duals.flat[leaves])
    if point is None:
        return None
    u, duals = point
    duals = np.clip(duals, -1.0, 1.0)
    z = np.empty((spec.ndim,) + dims)
    z[0, :-1] = duals[1:n0].reshape((n0 - 1,) + dims[1:])
    z[0, -1] = 0.0
    z[1:] = _grad(ops[0], dims, u).reshape((spec.ndim - 1,) + dims)
    v0_p = np.concatenate([-duals[0], duals[n0]]) if prob.trace else None
    return u.reshape(dims), z, v0_p
