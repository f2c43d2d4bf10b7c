"""Grid geometry, difference operators, and the exact adjoint identities."""

import numpy as np
import pytest

from anisoflow import GridSpec, InvalidInputError
from anisoflow.grid import (
    _div_impl,
    _grad_impl,
    _restrict_impl,
    _scatter_impl,
    boundary_face_count,
    boundary_faces,
    boundary_restriction,
    boundary_scatter,
    boundary_weights,
    check_boundary_field,
    check_scalar_field,
    check_vector_field,
    div_blocks,
    grad_block,
    gradient,
    inner,
    interior_divergence,
    lp_norm,
    weak_normal_trace,
)


def make_spec(mode="dirichlet_penalized"):
    return GridSpec((4, 4), (1.0, 1.0), (1, 1), (1.0, 2.0), boundary_mode=mode)


class TestGridSpec:
    def test_basic_properties(self):
        spec = GridSpec((4, 6, 2), (0.5, 1.0, 0.25), (2, 1), (1.0, 3.0))
        assert spec.ndim == 3
        assert spec.n_blocks == 2
        assert spec.cell_volume == 0.5 * 1.0 * 0.25
        assert spec.block_axes(1) == (0, 1)
        assert spec.block_axes(2) == (2,)
        assert spec.block1_axes == (0, 1)
        assert spec.last_block_length() == 2 * 0.25

    def test_face_area_is_volume_over_spacing(self):
        spec = GridSpec((4, 6), (0.5, 2.0), (1, 1), (1.0, 2.0))
        assert spec.face_area(0) == pytest.approx(2.0)
        assert spec.face_area(1) == pytest.approx(0.5)

    def test_p1_must_be_one(self):
        with pytest.raises(InvalidInputError, match="p1 must equal 1"):
            GridSpec((4, 4), (1.0, 1.0), (1, 1), (2.0, 2.0))

    def test_zero_dims_rejected(self):
        with pytest.raises(InvalidInputError):
            GridSpec((0, 4), (1.0, 1.0), (1, 1), (1.0, 2.0))

    def test_block_sum_must_match_ndim(self):
        with pytest.raises(InvalidInputError):
            GridSpec((4, 4), (1.0, 1.0), (1, 2), (1.0, 2.0))

    def test_spacing_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            GridSpec((4, 4), (1.0, -1.0), (1, 1), (1.0, 2.0))

    def test_unknown_boundary_mode(self):
        with pytest.raises(InvalidInputError):
            GridSpec((4, 4), (1.0, 1.0), (1, 1), (1.0, 2.0), boundary_mode="clamped")

    def test_error_messages_are_collected(self):
        # one failed construction reports every problem at once
        with pytest.raises(InvalidInputError) as err:
            GridSpec((0, 4), (1.0,), (1, 1), (2.0, 2.0))
        msg = str(err.value)
        assert "p1 must equal 1" in msg
        assert "spacing" in msg

    @pytest.mark.parametrize(
        "dims, blocks, what",
        [((8.7, 8), (1, 1), "dims"), ((8, 8), (1.5, 1.5), "blocks")],
    )
    def test_non_integral_dims_and_blocks_rejected(self, dims, blocks, what):
        # both used to be truncated silently, to (8, 8) and (1, 1)
        with pytest.raises(InvalidInputError, match=f"{what} entries must be integers"):
            GridSpec(dims, (1.0, 1.0), blocks, (1.0, 2.0))

    def test_integral_values_of_any_type_accepted(self):
        spec = GridSpec((8.0, np.int64(6)), (1.0, 1.0), (np.int32(1), 1.0), (1.0, 2.0))
        assert spec.dims == (8, 6) and spec.blocks == (1, 1)
        assert all(type(n) is int for n in spec.dims + spec.blocks)

    @pytest.mark.parametrize(
        "spacing",
        [(1e-160, 1e-160), (1e-200, 1e-200), (1e160, 1e160), (1e300, 1e-200, 1e-200)],
        ids=["subnormal-volume", "zero-volume", "infinite-volume", "zero-face-area"],
    )
    def test_degenerate_cell_weights_rejected(self, spacing):
        ndim = len(spacing)
        with pytest.raises(InvalidInputError, match="cell volume or face area"):
            GridSpec((4,) * ndim, spacing, (1, ndim - 1), (1.0, 2.0))

    def test_exponent_bounds(self):
        with pytest.raises(InvalidInputError):
            GridSpec((4, 4), (1.0, 1.0), (1, 1), (1.0, 1.0))
        GridSpec((4, 4), (1.0, 1.0), (1, 1), (1.0, 1.0 + 1e-5))


class TestFieldChecks:
    def test_scalar_shape_mismatch(self):
        spec = make_spec()
        with pytest.raises(InvalidInputError, match="shape"):
            check_scalar_field(np.zeros((4, 5)), spec)

    def test_scalar_nonfinite(self):
        spec = make_spec()
        bad = np.zeros((4, 4))
        bad[1, 2] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            check_scalar_field(bad, spec)

    def test_vector_shape_mismatch(self):
        spec = make_spec()
        with pytest.raises(InvalidInputError):
            check_vector_field(np.zeros((3, 4, 4)), spec)

    def test_boundary_field(self):
        spec = make_spec()
        n = boundary_face_count(spec)
        assert check_boundary_field(np.ones(n), spec).shape == (n,)
        for bad, msg in ((np.zeros(5), "shape"), (np.full(n, np.inf), "non-finite")):
            for fn in (check_boundary_field, boundary_scatter):
                with pytest.raises(InvalidInputError, match=msg):
                    fn(bad, spec)


class TestDifferences:
    def test_divergence_of_constant_block1_flux(self):
        # only the two end cells see the constant flux enter and leave
        spec = GridSpec((5,), (0.5,), (1,), (1.0,), boundary_mode="neumann_block1")
        d = interior_divergence(np.ones((1, 5)), spec)
        np.testing.assert_allclose(d, [2.0, 0.0, 0.0, 0.0, -2.0])

    def test_gradient_of_linear_field_power_block(self):
        spec = GridSpec((4, 4), (1.0, 1.0), (1, 1), (1.0, 2.0))
        u = np.tile(np.arange(4.0), (4, 1))
        g = gradient(u, spec)
        # power block axis sees the ghost 0 beyond the far face
        np.testing.assert_allclose(g[1][:, :-1], 1.0)
        np.testing.assert_allclose(g[1][:, -1], -3.0)

    def test_block1_far_slot_is_zero_in_both_modes(self):
        for mode in ("dirichlet_penalized", "neumann_block1"):
            spec = make_spec(mode)
            rng = np.random.default_rng(0)
            g = grad_block(rng.standard_normal((4, 4)), spec, 1)
            np.testing.assert_array_equal(g[0][-1, :], 0.0)

    def test_grad_block_matches_gradient_slices(self):
        spec = GridSpec((3, 4, 5), (1.0, 0.5, 2.0), (2, 1), (1.0, 4.0))
        rng = np.random.default_rng(1)
        u = rng.standard_normal((3, 4, 5))
        g = gradient(u, spec)
        np.testing.assert_array_equal(grad_block(u, spec, 1), g[:2])
        np.testing.assert_array_equal(grad_block(u, spec, 2), g[2:])

    def test_interior_divergence_is_negative_adjoint(self):
        rng = np.random.default_rng(2)
        for mode in ("dirichlet_penalized", "neumann_block1"):
            spec = GridSpec((4, 3, 5), (0.5, 1.0, 0.25), (1, 2), (1.0, 2.5), boundary_mode=mode)
            for _ in range(20):
                u = rng.standard_normal(spec.dims)
                z = rng.standard_normal((3,) + spec.dims)
                lhs = inner(u, interior_divergence(z, spec), spec)
                rhs = float(np.vdot(gradient(u, spec), z)) * spec.cell_volume
                assert lhs + rhs == pytest.approx(0.0, abs=1e-12 * (1 + abs(lhs)))


class TestBoundary:
    def test_face_order_and_count(self):
        spec = GridSpec((3, 4, 5), (1.0, 1.0, 1.0), (2, 1), (1.0, 2.0))
        assert boundary_faces(spec) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert boundary_face_count(spec) == 2 * 20 + 2 * 15

    def test_restriction_picks_edge_cells(self):
        spec = make_spec()
        u = np.arange(16.0).reshape(4, 4)
        b = boundary_restriction(u, spec)
        np.testing.assert_array_equal(b[:4], u[0])
        np.testing.assert_array_equal(b[4:], u[-1])

    def test_weights_are_face_areas(self):
        spec = GridSpec((4, 6), (0.5, 2.0), (1, 1), (1.0, 2.0))
        w = boundary_weights(spec)
        assert w.shape == (12,)
        np.testing.assert_allclose(w, 2.0)

    def test_weights_are_read_only(self):
        # the grid's own array, shared by every later solve on it
        spec = GridSpec((4, 6), (0.5, 2.0), (1, 1), (1.0, 2.0))
        w = boundary_weights(spec)
        assert w is boundary_weights(spec)
        with pytest.raises(ValueError):
            w[0] = 0.0
        with pytest.raises(ValueError):
            w *= 2.0
        np.testing.assert_array_equal(boundary_weights(spec), 2.0)

    def test_scatter_is_weighted_adjoint_of_restriction(self):
        rng = np.random.default_rng(3)
        spec = GridSpec((4, 3, 5), (0.5, 1.0, 0.25), (2, 1), (1.0, 2.0))
        for _ in range(20):
            u = rng.standard_normal(spec.dims)
            w = rng.standard_normal(boundary_face_count(spec))
            faces = float(np.sum(boundary_weights(spec) * boundary_restriction(u, spec) * w))
            cells = inner(u, boundary_scatter(w, spec), spec)
            assert faces == pytest.approx(cells, rel=1e-12)

    def test_scatter_shape_validation(self):
        spec = make_spec()
        with pytest.raises(InvalidInputError):
            boundary_scatter(np.zeros(5), spec)

    def test_sampled_trace_signs(self):
        spec = make_spec()
        z = np.zeros((2, 4, 4))
        z[0] = 1.5
        tr = weak_normal_trace(z, spec)
        np.testing.assert_allclose(tr[:4], -1.5)  # low face, outward normal flips
        np.testing.assert_allclose(tr[4:], 1.5)

    def test_trace_vanishes_under_neumann(self):
        spec = make_spec("neumann_block1")
        z = np.ones((2, 4, 4))
        np.testing.assert_array_equal(weak_normal_trace(z, spec), 0.0)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(_bits(actual), _bits(expected))


def _ref_grad(u, spec):
    # per-axis forward differences, written out as np.diff
    parts = []
    for a in range(spec.ndim):
        h, ghost = spec.spacing[a], a >= spec.blocks[0]
        g = np.zeros_like(u)
        g[(slice(None),) * a + (slice(None, -1),)] = np.diff(u, axis=a) / h
        if ghost:
            g[(slice(None),) * a + (-1,)] = -u[(slice(None),) * a + (-1,)] / h
        parts.append(g)
    return np.stack(parts)


def _ref_div(z, spec):
    total = None
    for a in range(spec.ndim):
        h, ghost = spec.spacing[a], a >= spec.blocks[0]
        d = z[a].copy()
        if not ghost:
            d[(slice(None),) * a + (-1,)] = 0.0
        d[(slice(None),) * a + (slice(1, None),)] -= z[a][(slice(None),) * a + (slice(None, -1),)]
        d = d / h
        total = d if total is None else total + d
    return total


def _ref_restrict(u, spec):
    parts = []
    for a, s in boundary_faces(spec):
        parts.append(u[(slice(None),) * a + (0 if s == 0 else -1,)].ravel())
    return np.concatenate(parts)


def _ref_scatter(w, spec):
    out = np.zeros(spec.dims)
    pos = 0
    for a, s in boundary_faces(spec):
        sl = (slice(None),) * a + (0 if s == 0 else -1,)
        n = out[sl].size
        out[sl] += w[pos : pos + n].reshape(out[sl].shape) / spec.spacing[a]
        pos += n
    return out


class TestKernelBuffers:
    """The out= forms write every slot and match the allocating forms bitwise.

    Buffers start as NaN, so a slot the kernel never writes shows.  The
    last axis runs over widths 2..17; width 8 gives 64-byte strides on
    its last-column views.
    """

    @pytest.mark.parametrize("mode", ["dirichlet_penalized", "neumann_block1"])
    @pytest.mark.parametrize("h", [1.0, 0.5, (2.0, 0.5)])
    def test_out_forms_match_reference(self, mode, h):
        rng = np.random.default_rng(6)
        for lead, blocks in [((3,), (1, 1)), ((3, 4), (1, 2)), ((2, 3), (2, 1))]:
            for n in range(2, 18):
                dims = lead + (n,)
                if isinstance(h, tuple):
                    spacing = tuple(h[i % 2] for i in range(len(dims)))
                else:
                    spacing = (h,) * len(dims)
                exps = (1.0,) + (2.0,) * (len(blocks) - 1)
                spec = GridSpec(dims, spacing, blocks, exps, boundary_mode=mode)
                u = rng.standard_normal(dims)
                z = rng.standard_normal((spec.ndim,) + dims)
                w = rng.standard_normal(boundary_face_count(spec))
                nan = np.full((spec.ndim,) + dims, np.nan)
                buf = nan.copy()
                g = _grad_impl(u, spec, out=buf)
                assert g is buf
                assert_bitwise(g, _grad_impl(u, spec))
                assert_bitwise(g, _ref_grad(u, spec))
                buf = nan[0].copy()
                d = _div_impl(z, spec, out=buf, scratch=nan[0].copy())
                assert d is buf
                assert_bitwise(d, _div_impl(z, spec))
                assert_bitwise(d, _ref_div(z, spec))
                buf = np.full(w.shape, np.nan)
                r = _restrict_impl(u, spec, out=buf)
                assert r is buf
                assert_bitwise(r, _restrict_impl(u, spec))
                if w.size:
                    assert_bitwise(r, _ref_restrict(u, spec))
                buf = nan[0].copy()
                sc = _scatter_impl(w, spec, out=buf)
                assert sc is buf
                assert_bitwise(sc, _scatter_impl(w, spec))
                assert_bitwise(sc, _ref_scatter(w, spec))


class TestGaussGreen:
    def test_div_blocks_closes_the_identity(self):
        # <u, div z> + <grad u, z> equals the boundary pairing exactly
        rng = np.random.default_rng(4)
        specs = [
            GridSpec((4, 4), (1.0, 1.0), (1, 1), (1.0, 2.0)),
            GridSpec((4, 4), (0.5, 0.25), (1, 1), (1.0, 3.0), boundary_mode="neumann_block1"),
            GridSpec((3, 4, 2), (1.0, 0.5, 2.0), (2, 1), (1.0, 2.0)),
        ]
        for spec in specs:
            for _ in range(10):
                u = rng.standard_normal(spec.dims)
                z = rng.standard_normal((spec.ndim,) + spec.dims)
                lhs = inner(u, div_blocks(z, spec), spec)
                pair = float(np.vdot(gradient(u, spec), z)) * spec.cell_volume
                flux = weak_normal_trace(z, spec)
                bnd = float(
                    np.sum(boundary_weights(spec) * flux * boundary_restriction(u, spec))
                )
                assert lhs + pair - bnd == pytest.approx(0.0, abs=1e-11 * (1 + abs(lhs)))

    def test_custom_boundary_flux(self):
        spec = make_spec()
        rng = np.random.default_rng(5)
        z = rng.standard_normal((2, 4, 4))
        flux = rng.standard_normal(boundary_face_count(spec))
        d = div_blocks(z, spec, boundary_flux=flux)
        expected = interior_divergence(z, spec) + boundary_scatter(flux, spec)
        np.testing.assert_allclose(d, expected, rtol=0, atol=0)


class TestNorms:
    def test_lp_norm_values(self):
        spec = GridSpec((2, 2), (0.5, 0.5), (1, 1), (1.0, 2.0))
        u = np.array([[3.0, 0.0], [0.0, -4.0]])
        assert lp_norm(u, 1, spec) == pytest.approx(7.0 * 0.25)
        assert lp_norm(u, 2, spec) == pytest.approx(np.sqrt(25.0 * 0.25))
        assert lp_norm(u, np.inf, spec) == pytest.approx(4.0)

    def test_inner_uses_cell_volume(self):
        spec = GridSpec((2, 3), (0.5, 2.0), (1, 1), (1.0, 2.0))
        u = np.ones((2, 3))
        assert inner(u, u, spec) == pytest.approx(6.0)
