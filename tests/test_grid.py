"""Grid geometry, difference operators, and the exact adjoint identities."""

import numpy as np
import pytest

from anisoflow import GridSpec, InvalidInputError
from anisoflow.grid import (
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
    sampled_normal_trace,
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
        tr = sampled_normal_trace(z, spec)
        np.testing.assert_allclose(tr[:4], -1.5)  # low face, outward normal flips
        np.testing.assert_allclose(tr[4:], 1.5)

    def test_trace_vanishes_under_neumann(self):
        spec = make_spec("neumann_block1")
        z = np.ones((2, 4, 4))
        np.testing.assert_array_equal(sampled_normal_trace(z, spec), 0.0)


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
                flux = sampled_normal_trace(z, spec)
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
