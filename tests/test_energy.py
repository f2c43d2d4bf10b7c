"""Energy terms: linear-growth part, power parts, boundary penalty, coarea."""

import numpy as np
import pytest

from anisoflow import GridSpec, InvalidInputError
from anisoflow.energy import (
    EnergyBreakdown,
    coarea_check,
    eval_F,
    eval_J,
    poincare_check,
    tv_block1,
)
from anisoflow.grid import boundary_restriction, grad_block


def spec44(mode="dirichlet_penalized", p2=2.0):
    return GridSpec((4, 4), (1.0, 1.0), (1, 1), (1.0, p2), boundary_mode=mode)


class TestTvBlock1:
    def test_half_indicator_has_tv_four(self):
        spec = spec44("neumann_block1")
        u = np.zeros((4, 4))
        u[2:, :] = 1.0
        assert tv_block1(u, spec) == pytest.approx(4.0)

    def test_constant_field_has_zero_tv(self):
        spec = spec44("neumann_block1")
        assert tv_block1(np.full((4, 4), 7.0), spec) == 0.0

    def test_l1_versus_euclidean_on_single_axis_agree(self):
        spec = spec44()
        rng = np.random.default_rng(0)
        u = rng.standard_normal((4, 4))
        # one block-1 axis: the per-cell norms coincide
        assert tv_block1(u, spec, norm="l1") == pytest.approx(tv_block1(u, spec))

    def test_positive_homogeneity(self):
        spec = GridSpec((4, 3, 2), (1.0, 0.5, 1.0), (2, 1), (1.0, 2.0))
        rng = np.random.default_rng(1)
        u = rng.standard_normal(spec.dims)
        assert tv_block1(3.0 * u, spec) == pytest.approx(3.0 * tv_block1(u, spec))

    def test_unknown_norm_rejected(self):
        with pytest.raises(InvalidInputError):
            tv_block1(np.zeros((4, 4)), spec44(), norm="huber")


class TestPowerTerm:
    def test_scaling_is_p_homogeneous(self):
        spec = spec44(p2=3.0)
        rng = np.random.default_rng(2)
        u = rng.standard_normal((4, 4))
        assert eval_F(2.0 * u, spec).power_terms[0] == pytest.approx(
            2.0**3 * eval_F(u, spec).power_terms[0], rel=1e-12
        )

    def test_linear_field_value(self):
        # u = x along the power axis: interior slopes 1, ghost slope -2
        spec = GridSpec((2, 3), (1.0, 1.0), (1, 1), (1.0, 2.0))
        u = np.tile(np.arange(3.0), (2, 1))
        # per row the axis-1 gradients are [1, 1, -2]: sum m^2/2 = 3 per row
        assert eval_F(u, spec).power_terms[0] == pytest.approx(6.0)


class TestBoundaryTerm:
    def test_constant_one_pays_the_perimeter(self):
        assert eval_F(np.ones((4, 4)), spec44()).boundary_term == pytest.approx(8.0)

    def test_neumann_mode_has_no_boundary_term(self):
        assert eval_F(np.ones((4, 4)), spec44("neumann_block1")).boundary_term == 0.0

    def test_scales_with_face_area(self):
        spec = GridSpec((4, 4), (1.0, 0.5), (1, 1), (1.0, 2.0))
        assert eval_F(np.ones((4, 4)), spec).boundary_term == pytest.approx(4.0)


class TestBreakdown:
    def test_total_is_exact_sum(self):
        bd = EnergyBreakdown(
            tv_block1=1.5, power_terms=(0.25, 0.125), boundary_term=2.0, source_term=-1.0
        )
        assert bd.total == 1.5 + 0.25 + 0.125 + 2.0 - 1.0

    def test_eval_F_matches_term_functions(self):
        spec = spec44()
        rng = np.random.default_rng(3)
        u = rng.standard_normal((4, 4))
        bd = eval_F(u, spec)
        # unit spacing: unit cell volume and face areas
        assert bd.tv_block1 == pytest.approx(tv_block1(u, spec))
        assert bd.power_terms[0] == pytest.approx(0.5 * np.sum(grad_block(u, spec, 2) ** 2))
        assert bd.boundary_term == pytest.approx(np.sum(np.abs(boundary_restriction(u, spec))))
        assert bd.source_term == 0.0

    def test_eval_J_subtracts_source_pairing(self):
        spec = spec44()
        rng = np.random.default_rng(4)
        u = rng.standard_normal((4, 4))
        f = rng.standard_normal((4, 4))
        bd = eval_J(u, f, spec)
        assert bd.source_term == pytest.approx(-float(np.vdot(f, u)) * spec.cell_volume)
        assert bd.total == pytest.approx(eval_F(u, spec).total + bd.source_term)

    def test_eval_F_is_convex_along_segments(self):
        spec = spec44(p2=3.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rng.standard_normal((4, 4))
            v = rng.standard_normal((4, 4))
            mid = eval_F(0.5 * (u + v), spec).total
            assert mid <= 0.5 * (eval_F(u, spec).total + eval_F(v, spec).total) + 1e-12


class TestCoarea:
    def test_integer_fields_decompose_exactly(self):
        rng = np.random.default_rng(6)
        spec = spec44("neumann_block1")
        for _ in range(25):
            u = rng.integers(-3, 4, size=(4, 4)).astype(float)
            chk = coarea_check(u, spec)
            assert chk.gap <= 1e-10 * (1.0 + abs(chk.lhs))

    def test_l1_norm_multi_axis_block(self):
        spec = GridSpec((3, 3, 2), (1.0, 1.0, 1.0), (2, 1), (1.0, 2.0))
        rng = np.random.default_rng(7)
        u = rng.integers(0, 3, size=(3, 3, 2)).astype(float)
        chk = coarea_check(u, spec, norm="l1")
        assert chk.gap <= 1e-10 * (1.0 + abs(chk.lhs))

    def test_constant_field_is_trivially_exact(self):
        chk = coarea_check(np.full((4, 4), 2.0), spec44("neumann_block1"))
        assert chk.lhs == 0.0
        assert chk.rhs == 0.0
        assert chk.gap == 0.0

    def test_named_fields(self):
        chk = coarea_check(np.zeros((4, 4)), spec44())
        assert chk._fields == ("lhs", "rhs", "gap")


class TestPoincare:
    def test_bound_holds_on_random_fields(self):
        rng = np.random.default_rng(8)
        spec = GridSpec((4, 4), (0.5, 0.5), (1, 1), (1.0, 2.0))
        for _ in range(50):
            u = rng.standard_normal((4, 4))
            lhs, rhs = poincare_check(u, spec)
            assert lhs <= rhs * (1.0 + 1e-12)

    def test_bound_is_loose_for_flat_fields(self):
        spec = GridSpec((4, 4), (1.0, 1.0), (1, 1), (1.0, 2.0))
        lhs, rhs = poincare_check(np.zeros((4, 4)), spec)
        assert lhs == 0.0
        assert rhs == 0.0
