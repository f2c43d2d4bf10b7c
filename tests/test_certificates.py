"""Optimality residuals, the pairing density, and gap bookkeeping."""

import numpy as np
import pytest

from anisoflow import GridSpec, InvalidInputError
from anisoflow.certificates import (
    check_weak_solution,
    gauss_green_residual,
    pairing_measure,
    theta_density,
    theta_truncation_invariance,
    weak_normal_trace,
)
from anisoflow.energy import tv_block1
from anisoflow.solver import SolveOptions, solve_elliptic, solve_resolvent

DIR = GridSpec(
    dims=(8, 8),
    spacing=(0.5, 0.5),
    blocks=(1, 1),
    exponents=(1.0, 2.0),
    boundary_mode="dirichlet_penalized",
)
NEU = GridSpec(
    dims=(8, 8),
    spacing=(0.5, 0.5),
    blocks=(1, 1),
    exponents=(1.0, 2.0),
    boundary_mode="neumann_block1",
)


@pytest.fixture(scope="module")
def certified():
    rng = np.random.default_rng(21)
    f = rng.standard_normal((8, 8))
    res = solve_elliptic(f, DIR, SolveOptions(gap_tol=1e-10))
    return f, res


class TestGaussGreen:
    def test_random_pairs_close_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = rng.standard_normal((8, 8))
            z = rng.standard_normal((2, 8, 8))
            assert gauss_green_residual(u, z, DIR) <= 1e-12
            assert gauss_green_residual(u, z, NEU) <= 1e-12

    def test_custom_flux_also_closes(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal((8, 8))
        z = rng.standard_normal((2, 8, 8))
        flux = rng.standard_normal(weak_normal_trace(z, DIR).shape)
        assert gauss_green_residual(u, z, DIR, boundary_flux=flux) <= 1e-12


class TestWeakNormalTrace:
    def test_bounded_by_component_sup(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((2, 8, 8))
        tr = weak_normal_trace(z, DIR)
        assert np.max(np.abs(tr)) <= np.max(np.abs(z[0])) + 1e-15

    def test_covers_both_edges_of_the_linear_axis(self):
        z = np.zeros((2, 8, 8))
        tr = weak_normal_trace(z, DIR)
        assert tr.shape == (16,)


class TestPairingMeasure:
    def test_full_field_is_sliced(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal((8, 8))
        z = rng.standard_normal((2, 8, 8))
        np.testing.assert_array_equal(
            pairing_measure(z, u, DIR), pairing_measure(z[:1], u, DIR)
        )

    def test_total_bounded_by_sup_times_variation(self):
        rng = np.random.default_rng(10)
        u = rng.standard_normal((8, 8))
        z1 = rng.standard_normal((1, 8, 8))
        total = abs(float(np.sum(pairing_measure(z1, u, DIR))))
        bound = float(np.max(np.abs(z1))) * tv_block1(u, DIR)
        assert total <= bound + 1e-12

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidInputError):
            pairing_measure(np.zeros((3, 8, 8)), np.zeros((8, 8)), DIR)


class TestThetaDensity:
    def test_constant_field_is_all_undefined(self):
        th = theta_density(np.zeros((2, 8, 8)), np.ones((8, 8)), NEU)
        assert np.all(np.isnan(th))

    def test_defined_values_bounded_by_sup(self, certified):
        f, res = certified
        th = theta_density(res.z, res.u, DIR)
        defined = th[~np.isnan(th)]
        assert defined.size > 0
        assert np.max(np.abs(defined)) <= 1.0 + 1e-9

    def test_floor_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            theta_density(np.zeros((2, 8, 8)), np.zeros((8, 8)), NEU, grad_floor=0.0)

    def test_huge_floor_hides_everything(self):
        rng = np.random.default_rng(12)
        u = rng.standard_normal((8, 8))
        th = theta_density(np.zeros((2, 8, 8)), u, NEU, grad_floor=1e300)
        assert np.all(np.isnan(th))


class TestTruncationInvariance:
    def test_interval_must_be_ordered(self):
        with pytest.raises(InvalidInputError):
            theta_truncation_invariance(
                np.zeros((2, 8, 8)), np.zeros((8, 8)), NEU, 2.0, 2.0
            )

    def test_clamp_outside_range_changes_nothing(self, certified):
        f, res = certified
        hi = float(res.u.max())
        out = theta_truncation_invariance(res.z, res.u, DIR, hi + 1.0, hi + 2.0)
        assert out.straddle_count == 0
        assert out.max_deviation == 0.0

    def test_fields(self):
        out = theta_truncation_invariance(
            np.zeros((2, 8, 8)), np.zeros((8, 8)), NEU, 1.0, 2.0
        )
        assert out._fields == ("max_deviation", "straddle_count")


class TestCheckWeakSolution:
    def test_mode_validated(self):
        with pytest.raises(InvalidInputError):
            check_weak_solution(
                np.zeros((8, 8)), np.zeros((2, 8, 8)), np.zeros((8, 8)), NEU, mode="flow"
            )

    def test_boundary_trace_shape_validated(self):
        with pytest.raises(InvalidInputError, match="boundary_trace"):
            check_weak_solution(
                np.zeros((8, 8)), np.zeros((2, 8, 8)), np.zeros((8, 8)), DIR,
                boundary_trace=np.zeros(3),
            )

    def test_reports_on_garbage_without_raising(self):
        cert = check_weak_solution(
            np.full((8, 8), 1e6),
            np.full((2, 8, 8), -1e6),
            np.full((8, 8), 1e6),
            DIR,
        )
        assert np.isfinite(cert.sup_norm_z1)
        assert np.isfinite(cert.divergence_residual)
        assert cert.sup_norm_z1 == pytest.approx(1e6)

    def test_certified_solve_satisfies_all_conditions(self, certified):
        f, res = certified
        cert = check_weak_solution(
            res.u, res.z, f, DIR, boundary_trace=res.v0, gap=res.report.final_gap
        )
        assert cert.sup_norm_z1 <= 1.0 + 1e-9
        assert cert.divergence_residual <= 1e-10
        assert cert.boundary_sign_residual <= 1e-10
        assert cert.trace_sup <= 1.0 + 1e-12
        for r in cert.constitutive_residuals:
            assert r <= 1e-5

    def test_contribution_sum_bounded_by_gap(self, certified):
        f, res = certified
        cert = res.report.certificate
        contrib = cert.pairing_gap + sum(cert.young_terms) + cert.boundary_sign_total
        scale = 1.0 + abs(res.report.primal_value)
        assert contrib <= cert.gap + 1e-9 * scale

    def test_corrupting_the_flux_shows_up(self, certified):
        f, res = certified
        bad = res.z.copy()
        bad[0] *= 2.0
        cert = check_weak_solution(res.u, bad, f, DIR, gap=res.report.final_gap)
        assert cert.sup_norm_z1 == pytest.approx(2.0)

    def test_parabolic_rhs_convention(self):
        rng = np.random.default_rng(30)
        g = rng.standard_normal((8, 8))
        res = solve_resolvent(g, 0.25, NEU, SolveOptions(gap_tol=1e-10))
        cert = check_weak_solution(
            res.u, res.z, (g - res.u) / 0.25, NEU, mode="parabolic"
        )
        assert cert.mode == "parabolic"
        assert cert.divergence_residual <= 1e-8
        assert cert.trace_sup == 0.0
