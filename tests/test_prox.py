"""Proximal kernels: projections, the power-conjugate prox, primal steps."""

import numpy as np
import pytest

from anisoflow import InvalidInputError, prox
from anisoflow.errors import NumericalFailureError
from anisoflow.prox import (
    project_ball,
    project_interval,
    prox_power_conj,
    prox_power_conj_radial,
    prox_primal_linear,
    prox_primal_quadratic,
)


class TestProjections:
    def test_ball_leaves_interior_points_alone(self):
        v = np.array([[0.3], [0.4]])
        np.testing.assert_allclose(project_ball(v), v)

    def test_ball_normalizes_exterior_points(self):
        v = np.array([[3.0], [4.0]])
        out = project_ball(v)
        np.testing.assert_allclose(out, [[0.6], [0.8]])

    def test_ball_custom_radius(self):
        v = np.array([[2.0], [0.0]])
        np.testing.assert_allclose(project_ball(v, radius=0.5), [[0.5], [0.0]])

    def test_interval_clamps_componentwise(self):
        v = np.array([-3.0, 0.25, 7.0])
        np.testing.assert_allclose(project_interval(v), [-1.0, 0.25, 1.0])

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(0)
        v = 3.0 * rng.standard_normal((2, 5, 5))
        once = project_ball(v)
        np.testing.assert_allclose(project_ball(once), once, atol=1e-15)


class TestPowerConjProx:
    def test_cubic_case_has_unit_root(self):
        # x + x^2 = 2 has the root x = 1, hit exactly by the start guess
        assert float(prox_power_conj(2.0, 1.0, 3.0)) == 1.0

    def test_quadratic_case_closed_form(self):
        v = np.array([-2.0, 0.0, 5.0])
        np.testing.assert_allclose(prox_power_conj(v, 3.0, 2.0), v / 4.0)

    def test_sign_symmetry(self):
        v = np.linspace(-4.0, 4.0, 17)
        out = prox_power_conj(v, 0.7, 1.5)
        np.testing.assert_allclose(out, -prox_power_conj(-v, 0.7, 1.5), atol=1e-14)

    def test_zero_sigma_is_identity(self):
        v = np.array([1.0, -2.0])
        np.testing.assert_array_equal(prox_power_conj(v, 0.0, 3.0), v)

    def test_residual_meets_tolerance(self):
        rng = np.random.default_rng(1)
        for q in (1.5, 3.0, 4.0):
            for sigma in (0.1, 1.0, 10.0):
                v = 10.0 * rng.standard_normal(2000)
                x = np.abs(prox_power_conj(v, sigma, q))
                res = x + sigma * x ** (q - 1.0) - np.abs(v)
                assert np.max(np.abs(res)) <= 1e-12 * (1.0 + np.max(np.abs(v)))

    def test_firm_nonexpansiveness(self):
        # <prox a - prox b, a - b> >= ||prox a - prox b||^2
        rng = np.random.default_rng(2)
        for q in (1.5, 3.0):
            a = 5.0 * rng.standard_normal(500)
            b = 5.0 * rng.standard_normal(500)
            pa = prox_power_conj(a, 1.0, q)
            pb = prox_power_conj(b, 1.0, q)
            d = pa - pb
            assert float(np.sum(d * (a - b)) - np.sum(d * d)) >= -1e-10

    def test_exponent_near_one_rejected(self):
        with pytest.raises(InvalidInputError):
            prox_power_conj(1.0, 1.0, 1.0 + 1e-9)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidInputError):
            prox_power_conj(1.0, -0.5, 2.0)

    def test_impossible_budget_raises(self, monkeypatch):
        monkeypatch.setattr(prox, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(NumericalFailureError) as err:
            prox_power_conj(np.linspace(1.0, 50.0, 64), 2.0, 4.0)
        assert err.value.residual > 0


class TestRadial:
    def test_direction_is_preserved(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 40))
        out = prox_power_conj_radial(w, 0.8, 3.0)
        mags = np.sqrt(np.sum(w * w, axis=0))
        omags = np.sqrt(np.sum(out * out, axis=0))
        cross = np.sum(out * w, axis=0)
        np.testing.assert_allclose(cross, mags * omags, rtol=1e-12)

    def test_matches_scalar_prox_on_magnitudes(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((2, 30))
        out = prox_power_conj_radial(w, 1.3, 4.0)
        mags = np.sqrt(np.sum(w * w, axis=0))
        np.testing.assert_allclose(
            np.sqrt(np.sum(out * out, axis=0)),
            prox_power_conj(mags, 1.3, 4.0),
            rtol=1e-12,
        )

    def test_q2_linear_shrink(self):
        w = np.array([[1.0, -4.0], [2.0, 0.0]])
        np.testing.assert_allclose(prox_power_conj_radial(w, 1.0, 2.0), w / 2.0)

    def test_zero_vector_stays_zero(self):
        w = np.zeros((2, 5))
        np.testing.assert_array_equal(prox_power_conj_radial(w, 1.0, 3.0), 0.0)


class TestPrimalProx:
    def test_linear_step_is_a_shift(self):
        u = np.array([1.0, 2.0])
        f = np.array([0.5, -1.0])
        np.testing.assert_allclose(prox_primal_linear(u, 2.0, f), [2.0, 0.0])

    def test_quadratic_step_formula(self):
        u = np.array([4.0])
        g = np.array([0.0])
        # (tau_t u + tau g) / (tau_t + tau)
        np.testing.assert_allclose(prox_primal_quadratic(u, 1.0, g, 3.0), [3.0])

    def test_quadratic_step_fixed_point_at_g(self):
        g = np.array([2.0, -1.0])
        np.testing.assert_allclose(prox_primal_quadratic(g, 0.7, g, 0.1), g)

    def test_quadratic_requires_positive_tau_time(self):
        with pytest.raises(InvalidInputError):
            prox_primal_quadratic(np.zeros(2), 1.0, np.zeros(2), 0.0)


class TestScalarParameters:
    """Bad scalar parameters raise instead of returning NaN or garbage."""

    @pytest.mark.parametrize(
        "tau, tau_time",
        [(1.0, np.nan), (1.0, np.inf), (np.nan, 0.1), (-0.5, 0.1), (np.inf, 0.1)],
    )
    def test_quadratic_prox(self, tau, tau_time):
        with pytest.raises(InvalidInputError):
            prox_primal_quadratic(np.ones(2), tau, np.zeros(2), tau_time)

    @pytest.mark.parametrize("tau", [np.nan, -0.5, np.inf])
    def test_linear_prox(self, tau):
        with pytest.raises(InvalidInputError):
            prox_primal_linear(np.ones(2), tau, np.ones(2))

    @pytest.mark.parametrize(
        "sigma, q", [(np.nan, 3.0), (1.0, np.nan), (np.inf, 3.0), (1.0, np.inf)]
    )
    def test_power_prox(self, sigma, q):
        v = np.array([1.0, 2.0])
        with pytest.raises(InvalidInputError):
            prox_power_conj(v, sigma, q)
        with pytest.raises(InvalidInputError):
            prox_power_conj_radial(v[:, None], sigma, q)

    @pytest.mark.parametrize("radius", [-1.0, 0.0, np.nan])
    def test_ball_radius(self, radius):
        with pytest.raises(InvalidInputError, match="radius"):
            project_ball(np.ones((2, 1)), radius=radius)

    @pytest.mark.parametrize("lo, hi", [(1.0, -1.0), (np.nan, 1.0), (-1.0, np.nan)])
    def test_interval_bounds(self, lo, hi):
        with pytest.raises(InvalidInputError, match="lo <= hi"):
            project_interval(np.ones(3), lo, hi)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestOutBuffers:
    """out= writes every entry and matches the allocating call and the
    closed-form expression bit for bit."""

    def test_projections(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            v = 2.0 * rng.standard_normal((n, 7, 9))
            for radius in (1.0, 0.7):
                ref = v / np.maximum(np.sqrt(np.sum(v * v, axis=0, keepdims=True)) / radius, 1.0)
                out = project_ball(v, radius, out=np.full(v.shape, np.nan))
                np.testing.assert_array_equal(_bits(out), _bits(ref))
                np.testing.assert_array_equal(_bits(project_ball(v, radius)), _bits(ref))
            out = project_interval(v, out=np.full(v.shape, np.nan))
            np.testing.assert_array_equal(_bits(out), _bits(np.clip(v, -1.0, 1.0)))

    def test_primal_and_radial(self):
        rng = np.random.default_rng(9)
        u, f = rng.standard_normal((2, 6, 5))
        w = rng.standard_normal((2, 6, 5))
        cases = [
            (prox_primal_linear, (u, 0.3, f), u + 0.3 * f),
            (prox_primal_quadratic, (u, 0.3, f, 0.1), (0.1 * u + 0.3 * f) / (0.1 + 0.3)),
            (prox_power_conj_radial, (w, 0.3, 2.0), w / (1.0 + 0.3)),
            (prox_power_conj_radial, (w, 0.3, 3.0), prox_power_conj_radial(w, 0.3, 3.0)),
        ]
        for fn, args, ref in cases:
            out = fn(*args, out=np.full(ref.shape, np.nan))
            np.testing.assert_array_equal(_bits(out), _bits(ref))
            np.testing.assert_array_equal(_bits(fn(*args)), _bits(ref))
