"""Estimator wrappers: parameter plumbing and fitted attributes."""

import numpy as np
import pytest

from anisoflow import GridSpec, InvalidInputError
from anisoflow.estimators import EllipticSolver, GradientFlow, ResolventStep
from anisoflow.solver import SolveOptions, solve_elliptic, solve_resolvent

SPEC = GridSpec(
    dims=(6, 6),
    spacing=(0.5, 0.5),
    blocks=(1, 1),
    exponents=(1.0, 2.0),
    boundary_mode="neumann_block1",
)


class TestParams:
    def test_get_params_lists_constructor_args(self):
        est = EllipticSolver(spec=SPEC, gap_tol=1e-6)
        params = est.get_params()
        assert params["spec"] is SPEC
        assert params["gap_tol"] == 1e-6
        assert set(params) == {"spec", "max_iter", "gap_tol", "tv_norm"}

    def test_set_params_round_trip(self):
        est = ResolventStep()
        est.set_params(tau_time=0.25, max_iter=123)
        assert est.get_params()["tau_time"] == 0.25
        assert est.max_iter == 123

    def test_set_params_returns_self(self):
        est = GradientFlow()
        assert est.set_params(n_steps=2) is est

    def test_unknown_parameter_rejected_by_name(self):
        with pytest.raises(InvalidInputError, match="learning_rate"):
            EllipticSolver().set_params(learning_rate=0.1)

    def test_missing_spec_rejected_at_fit(self):
        with pytest.raises(InvalidInputError, match="spec"):
            EllipticSolver().fit(np.zeros((6, 6)))


class TestEllipticSolver:
    def test_fit_returns_self_and_exposes_results(self):
        f = np.ones((6, 6))
        est = EllipticSolver(spec=SPEC, gap_tol=1e-8)
        assert est.fit(f) is est
        ref = solve_elliptic(f, SPEC, SolveOptions(gap_tol=1e-8))
        np.testing.assert_array_equal(est.u_, ref.u)
        np.testing.assert_array_equal(est.z_, ref.z)
        assert est.v0_ is None
        assert est.report_.converged
        assert est.certificate_ is est.report_.certificate


class TestResolventStep:
    def test_matches_direct_call(self):
        rng = np.random.default_rng(60)
        g = rng.standard_normal((6, 6))
        est = ResolventStep(spec=SPEC, tau_time=0.3, gap_tol=1e-9)
        ref = solve_resolvent(g, 0.3, SPEC, SolveOptions(gap_tol=1e-9))
        np.testing.assert_array_equal(est.fit(g).u_, ref.u)

    def test_transform_returns_the_new_state(self):
        g = np.zeros((6, 6))
        out = ResolventStep(spec=SPEC, tau_time=0.5).transform(g)
        np.testing.assert_array_equal(out, 0.0)


class TestGradientFlow:
    def test_trajectory_and_final_state(self):
        u0 = np.zeros((6, 6))
        u0[:3] = 1.0
        est = GradientFlow(spec=SPEC, tau_time=0.2, n_steps=3, gap_tol=1e-8)
        est.fit(u0)
        assert len(est.trajectory_.states) == 4
        assert len(est.trajectory_.step_gaps) == 3
        np.testing.assert_array_equal(est.u_, est.trajectory_.last)

    def test_transform_chains(self):
        u0 = np.zeros((6, 6))
        u0[2:4, 2:4] = 1.0
        est = GradientFlow(spec=SPEC, tau_time=0.1, n_steps=2)
        np.testing.assert_array_equal(est.transform(u0), est.u_)
