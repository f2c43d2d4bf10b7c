"""Implicit Euler stepping, order preservation, accretivity probes."""

import numpy as np
import pytest

from anisoflow import GridSpec, InvalidInputError, flow
from anisoflow.errors import NonConvergenceError
from anisoflow.flow import accretivity_probe, comparison_test, evolve, operator_pair
from anisoflow.solver import SolveOptions, solve_resolvent

SPEC = GridSpec(
    dims=(6, 6),
    spacing=(0.5, 0.5),
    blocks=(1, 1),
    exponents=(1.0, 2.0),
    boundary_mode="neumann_block1",
)
OPTS = SolveOptions(gap_tol=1e-10)


@pytest.fixture(scope="module")
def trajectory():
    rng = np.random.default_rng(40)
    u0 = rng.standard_normal((6, 6))
    return u0, evolve(u0, SPEC, 0.2, 3, OPTS)


class TestEvolve:
    def test_argument_validation(self):
        with pytest.raises(InvalidInputError):
            evolve(np.zeros((6, 6)), SPEC, 0.2, 0, OPTS)
        for n_steps in (2.5, np.inf):
            with pytest.raises(InvalidInputError, match="n_steps"):
                evolve(np.zeros((6, 6)), SPEC, 0.2, n_steps, OPTS)

    def test_trajectory_layout(self, trajectory):
        u0, traj = trajectory
        assert traj.times == [0.0, 0.2, 0.4, pytest.approx(0.6)]
        assert len(traj.states) == 4
        assert len(traj.step_gaps) == 3
        assert len(traj.certificates) == 3
        np.testing.assert_array_equal(traj.states[0], u0)
        np.testing.assert_array_equal(traj.last, traj.states[-1])

    def test_each_step_dissipates(self, trajectory):
        # F(next) + ||next - prev||^2 / 2tau <= F(prev) + step gap
        u0, traj = trajectory
        vol = float(np.prod(SPEC.spacing))
        for k in range(1, len(traj.states)):
            fid = vol * np.sum((traj.states[k] - traj.states[k - 1]) ** 2) / (2 * 0.2)
            lhs = traj.energies[k].total + fid
            rhs = traj.energies[k - 1].total + traj.step_gaps[k - 1]
            assert lhs <= rhs + 1e-12

    def test_matches_chained_single_steps(self, trajectory):
        u0, traj = trajectory
        state = u0
        for _ in range(3):
            state = solve_resolvent(state, 0.2, SPEC, OPTS).u
        np.testing.assert_array_equal(traj.last, state)

    def test_failure_reports_step_index(self):
        u0 = np.zeros((6, 6))
        u0[:3] = 1.0
        tight = SolveOptions(max_iter=5, gap_tol=1e-14)
        with pytest.raises(NonConvergenceError) as err:
            evolve(u0, SPEC, 0.2, 3, tight)
        assert err.value.step == 1
        assert err.value.report is not None
        assert err.value.trajectory.times == [0.0] and err.value.trajectory.step_gaps == []

    @pytest.mark.parametrize("failing", [1, 2])
    def test_failure_keeps_the_certified_steps(self, failing, monkeypatch):
        # the steps before the failing one keep their certificates and states
        calls = []

        def one_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == failing:
                raise NonConvergenceError("budget", report=None)
            return solve_resolvent(*args, **kwargs)

        monkeypatch.setattr(flow, "solve_resolvent", one_fails)
        u0 = np.zeros((6, 6))
        u0[:3] = 1.0
        with pytest.raises(NonConvergenceError) as err:
            evolve(u0, SPEC, 0.2, 3, OPTS)
        traj = err.value.trajectory
        assert err.value.step == failing
        assert len(traj.step_gaps) == failing - 1 and len(traj.certificates) == failing - 1
        assert traj.times == [0.2 * k for k in range(failing)]
        state = u0
        for _ in range(failing - 1):
            state = solve_resolvent(state, 0.2, SPEC, OPTS).u
        np.testing.assert_array_equal(traj.last, state)


class TestComparison:
    def test_norm_order_validated(self):
        with pytest.raises(InvalidInputError):
            comparison_test(np.zeros((6, 6)), np.zeros((6, 6)), SPEC, 0.1, 1, 0.5)

    def test_ordered_pair_stays_ordered(self):
        rng = np.random.default_rng(41)
        u2 = rng.standard_normal((6, 6))
        u1 = u2 - 0.5
        for r in (1.0, 2.0, np.inf):
            assert comparison_test(u1, u2, SPEC, 0.1, 3, r, OPTS) <= 1e-8

    def test_result_is_nonnegative(self):
        rng = np.random.default_rng(42)
        u1 = rng.standard_normal((6, 6))
        u2 = rng.standard_normal((6, 6))
        assert comparison_test(u1, u2, SPEC, 0.1, 2, 2.0, OPTS) >= 0.0


class TestAccretivity:
    def test_interval_validation(self):
        z = np.zeros((6, 6))
        with pytest.raises(InvalidInputError):
            accretivity_probe(z, z, z, z, 2.0, 1.0, SPEC)
        with pytest.raises(InvalidInputError):
            accretivity_probe(z, z, z, z, -1.0, 1.0, SPEC)

    def test_solver_graph_pairs_are_monotone(self):
        rng = np.random.default_rng(43)
        g1 = rng.standard_normal((6, 6))
        g2 = rng.standard_normal((6, 6))
        p1 = operator_pair(solve_resolvent(g1, 0.3, SPEC, OPTS), SPEC)
        p2 = operator_pair(solve_resolvent(g2, 0.3, SPEC, OPTS), SPEC)
        for a, b in ((0.1, 1.5), (-1.5, -0.1)):
            val = accretivity_probe(p1[0], p1[1], p2[0], p2[1], a, b, SPEC)
            assert val >= -1e-8

    def test_identical_pairs_give_zero(self):
        rng = np.random.default_rng(44)
        u = rng.standard_normal((6, 6))
        v = rng.standard_normal((6, 6))
        assert accretivity_probe(u, v, u, v, 0.5, 2.0, SPEC) == 0.0
