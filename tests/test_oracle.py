"""Reference minimizer: smoothing accuracy, descent, failure modes."""

import numpy as np
import pytest

from anisoflow import GridSpec, InvalidInputError, oracle
from anisoflow.energy import eval_J
from anisoflow.errors import NumericalFailureError
from anisoflow.oracle import _value_and_grad, oracle_minimize
from anisoflow.solver import SolveOptions, solve_elliptic

NEU = GridSpec(
    dims=(6, 6),
    spacing=(0.5, 0.5),
    blocks=(1, 1),
    exponents=(1.0, 2.0),
    boundary_mode="neumann_block1",
)
DIR = GridSpec(
    dims=(6, 6),
    spacing=(0.5, 0.5),
    blocks=(1, 1),
    exponents=(1.0, 2.0),
    boundary_mode="dirichlet_penalized",
)


class TestOptions:
    def test_default_schedule_valid(self):
        # value_ref's accuracy rests on the last stage's eps
        sched = oracle._EPS_SCHEDULE
        assert sched[0] == 1e-2 and sched[-1] == 1e-8
        assert all(a > b > 0 for a, b in zip(sched, sched[1:]))


class TestSmoothedEnergy:
    def test_surrogate_stays_below_exact(self):
        rng = np.random.default_rng(50)
        u = rng.standard_normal((6, 6))
        zero = np.zeros((6, 6))
        exact = eval_J(u, zero, NEU).total
        for eps in (1e-2, 1e-4, 1e-6):
            sm, _ = _value_and_grad(u, NEU, eps, "elliptic", zero, 1.0)
            gap = exact - sm
            # one smoothed magnitude per cell, weighted by cell volume
            assert 0.0 <= gap <= eps * u.size * NEU.cell_volume

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(51)
        u = rng.standard_normal((6, 6))
        d = rng.standard_normal((6, 6))
        f = np.ones((6, 6))
        h = 1e-6
        for spec, kind, tau in ((NEU, "elliptic", 1.0), (DIR, "resolvent", 0.3)):
            _, grad = _value_and_grad(u, spec, 1e-3, kind, f, tau)
            fd = (
                _value_and_grad(u + h * d, spec, 1e-3, kind, f, tau)[0]
                - _value_and_grad(u - h * d, spec, 1e-3, kind, f, tau)[0]
            ) / (2 * h)
            assert abs(fd - float(np.vdot(grad, d))) <= 1e-6 * (1 + abs(fd))


class TestMinimize:
    def test_zero_data_gives_zero_minimizer(self):
        u, val = oracle_minimize("elliptic", np.zeros((6, 6)), NEU)
        np.testing.assert_array_equal(u, 0.0)
        assert val == 0.0

    def test_deterministic(self):
        f = np.ones((6, 6))
        u1, v1 = oracle_minimize("elliptic", f, NEU)
        u2, v2 = oracle_minimize("elliptic", f, NEU)
        np.testing.assert_array_equal(u1, u2)
        assert v1 == v2

    def test_agrees_with_certified_solver(self):
        rng = np.random.default_rng(52)
        f = rng.standard_normal((6, 6))
        u_ref, val_ref = oracle_minimize("elliptic", f, DIR)
        res = solve_elliptic(f, DIR, SolveOptions(gap_tol=1e-10))
        val_solver = eval_J(res.u, f, DIR).total
        assert abs(val_ref - val_solver) <= 1e-4 * (1.0 + abs(val_solver))

    def test_kind_validated(self):
        with pytest.raises(InvalidInputError):
            oracle_minimize("flow", np.zeros((6, 6)), NEU)

    def test_tau_time_validated(self):
        with pytest.raises(InvalidInputError):
            oracle_minimize("resolvent", np.zeros((6, 6)), NEU, tau_time=0.0)

    @pytest.mark.parametrize("tau_time", [np.nan, np.inf])
    def test_tau_time_must_be_finite(self, tau_time):
        with pytest.raises(InvalidInputError, match="tau_time must be positive and finite"):
            oracle_minimize("resolvent", np.ones((6, 6)), NEU, tau_time=tau_time)

    def test_large_grids_rejected(self):
        big = GridSpec(
            dims=(17, 17),
            spacing=(1.0, 1.0),
            blocks=(1, 1),
            exponents=(1.0, 2.0),
            boundary_mode="neumann_block1",
        )
        with pytest.raises(InvalidInputError):
            oracle_minimize("elliptic", np.zeros((17, 17)), big)

    def test_exhausted_stage_reports_its_index(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_INNER", 2)
        monkeypatch.setattr(oracle, "_STALL_WINDOW", 10**6)
        with pytest.raises(NumericalFailureError) as err:
            oracle_minimize("elliptic", np.ones((6, 6)), NEU)
        assert err.value.stage == 0
        assert err.value.residual > 0
