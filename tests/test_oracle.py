"""Reference minimizer: smoothing accuracy, descent, failure modes."""

import numpy as np
import pytest

from anisoflow import GridSpec, InvalidInputError
from anisoflow.energy import eval_F, eval_J
from anisoflow.errors import NumericalFailureError
from anisoflow.oracle import (
    OracleOptions,
    oracle_minimize,
    smoothed_energy,
    smoothed_energy_grad,
)
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
    @pytest.mark.parametrize(
        "sched",
        [
            (),
            (1e-2, -1e-3, 1e-8),
            (1e-3, 1e-2, 1e-8),
            (1e-4, 1e-4, 1e-8),
            (1e-2, 1e-4),
        ],
    )
    def test_bad_schedules_rejected(self, sched):
        with pytest.raises(InvalidInputError):
            OracleOptions(eps_schedule=sched)

    def test_default_schedule_valid(self):
        opts = OracleOptions()
        assert opts.eps_schedule[0] == 1e-2 and opts.eps_schedule[-1] == 1e-8

    def test_stall_controls_validated(self):
        with pytest.raises(InvalidInputError):
            OracleOptions(progress_floor=0.0)
        with pytest.raises(InvalidInputError):
            OracleOptions(stall_window=0)


class TestSmoothedEnergy:
    def test_surrogate_stays_below_exact(self):
        rng = np.random.default_rng(50)
        u = rng.standard_normal((6, 6))
        exact = eval_F(u, NEU).total
        for eps in (1e-2, 1e-4, 1e-6):
            sm = smoothed_energy(u, NEU, eps)
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
            _, grad = smoothed_energy_grad(u, spec, 1e-3, kind, f, tau)
            fd = (
                smoothed_energy(u + h * d, spec, 1e-3, kind, f, tau)
                - smoothed_energy(u - h * d, spec, 1e-3, kind, f, tau)
            ) / (2 * h)
            assert abs(fd - float(np.vdot(grad, d))) <= 1e-6 * (1 + abs(fd))

    def test_eps_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            smoothed_energy(np.zeros((6, 6)), NEU, 0.0)

    def test_kind_validated(self):
        with pytest.raises(InvalidInputError):
            smoothed_energy(np.zeros((6, 6)), NEU, 1e-3, "primal")


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

    def test_exhausted_stage_reports_its_index(self):
        opts = OracleOptions(max_inner=2, stall_window=10**6)
        with pytest.raises(NumericalFailureError) as err:
            oracle_minimize("elliptic", np.ones((6, 6)), NEU, opts)
        assert err.value.stage == 0
        assert err.value.residual > 0
