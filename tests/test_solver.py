"""Primal-dual solver: options, operator norm, certified solves."""

import numpy as np
import pytest

from anisoflow import GridSpec, InvalidInputError
from anisoflow.errors import InvalidStateError, NonConvergenceError
from anisoflow.grid import boundary_face_count
from anisoflow.solver import (
    DualState,
    SolveOptions,
    _Problem,
    _Tracker,
    duality_gap,
    estimate_opnorm,
    solve_elliptic,
    solve_resolvent,
)

NEU = GridSpec(
    dims=(8, 8),
    spacing=(1.0, 1.0),
    blocks=(1, 1),
    exponents=(1.0, 2.0),
    boundary_mode="neumann_block1",
)
DIR = GridSpec(
    dims=(8, 8),
    spacing=(1.0, 1.0),
    blocks=(1, 1),
    exponents=(1.0, 2.0),
    boundary_mode="dirichlet_penalized",
)


def zero_dual(spec, v0=None):
    return DualState(v0=v0, z=np.zeros((spec.ndim,) + spec.dims))


class TestOptions:
    def test_defaults_are_valid(self):
        opts = SolveOptions()
        assert opts.max_iter == 50000 and opts.gap_tol == 1e-8

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_iter": 0},
            {"gap_tol": 0.0},
            {"gap_tol": -1e-8},
            {"residual_check_every": 0},
            {"gap_tol": np.nan},
            {"tv_norm": "chebyshev"},
            {"gap_tol": np.inf},
            {"max_iter": 2.5},
            {"max_iter": np.inf},
            {"residual_check_every": 2.5},
        ],
    )
    def test_bad_options_rejected(self, kw):
        with pytest.raises(InvalidInputError):
            SolveOptions(**kw)


class TestOpnorm:
    def test_reference_value(self):
        assert estimate_opnorm(NEU) == pytest.approx(2.804947212038511, rel=1e-12)

    def test_scales_inversely_with_spacing(self):
        half = GridSpec(
            dims=(8, 8),
            spacing=(2.0, 2.0),
            blocks=(1, 1),
            exponents=(1.0, 2.0),
            boundary_mode="neumann_block1",
        )
        assert estimate_opnorm(half) == pytest.approx(
            0.5 * estimate_opnorm(NEU), rel=1e-12
        )

    def test_penalized_mode_is_larger(self):
        # the extra boundary rows can only increase the norm
        assert estimate_opnorm(DIR) > estimate_opnorm(NEU)

    @pytest.mark.parametrize("kind", ["elliptic", "resolvent"])
    @pytest.mark.parametrize("h", [1e-200, 1e-160, 1e-150, 1e-70, 1e90, 1e150])
    def test_spacing_without_finite_step_rejected(self, h, kind):
        # the power iteration gives NaN here; solves used to certify u = 0
        # at iteration 0 (small h) or blame u (large h)
        data = np.zeros((8, 8))
        data[:4] = 1.0
        with pytest.raises(InvalidInputError, match=r"spacing \("):
            spec = GridSpec((8, 8), (h, h), (1, 1), (1.0, 2.0))
            if kind == "elliptic":
                solve_elliptic(np.ones((8, 8)), spec)
            else:
                solve_resolvent(data, 0.1, spec)


class TestElliptic:
    def test_zero_source_solves_immediately(self):
        res = solve_elliptic(np.zeros((8, 8)), NEU)
        assert res.report.iterations == 0
        assert res.report.final_gap == 0.0
        np.testing.assert_array_equal(res.u, 0.0)
        np.testing.assert_array_equal(res.z, 0.0)

    def test_pure_linear_growth_grid_rejected(self):
        spec = GridSpec(
            dims=(6,),
            spacing=(1.0,),
            blocks=(1,),
            exponents=(1.0,),
            boundary_mode="neumann_block1",
        )
        with pytest.raises(InvalidInputError):
            solve_elliptic(np.zeros(6), spec)

    def test_certified_gap_and_feasibility(self):
        opts = SolveOptions(gap_tol=1e-9)
        res = solve_elliptic(np.ones((8, 8)), DIR, opts)
        rep = res.report
        assert rep.converged
        assert rep.final_gap <= opts.gap_tol * (1.0 + abs(rep.primal_value))
        assert rep.certificate is not None
        assert max(rep.certificate.sup_norm_z1, rep.certificate.trace_sup) - 1.0 <= 1e-12
        assert rep.certificate.sup_norm_z1 <= 1.0 + 1e-9
        assert res.v0 is not None and np.max(np.abs(res.v0)) <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(DIR, id="dir-8x8"),
            pytest.param(NEU, id="neu-8x8"),
            pytest.param(GridSpec((8, 8, 8), (1.0,) * 3, (1, 2), (1.0, 2.0)), id="blocks-1-2"),
            pytest.param(GridSpec((6, 5, 4), (1.0,) * 3, (2, 1), (1.0, 2.0)), id="blocks-2-1"),
            pytest.param(GridSpec((8, 8), (2.0, 0.5), (1, 1), (1.0, 2.0)), id="spacing-2-0.5"),
            pytest.param(GridSpec((8, 8), (1.0, 1.0), (1, 1), (1.0, 3.0)), id="p3"),
            pytest.param(GridSpec((64, 64), (1.0, 1.0), (1, 1), (1.0, 2.0)), id="64x64"),
        ],
    )
    def test_dual_is_exact(self, spec):
        # div z + f = 0 to roundoff, so by Gauss-Green the gap splits
        # exactly into the pairing, Young and boundary sign slacks
        rep = solve_elliptic(np.ones(spec.dims), spec).report
        cert = rep.certificate
        tol = 1e-12 * (1.0 + abs(rep.primal_value))
        assert rep.converged
        assert cert.divergence_residual <= tol
        parts = cert.pairing_gap + sum(cert.young_terms) + cert.boundary_sign_total
        assert parts == pytest.approx(rep.final_gap, rel=0.0, abs=tol)
        assert rep.gap_history[-1][2] == pytest.approx(rep.final_gap, rel=0.0, abs=tol)

    def test_neumann_mode_has_no_boundary_dual(self):
        res = solve_elliptic(np.ones((8, 8)), NEU, SolveOptions(gap_tol=1e-6))
        assert res.v0 is None

    def test_gap_history_is_monotone(self):
        res = solve_elliptic(np.ones((8, 8)), DIR, SolveOptions(gap_tol=1e-9))
        gaps = [row[1] for row in res.report.gap_history]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))

    def test_budget_exhaustion_carries_report(self):
        with pytest.raises(NonConvergenceError) as err:
            solve_elliptic(np.ones((8, 8)), NEU, SolveOptions(max_iter=10, gap_tol=1e-14))
        assert err.value.report is not None
        assert err.value.report.iterations == 10
        assert not err.value.report.converged


class TestResolvent:
    def test_zero_data_is_a_fixed_point(self):
        res = solve_resolvent(np.zeros((8, 8)), 0.5, NEU)
        assert res.report.iterations == 0
        np.testing.assert_array_equal(res.u, 0.0)

    def test_requires_positive_tau_time(self):
        with pytest.raises(InvalidInputError):
            solve_resolvent(np.zeros((8, 8)), 0.0, NEU)

    def test_requires_finite_tau_time(self):
        with pytest.raises(InvalidInputError, match="tau_time"):
            solve_resolvent(np.ones((8, 8)), np.inf, NEU)

    @pytest.mark.parametrize("v0", [np.zeros(3), np.full(boundary_face_count(DIR), np.nan)])
    def test_v0_init_validated(self, v0):
        with pytest.raises(InvalidInputError, match="v0_init"):
            solve_resolvent(np.ones((8, 8)), 0.1, DIR, v0_init=v0)

    def test_warm_start_from_own_output_certifies_at_once(self):
        # (u, z, v0) as returned is a certified pair, so restarting from it
        # must certify before the first iteration
        g = np.random.default_rng(5).standard_normal((8, 8))
        opts = SolveOptions(gap_tol=1e-9)
        res = solve_resolvent(g, 0.1, DIR, opts)
        again = solve_resolvent(g, 0.1, DIR, opts, u_init=res.u, y_init=res.z, v0_init=res.v0)
        assert again.report.iterations == 0
        assert again.report.final_gap == res.report.final_gap

    def test_nonexpansive_in_weighted_l2(self):
        spec = GridSpec(
            dims=(6, 6),
            spacing=(0.5, 0.5),
            blocks=(1, 1),
            exponents=(1.0, 2.0),
            boundary_mode="neumann_block1",
        )
        rng = np.random.default_rng(7)
        g1 = rng.standard_normal((6, 6))
        g2 = rng.standard_normal((6, 6))
        opts = SolveOptions(gap_tol=1e-10)
        u1 = solve_resolvent(g1, 0.2, spec, opts).u
        u2 = solve_resolvent(g2, 0.2, spec, opts).u
        vol = float(np.prod(spec.spacing))
        d_out = np.sqrt(vol * np.sum((u1 - u2) ** 2))
        d_in = np.sqrt(vol * np.sum((g1 - g2) ** 2))
        assert d_out <= d_in + 1e-8

    def test_dissipates_energy_from_data(self):
        # g itself is feasible, so F(u) + ||u-g||^2/2tau <= F(g) + gap
        from anisoflow.energy import eval_F

        rng = np.random.default_rng(11)
        g = rng.standard_normal((8, 8))
        opts = SolveOptions(gap_tol=1e-10)
        res = solve_resolvent(g, 0.1, NEU, opts)
        fid = np.sum((res.u - g) ** 2) / (2.0 * 0.1)
        lhs = eval_F(res.u, NEU).total + fid
        assert lhs <= eval_F(g, NEU).total + res.report.final_gap + 1e-12


class TestTracker:
    def test_kept_points_are_copies(self):
        # the iteration overwrites its buffers after every check
        rng = np.random.default_rng(12)
        cases = (("elliptic", np.ones((8, 8))), ("resolvent", rng.standard_normal((8, 8))))
        for kind, data in cases:
            prob = _Problem(kind, data, DIR, 0.1, SolveOptions())
            u = 0.1 * rng.standard_normal((8, 8))
            y = np.clip(rng.standard_normal((2, 8, 8)), -0.5, 0.5)
            v0 = np.clip(rng.standard_normal(boundary_face_count(DIR)), -1.0, 1.0)
            track = _Tracker(prob, u, y, v0)
            track.check(0, u, y, v0)
            track.add(u, y, v0)
            track.check(1, u, y, v0)
            kept_u = track.primal[1].copy()
            kept_y, kept_v0 = (a.copy() for a in track.dual[1:])
            for buf in (u, y, v0):
                buf.fill(7.0)
            np.testing.assert_array_equal(track.primal[1], kept_u)
            np.testing.assert_array_equal(track.dual[1], kept_y)
            np.testing.assert_array_equal(track.dual[2], kept_v0)
            assert not np.array_equal(kept_u, u) and not np.array_equal(kept_v0, v0)


class TestDualityGap:
    def test_infeasible_dual_rejected(self):
        y = np.full((2, 8, 8), 5.0)
        dual = DualState(v0=None, z=y)
        with pytest.raises(InvalidStateError):
            duality_gap(np.zeros((8, 8)), dual, np.ones((8, 8)), NEU, "elliptic")

    def test_zero_pair_closes_zero_problem(self):
        dual = DualState(v0=None, z=np.zeros((2, 8, 8)))
        gap = duality_gap(np.zeros((8, 8)), dual, np.zeros((8, 8)), NEU, "elliptic")
        assert gap == 0.0

    @pytest.mark.parametrize("v0", [np.zeros(3), np.full(boundary_face_count(DIR), np.nan)])
    def test_v0_validated(self, v0):
        with pytest.raises(InvalidInputError, match="v0"):
            duality_gap(np.zeros((8, 8)), zero_dual(DIR, v0), np.ones((8, 8)), DIR, "elliptic")

    @pytest.mark.parametrize("tau_time", [0.0, -1.0, np.inf])
    def test_resolvent_tau_time_validated(self, tau_time):
        with pytest.raises(InvalidInputError, match="tau_time"):
            duality_gap(
                np.zeros((8, 8)), zero_dual(NEU), np.ones((8, 8)), NEU, "resolvent",
                tau_time=tau_time,
            )

    def test_pure_linear_growth_grid_rejected(self):
        spec = GridSpec((6,), (1.0,), (1,), (1.0,), boundary_mode="neumann_block1")
        with pytest.raises(InvalidInputError):
            duality_gap(np.zeros(6), zero_dual(spec), np.ones(6), spec, "elliptic")

    def test_unknown_problem_kind_rejected(self):
        dual = DualState(v0=None, z=np.zeros((2, 8, 8)))
        with pytest.raises(InvalidInputError):
            duality_gap(np.zeros((8, 8)), dual, np.zeros((8, 8)), NEU, "parabolic")

    def test_reproduces_solver_report(self):
        # z and v0 as the solve returns them
        opts = SolveOptions(gap_tol=1e-9)
        for spec in (NEU, DIR):
            res = solve_elliptic(np.ones((8, 8)), spec, opts)
            dual = DualState(v0=res.v0, z=res.z)
            gap = duality_gap(res.u, dual, np.ones((8, 8)), spec, "elliptic")
            assert gap == pytest.approx(res.report.final_gap, rel=1e-9, abs=1e-13)
