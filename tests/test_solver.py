"""Primal-dual solver: options, operator norm, certified solves."""

import numpy as np
import pytest

from anisoflow import GridSpec, InvalidInputError, certificates, energy, grid, polish, solver
from anisoflow.energy import eval_J
from anisoflow.errors import NonConvergenceError
from anisoflow.grid import boundary_face_count, div_blocks
from anisoflow.solver import (
    SolveOptions,
    _Problem,
    _reweight,
    _Tracker,
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


def _dense_opnorm(spec):
    """||A|| between the weighted spaces, from A applied to unit fields."""
    vol = spec.cell_volume
    cols = []
    for e in np.eye(int(np.prod(spec.dims))):
        e = e.reshape(spec.dims)
        col = [np.sqrt(vol) * grid._grad_impl(e, spec).ravel()]
        if spec.has_trace_term:
            col.append(np.sqrt(grid.boundary_weights(spec)) * grid._restrict_impl(e, spec))
        cols.append(np.concatenate(col) / np.sqrt(vol))
    return float(np.linalg.norm(np.array(cols).T, 2))


class TestOpnorm:
    def test_equals_dense_norm(self):
        grids = [
            (dims, spacing, blocks, (1.0, 2.0), mode)
            for mode in ("dirichlet_penalized", "neumann_block1")
            for dims, spacing, blocks in [
                ((8, 8), (1.0, 1.0), (1, 1)),
                ((6, 5, 4), (0.5, 2.0, 0.7), (1, 2)),
                ((6, 5), (1e3, 1e-3), (1, 1)),
            ]
        ] + [
            ((2, 5), (0.3, 1.7), (1, 1), (1.0, 3.0), "dirichlet_penalized"),
            ((5, 4, 3), (0.5, 2.0, 0.7), (2, 1), (1.0, 2.0), "dirichlet_penalized"),
        ]
        for args in grids:
            spec = GridSpec(*args)
            assert estimate_opnorm(spec) / 1.01 == pytest.approx(_dense_opnorm(spec), rel=1e-12)

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
    @pytest.mark.parametrize(
        "h", [1e-200, 1e-160, 1.5e-154, 1e-150, 1e-70, 1e80, 1e90, 1e150]
    )
    def test_spacing_without_finite_step_rejected(self, h, kind):
        # Below 1.5e-154 the cell volume is subnormal and GridSpec rejects
        # the spacing.  Every spacing it accepts has a finite positive
        # step.  The small ones certify; there the elliptic's whole scale
        # is below the tolerance, so it certifies u = 0 at iteration 0.
        # The resolvent certifies from 1e-70 down only from the start 0,
        # and at 1e80 and 1e90 only from the start g, so the cases cover
        # both sides of its start rule.  At 1e150 its trace term (norm
        # h^-1/2) dwarfs its gradient (norm h^-1) and PDHG stalls, but the
        # active-set polish certifies it.  The elliptic from 1e80 up does
        # not certify: its optimum with f = 1 overflows.  The report says
        # so, with no NaN.
        data = np.zeros((8, 8))
        data[:4] = 1.0
        if h < 1.5e-154:
            with pytest.raises(InvalidInputError, match=r"spacing \("):
                GridSpec((8, 8), (h, h), (1, 1), (1.0, 2.0))
            return
        spec = GridSpec((8, 8), (h, h), (1, 1), (1.0, 2.0))
        assert 0.0 < 1.0 / estimate_opnorm(spec) < np.inf

        def solve(opts):
            if kind == "elliptic":
                return solve_elliptic(np.ones((8, 8)), spec, opts)
            return solve_resolvent(data, 0.1, spec, opts)

        if h < 1.0:
            rep = solve(SolveOptions()).report
            assert rep.converged and rep.final_gap <= 1e-8 * (1.0 + abs(rep.primal_value))
            assert rep.certificate.sup_norm_z1 <= 1.0 and rep.certificate.trace_sup <= 1.0
            assert (rep.iterations == 0) == (kind == "elliptic")
            return
        if kind == "resolvent":
            rep = solve(SolveOptions(max_iter=1000)).report
            assert rep.converged and rep.final_gap <= 1e-8 * (1.0 + abs(rep.primal_value))
            assert rep.certificate.sup_norm_z1 <= 1.0 and rep.certificate.trace_sup <= 1.0
            assert not np.isnan(np.array(rep.gap_history)).any()
            return
        with pytest.raises(NonConvergenceError) as err:
            solve(SolveOptions(max_iter=1000))
        rep = err.value.report
        assert rep.iterations == 1000 and not rep.converged
        assert not np.isnan(np.array(rep.gap_history)).any()

    def test_overflowed_primal_value_is_not_kept(self):
        # at h = 1e150 the source term -<f, u> * vol of an iterate is -inf,
        # which is no upper bound on the minimum
        spec = GridSpec((8, 8), (1e150, 1e150), (1, 1), (1.0, 2.0))
        with pytest.raises(NonConvergenceError) as err:
            solve_elliptic(np.ones((8, 8)), spec, SolveOptions(max_iter=1000))
        rep = err.value.report
        assert rep.primal_value > -np.inf
        assert not np.isnan(np.array(rep.gap_history)).any()


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

    @pytest.mark.parametrize("p", [4.0, 10.0, 1e3, 1e6])
    def test_large_exponent_certifies(self, p):
        # q = p/(p-1) <= 4/3: the conjugate equation has infinite slope at
        # 0, so the power prox solves its Moreau dual; at p = 1e6 the power
        # term of a checked iterate is inf, without an overflow warning
        spec = GridSpec((8, 8), (1.0, 1.0), (1, 1), (1.0, p), "dirichlet_penalized")
        rep = solve_elliptic(np.ones(spec.dims), spec).report
        assert rep.converged
        assert rep.final_gap <= 1e-8 * (1.0 + abs(rep.primal_value))
        assert rep.certificate.divergence_residual <= 1e-12 * (1.0 + abs(rep.primal_value))

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(GridSpec((16, 16), (1.0, 1.0), (1, 1), (1.0, 1.5)), id="16x16-p1.5"),
            pytest.param(GridSpec((8, 8), (1.0, 1.0), (1, 1), (1.0, 1.1)), id="p1.1"),
            pytest.param(GridSpec((8, 8), (100.0, 100.0), (1, 1), (1.0, 2.0)), id="h100"),
            pytest.param(GridSpec((8, 8), (10.0, 0.1), (1, 1), (1.0, 2.0)), id="h10x0.1"),
        ],
    )
    def test_adaptive_weight_certifies(self, spec):
        # none certifies within 50000 iterations at the fixed weight omega = 1
        rep = solve_elliptic(np.ones(spec.dims), spec).report
        assert rep.converged
        assert rep.final_gap <= 1e-8 * (1.0 + abs(rep.primal_value))
        assert rep.certificate.divergence_residual <= 1e-12 * (1.0 + abs(rep.primal_value))

    def test_restoration_ignores_the_last_component(self):
        # the restored dual is rebuilt from the other components, so a huge
        # last component cannot cancel into it
        rng = np.random.default_rng(23)
        prob = _Problem("elliptic", np.ones((8, 8)), DIR, None, SolveOptions())
        y = np.clip(rng.standard_normal((2, 8, 8)), -0.5, 0.5)
        v0 = np.clip(rng.standard_normal(boundary_face_count(DIR)), -1.0, 1.0)
        value, restored, _ = prob.dual(y, v0)
        y[-1] += 1e15 * rng.standard_normal((8, 8))
        value_big, restored_big, _ = prob.dual(y, v0)
        np.testing.assert_array_equal(restored_big, restored)
        assert value_big == value
        assert np.max(np.abs(div_blocks(restored, DIR, v0) + 1.0)) <= 1e-12

    def test_neumann_mode_has_no_boundary_dual(self):
        res = solve_elliptic(np.ones((8, 8)), NEU, SolveOptions(gap_tol=1e-6))
        assert res.v0 is None

    def test_gap_history_is_monotone(self):
        res = solve_elliptic(np.ones((8, 8)), DIR, SolveOptions(gap_tol=1e-9))
        gaps = [row[1] for row in res.report.gap_history]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))

    def test_budget_exhaustion_carries_report(self):
        # at p = 2 the active-set polish certifies at iteration 10
        spec = GridSpec((8, 8), (1.0, 1.0), (1, 1), (1.0, 3.0), "neumann_block1")
        with pytest.raises(NonConvergenceError) as err:
            solve_elliptic(np.ones((8, 8)), spec, SolveOptions(max_iter=10, gap_tol=1e-14))
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

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(NEU, id="neu-8x8-p2"),
            pytest.param(GridSpec((8, 8), (1.0, 1.0), (1, 1), (1.0, 3.0)), id="dir-8x8-p3"),
            pytest.param(GridSpec((6, 5, 4), (1.0,) * 3, (2, 1), (1.0, 2.0)), id="dir-3d-p2"),
            pytest.param(
                GridSpec((6, 5, 4), (0.5, 1.0, 1.0), (1, 2), (1.0, 3.0), "neumann_block1"),
                id="neu-3d-p3",
            ),
        ],
    )
    def test_returned_pair_is_exact(self, spec):
        # u is the exact primal of the returned dual point: u = g + tau * A*(z, v0)
        g = np.random.default_rng(21).standard_normal(spec.dims)
        res = solve_resolvent(g, 0.1, spec)
        exact = g + 0.1 * div_blocks(res.z, spec, res.v0)
        assert np.max(np.abs(res.u - exact)) <= 1e-13 * np.max(np.abs(res.u))
        cert = res.report.certificate
        scale = 1.0 + abs(res.report.primal_value)
        parts = cert.pairing_gap + sum(cert.young_terms) + cert.boundary_sign_total
        assert parts == pytest.approx(res.report.final_gap, rel=0.0, abs=1e-12 * scale)

    def test_half_indicator_certifies_quickly(self):
        # 5850 iterations at the elliptic steps sigma = tau = 1/L
        spec = GridSpec((16, 16), (1.0, 1.0), (1, 1), (1.0, 2.0))
        g = np.zeros(spec.dims)
        g[:8] = 1.0
        rep = solve_resolvent(g, 0.1, spec).report
        assert rep.converged and rep.iterations <= 600

    def test_noiseless_64_certifies(self):
        # fails at the default budget with the elliptic steps
        spec = GridSpec((64, 64), (1.0, 1.0), (1, 1), (1.0, 2.0))
        g = np.zeros(spec.dims)
        g[:32] = 1.0
        assert solve_resolvent(g, 0.1, spec).report.converged

    def test_stationary_iterate_keeps_finite_steps(self, monkeypatch):
        # spacing (1e3, 1e-3) at p = 3 does not certify within 6000
        # iterations, and the weight may drift far from 1 meanwhile (at
        # p = 2 the active-set polish certifies it at iteration 10)
        steps = []
        quadratic = solver.prox_primal_quadratic

        def spy(w, tau, g, tau_time, out):
            steps.append(tau)
            return quadratic(w, tau, g, tau_time, out=out)

        monkeypatch.setattr(solver, "prox_primal_quadratic", spy)
        spec = GridSpec((8, 8), (1e3, 1e-3), (1, 1), (1.0, 3.0))
        g = np.zeros(spec.dims)
        g[:4] = 1.0
        with pytest.raises(NonConvergenceError) as err:
            solve_resolvent(g, 0.1, spec, SolveOptions(max_iter=6000))
        assert all(0.0 < tau < np.inf for tau in steps)
        rep = err.value.report
        assert all(np.isfinite([rep.primal_value, rep.dual_value, rep.final_gap]))
        assert np.all(np.isfinite(rep.gap_history))

    def test_infinite_gap_does_not_certify(self):
        # at p = 1e6 the start pair (g, z = 0) has an inf primal value, and
        # inf <= gap_tol * (1 + inf) must not count as certified
        spec = GridSpec((8, 8), (1.0, 1.0), (1, 1), (1.0, 1e6))
        g = np.zeros(spec.dims)
        g[:4] = 2.0
        rep = solve_resolvent(g, 0.1, spec).report
        assert rep.converged and rep.iterations > 0
        assert rep.final_gap <= 1e-8 * (1.0 + abs(rep.primal_value))
        # while the certified gap is inf the source bracket is logged, not inf - inf
        assert rep.gap_history[0][1:3] == (np.inf, np.inf)
        assert not np.any(np.isnan(rep.gap_history))
        assert all(abs(row[3]) <= 1e-12 for row in rep.gap_history if np.isinf(row[1]))

    def test_weight_update_skips_degenerate_movements(self):
        prob = _Problem("resolvent", np.ones((8, 8)), DIR, 0.1, SolveOptions())
        u = np.ones((8, 8))
        y = np.full((2, 8, 8), 0.5)
        v0 = np.zeros(boundary_face_count(DIR))

        def last():
            return (u.copy(), y.copy(), v0.copy())

        assert _reweight(3.0, prob, last(), u, y, v0) == 3.0  # nothing moved
        assert _reweight(3.0, prob, last(), u + 1.0, y, v0) == 3.0  # the dual did not move
        assert _reweight(1e300, prob, last(), u + 1e-300, y + 1.0, v0) == 1e300  # overflow
        # |du| = 8 and |d(y, v0)| = sqrt(128 + 16) over 16 unit faces, so
        # omega -> sqrt(2 * 12 / 8)
        assert _reweight(2.0, prob, last(), u + 1.0, y + 1.0, v0 + 1.0) == pytest.approx(3.0**0.5)

    def test_large_exponent_law_does_not_warn(self):
        # |grad u|^(p - 2) overflows in the certificate's constitutive law;
        # inf is its value there, and the solve reports it without a warning
        spec = GridSpec((4, 4), (7.4e-21, 9.7e-17), (1, 1), (1.0, 1.66e5), "neumann_block1")
        g = np.random.default_rng(0).standard_normal((4, 4))
        with pytest.raises(NonConvergenceError):
            solve_resolvent(g, 29.0, spec, SolveOptions(max_iter=1))

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

    def test_overflowed_candidate_bounds_nothing(self):
        # the exact primal g + tau_time * A*(y) of this dual overflows: it is
        # skipped, without a warning, and the kept pair stays
        spec = GridSpec((4, 4), (1.0, 1.0), (1, 1), (1.0, 2.0), "neumann_block1")
        prob = _Problem("resolvent", np.ones((4, 4)), spec, 29.0, SolveOptions())
        u, y = np.ones((4, 4)), np.zeros((2, 4, 4))
        track = _Tracker(prob, u, y, None)
        track.check(0, u, y, None)
        big = np.where(np.indices(y.shape).sum(axis=0) % 2, 1e308, -1e308)
        assert not track.check(1, u, big, None)
        assert track.history[1][1:] == track.history[0][1:]
        np.testing.assert_array_equal(track.dual[1], y)

    @pytest.mark.parametrize("spec", [NEU, DIR], ids=["neumann", "dirichlet"])
    @pytest.mark.parametrize("kind", ["elliptic", "resolvent"])
    def test_returned_pair_certifies_at_once(self, kind, spec):
        # (u, z, v0) as a solve returns it is a certified pair: offered to a
        # fresh check it certifies with exactly the reported gap
        opts = SolveOptions(gap_tol=1e-9)
        if kind == "elliptic":
            data = np.ones((8, 8))
            res = solve_elliptic(data, spec, opts)
        else:
            data = np.random.default_rng(5).standard_normal((8, 8))
            res = solve_resolvent(data, 0.1, spec, opts)
        track = _Tracker(_Problem(kind, data, spec, 0.1, opts), res.u, res.z, res.v0)
        assert track.check(0, res.u, res.z, res.v0)
        assert track.history[0][1] == res.report.final_gap


    @pytest.mark.parametrize("spec", [NEU, DIR], ids=["neumann", "dirichlet"])
    @pytest.mark.parametrize("kind", ["elliptic", "resolvent"])
    def test_one_gradient_per_checked_point(self, kind, spec, monkeypatch):
        # one per iteration, one per primal candidate of a check (the
        # iterate alone at iteration 0, then two, plus the polished point
        # from iteration 10 on), one for the certificate
        calls = []
        real = grid._grad_impl

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        for mod in (grid, energy, certificates, solver):
            monkeypatch.setattr(mod, "_grad_impl", counted)
        if kind == "elliptic":
            rep = solve_elliptic(np.ones((8, 8)), spec).report
        else:
            data = np.zeros((8, 8))
            data[:4] = 1.0
            rep = solve_resolvent(data, 0.1, spec).report
        checks = len(rep.gap_history)
        assert rep.converged and checks > 1
        assert len(calls) == rep.iterations + (1 + 3 * (checks - 1)) + 1


class TestCheckSchedule:
    # a check at every multiple of residual_check_every and at max_iter,
    # plus at most one added check strictly between two multiples

    @staticmethod
    def _added_rows(rep, opts):
        its = [row[0] for row in rep.gap_history]
        assert its[0] == 0 and its == sorted(set(its))
        added = [it for it in its if it % opts.residual_check_every and it != opts.max_iter]
        bins = [it // opts.residual_check_every for it in added]
        assert len(set(bins)) == len(bins)
        return added

    def test_row_layout(self):
        half = np.zeros((8, 8))
        half[:4] = 1.0
        opts = SolveOptions()
        n_added = 0
        # the active-set polish certifies p = 2 at iteration 10, so the
        # added checks show at p = 3
        p3 = [GridSpec((8, 8), (1.0, 1.0), (1, 1), (1.0, 3.0), s.boundary_mode) for s in (NEU, DIR)]
        for spec in (NEU, DIR, *p3):
            for rep in (
                solve_elliptic(np.ones((8, 8)), spec, opts).report,
                solve_resolvent(half, 0.1, spec, opts).report,
            ):
                n_added += len(self._added_rows(rep, opts))
        tight = SolveOptions(max_iter=333, gap_tol=1e-15)
        with pytest.raises(NonConvergenceError) as err:
            solve_elliptic(np.ones((8, 8)), p3[1], tight)
        rep = err.value.report
        assert rep.gap_history[-1][0] == 333
        n_added += len(self._added_rows(rep, tight))
        assert n_added > 0

    def test_certifies_at_the_predicted_crossing(self):
        # the gap crosses its tolerance between iterations 200 and 250;
        # a multiples-only schedule certifies at 250 (at p = 2 the
        # active-set polish certifies at 10)
        spec = GridSpec((32, 32), (1.0, 1.0), (1, 1), (1.0, 3.0), "neumann_block1")
        g = np.zeros(spec.dims)
        g[:16] = 1.0
        g += 0.5 * np.random.default_rng(10).standard_normal(spec.dims)
        rep = solve_resolvent(g, 0.1, spec).report
        assert rep.converged and rep.iterations % 50 != 0
        assert rep.gap_history[-1][0] == rep.iterations
        assert rep.gap_history[-2][0] == 200
        assert rep.final_gap <= 1e-8 * (1.0 + abs(rep.primal_value))


class TestPolish:
    # the active-set polish: every exponent 2 and a one-axis block 1, on
    # any grid; a few active-set rounds per check, each a dense solve up to
    # polish._DENSE_UNKNOWNS unknowns and a matrix-free CG above

    @pytest.mark.parametrize(
        "kind, h", [("resolvent", (1e3, 1e-3)), ("resolvent", (1e2, 1e-2)), ("elliptic", (1e6, 1e6))]
    )
    def test_stalled_solves_certify(self, kind, h):
        # none of these certifies within its budget without the polish, and
        # one guess per check took the resolvents 11950 and 2700 iterations;
        # the resolvent at spacing 1e150 is a case of the spacing test above
        spec = GridSpec((8, 8), h, (1, 1), (1.0, 2.0))
        if kind == "elliptic":
            rep = solve_elliptic(np.ones((8, 8)), spec).report
        else:
            g = np.zeros((8, 8))
            g[:4] = 1.0
            rep = solve_resolvent(g, 0.1, spec).report
        assert rep.converged and rep.final_gap <= 1e-8 * (1.0 + abs(rep.primal_value))
        assert rep.iterations <= 100
        assert rep.certificate.sup_norm_z1 <= 1.0 and rep.certificate.trace_sup <= 1.0

    def test_certifies_16x16_elliptic_at_once(self):
        # 1850 iterations without the polish
        spec = GridSpec((16, 16), (1.0, 1.0), (1, 1), (1.0, 2.0))
        rep = solve_elliptic(np.ones(spec.dims), spec).report
        assert rep.converged and rep.iterations <= 100
        assert rep.certificate.divergence_residual <= 1e-12 * (1.0 + abs(rep.primal_value))

    def test_certifies_64x64_elliptic_at_once(self):
        # 10400 iterations without the polish; its first round's reduced
        # system is solved by CG
        spec = GridSpec((64, 64), (1.0, 1.0), (1, 1), (1.0, 2.0))
        rep = solve_elliptic(np.ones(spec.dims), spec).report
        assert rep.converged and rep.iterations <= 100
        assert rep.certificate.divergence_residual <= 1e-12 * (1.0 + abs(rep.primal_value))

    def test_certified_gap_is_negative_only_by_roundoff(self):
        # primal and dual values of the polished pair are computed apart:
        # at primal -4.4e7 this gap reads -1.2e-7, and it is not clamped
        spec = GridSpec((128, 128), (1.0, 1.0), (1, 1), (1.0, 2.0))
        rep = solve_elliptic(np.ones(spec.dims), spec).report
        assert rep.converged
        assert rep.final_gap >= -1e-14 * (1.0 + abs(rep.primal_value))

    def test_certifies_noisy_256x256_resolvent_at_once(self):
        # a denoising step: about 200 iterations without the polish
        spec = GridSpec((256, 256), (1.0, 1.0), (1, 1), (1.0, 2.0), "neumann_block1")
        g = np.zeros(spec.dims)
        g[:128] = 1.0
        g += 0.5 * np.random.default_rng(3).standard_normal(spec.dims)
        res = solve_resolvent(g, 0.1, spec)
        rep = res.report
        assert rep.converged and rep.iterations <= 100
        assert rep.final_gap <= 1e-8 * (1.0 + abs(rep.primal_value))
        assert np.max(np.abs(res.u - g - 0.1 * div_blocks(res.z, spec, res.v0))) <= 1e-12

    def test_large_systems_skip_the_dense_solve(self, monkeypatch):
        # above polish._DENSE_UNKNOWNS unknowns only CG runs: a threaded LU
        # stalls from about 100 unknowns where BLAS threads are not pinned
        sizes, solved = [], []
        dense, pcg = np.linalg.solve, polish._pcg
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: sizes.append(b.size) or dense(a, b))
        monkeypatch.setattr(polish, "_pcg", lambda *a: solved.append(a[1].size) or pcg(*a))
        spec = GridSpec((16, 16), (1.0, 1.0), (1, 1), (1.0, 2.0))
        g = np.zeros(spec.dims)
        g[:8] = 1.0
        g += 0.5 * np.random.default_rng(4).standard_normal(spec.dims)
        assert solve_resolvent(g, 0.1, spec).report.converged  # about 200 unknowns
        assert solve_elliptic(np.ones(spec.dims), spec).report.converged  # 16
        assert solved and min(solved) > polish._DENSE_UNKNOWNS
        assert sizes and max(sizes) <= polish._DENSE_UNKNOWNS

    @pytest.mark.parametrize("mode", ["neumann_block1", "dirichlet_penalized"])
    def test_cg_matches_the_dense_solve(self, mode, monkeypatch):
        # the u of one round on a 16x16 grid (about 170 unknowns), its
        # reduced system solved by CG and densely
        spec = GridSpec((16, 16), (0.5, 2.0), (1, 1), (1.0, 2.0), mode)
        rng = np.random.default_rng(31)
        g = rng.standard_normal(spec.dims)
        prob = _Problem("resolvent", g, spec, 0.1, SolveOptions())
        y = np.clip(2.0 * rng.standard_normal((2,) + spec.dims), -1.0, 1.0)
        v0 = np.clip(2.0 * rng.standard_normal(boundary_face_count(spec)), -1.0, 1.0)
        monkeypatch.setattr(polish, "_ROUNDS", 1)
        points = []
        for cap in (0, 10**6):
            monkeypatch.setattr(polish, "_DENSE_UNKNOWNS", cap)
            points.append(polish.candidate(prob, g, y, v0))
        (cg, *_), (lu, *_) = points
        assert np.max(np.abs(cg - lu)) <= 1e-12 * np.max(np.abs(lu))

    @staticmethod
    def _noisy_resolvent():
        # a 32x32 denoising step and a projected dual point far from its optimum
        spec = GridSpec((32, 32), (1.0, 1.0), (1, 1), (1.0, 2.0), "neumann_block1")
        g = np.zeros(spec.dims)
        g[:16] = 1.0
        g += 0.5 * np.random.default_rng(10).standard_normal(spec.dims)
        y = np.clip(np.random.default_rng(2).standard_normal((2,) + spec.dims), -1.0, 1.0)
        return _Problem("resolvent", g, spec, 0.1, SolveOptions()), y

    def test_rounds_stop_at_the_cap(self, monkeypatch):
        # this point takes more than two rounds, so a cap of two cuts it short
        calls = []
        real = polish._round
        monkeypatch.setattr(polish, "_round", lambda *a: calls.append(None) or real(*a))
        prob, y = self._noisy_resolvent()
        full = polish.candidate(prob, prob.g, y, None)
        n_full = len(calls)
        monkeypatch.setattr(polish, "_ROUNDS", 2)
        calls.clear()
        capped = polish.candidate(prob, prob.g, y, None)
        assert n_full > 2 and len(calls) == 2
        assert np.isfinite(capped[0]).all() and np.max(np.abs(capped[1][0])) <= 1.0
        assert not np.array_equal(full[0], capped[0])

    def test_failed_round_keeps_the_last_point(self, monkeypatch):
        # a round whose CG breaks down offers the round before it; a first
        # round that fails offers nothing
        prob, y = self._noisy_resolvent()
        monkeypatch.setattr(polish, "_ROUNDS", 1)
        first = polish.candidate(prob, prob.g, y, None)
        monkeypatch.setattr(polish, "_ROUNDS", 8)
        calls, pcg = [], polish._pcg

        def broken(apply, b, diag, x):
            calls.append(None)
            return pcg(apply, b, diag, x) if len(calls) == 1 else np.full(b.size, np.nan)

        monkeypatch.setattr(polish, "_pcg", broken)
        kept = polish.candidate(prob, prob.g, y, None)
        assert len(calls) == 2
        for a, b in zip(kept[:2], first[:2]):
            np.testing.assert_array_equal(a, b)
        assert polish.candidate(prob, prob.g, y, None) is None

    @pytest.mark.parametrize("kind", ["elliptic", "resolvent"])
    @pytest.mark.parametrize("max_iter", [1, 9])
    def test_first_check_polishes_nothing(self, kind, max_iter, monkeypatch):
        # a solve that ends before the first polish (a warm-up solve) neither
        # polishes nor builds the operators
        calls = []
        real = polish.candidate
        monkeypatch.setattr(polish, "candidate", lambda *a: calls.append(a) or real(*a))
        spec = GridSpec((8, 8), (0.75, 1.25), (1, 1), (1.0, 2.0))
        half = np.zeros(spec.dims)
        half[:4] = 1.0

        def run(opts):
            if kind == "elliptic":
                return solve_elliptic(np.ones(spec.dims), spec, opts)
            return solve_resolvent(half, 0.1, spec, opts)

        polish._operators.cache_clear()
        with pytest.raises(NonConvergenceError):
            run(SolveOptions(max_iter=max_iter))
        assert not calls and polish._operators.cache_info().currsize == 0
        run(SolveOptions())
        assert calls and polish._operators.cache_info().currsize == 1

    def test_early_check_certifies(self):
        # an 8x8 half-indicator step certifies at the check added at
        # iteration solver._FIRST_POLISH
        g = np.zeros((8, 8))
        g[:4] = 1.0
        rep = solve_resolvent(g, 0.1, DIR).report
        assert rep.converged and rep.iterations == solver._FIRST_POLISH == 10
        assert [row[0] for row in rep.gap_history] == [0, 10]

    def test_early_check_keeps_the_weight(self, monkeypatch):
        # the early polish does not certify this solve, and the check at
        # iteration 10 leaves the primal weight alone: run there, the weight
        # gate took it to iteration 100
        calls = []
        real = solver._reweight
        monkeypatch.setattr(solver, "_reweight", lambda *a: calls.append(a) or real(*a))
        spec = GridSpec((8, 8), (10.0, 0.1), (1, 1), (1.0, 2.0))
        rep = solve_elliptic(np.ones(spec.dims), spec).report
        assert rep.converged and [row[0] for row in rep.gap_history] == [0, 10, 50]
        assert not calls

    def test_early_check_leaves_the_schedule(self):
        # 128x128 dirichlet f = 1: the early polish does not certify, and
        # the solve certifies at iteration 50 as without it; with the weight
        # gate run at iteration 10 it took 2050 iterations
        spec = GridSpec((128, 128), (1.0, 1.0), (1, 1), (1.0, 2.0), "dirichlet_penalized")
        rep = solve_elliptic(np.ones(spec.dims), spec).report
        assert rep.converged and [row[0] for row in rep.gap_history] == [0, 10, 50]

    def test_p3_history_is_unchanged(self):
        # outside the polish every check is the one the plain iteration gives
        spec = GridSpec((8, 8), (1.0, 1.0), (1, 1), (1.0, 3.0))
        g = np.zeros(spec.dims)
        g[:4] = 1.0
        rep = solve_resolvent(g, 0.1, spec).report
        assert rep.gap_history == [
            (0, 17.333333333333336, 17.333333333333336, 0.0),
            (50, 0.2647585423802816, 0.26475854238028257, -9.43689570931383e-16),
            (100, 0.04850921583237877, 0.0485092158323779, 8.743006318923108e-16),
            (150, 0.0004230138874561362, 0.00042301388745375656, 2.3796611382798094e-15),
            (200, 7.212008767965017e-13, 7.189888831755762e-13, 2.2119936209254806e-15),
        ]


class TestDualityGap:
    def test_reproduces_solver_report(self):
        # the certified gap is the primal value at u minus the dual value
        opts = SolveOptions(gap_tol=1e-9)
        for spec in (NEU, DIR):
            f = np.ones((8, 8))
            res = solve_elliptic(f, spec, opts)
            rep = res.report
            assert eval_J(res.u, f, spec).total - rep.dual_value == rep.final_gap
