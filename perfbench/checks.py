"""Output checks applied to every solve of every pass.

They restate acceptance criteria 4, 5 and 6 of the package's self-test
against the public results, recomputing values with plain numpy or the
public energy functions.  Each check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import numpy as np

REL = 1e-9  # primal recomputation, certificate parts and feasibility
DISSIPATION = 1e-12  # criterion 6, relative to 1 + |F(u_prev)|
ORDER = 1e-6  # criterion 5, relative to 1 + ||u1||_r + ||u2||_r


def _sq(u, spec) -> float:
    return float(np.vdot(u, u)) * spec.cell_volume


def _lp(u, r, spec) -> float:
    if np.isinf(r):
        return float(np.max(np.abs(u)))
    return float(np.sum(np.abs(u) ** r) * spec.cell_volume) ** (1.0 / r)


def check_solve(af, kind: str, data, res, spec, tau_time, gap_tol) -> list[str]:
    """Certified gap, recomputed primal value and criterion-4 certificate."""
    rep = res.report
    problems = []
    if kind == "elliptic":
        primal = af.eval_J(res.u, data, spec).total
    else:
        primal = af.eval_F(res.u, spec).total + 0.5 / tau_time * _sq(res.u - data, spec)
    scale = 1.0 + abs(primal)
    if not rep.converged:
        problems.append("report not converged")
    if not rep.final_gap <= gap_tol * (1.0 + abs(rep.primal_value)):
        problems.append(f"gap {rep.final_gap:.3e} above tolerance")
    if not abs(primal - rep.primal_value) <= REL * scale:
        problems.append(f"primal {rep.primal_value!r} recomputes as {primal!r}")
    cert = rep.certificate
    parts = (cert.pairing_gap, *cert.young_terms, cert.boundary_sign_total)
    if not cert.sup_norm_z1 <= 1.0 + REL:
        problems.append(f"sup |z1| = {cert.sup_norm_z1!r} above 1")
    if not all(t >= -REL * scale for t in parts):
        problems.append(f"negative gap decomposition term in {parts}")
    if not sum(parts) <= cert.gap + REL * scale:
        problems.append(f"decomposition {sum(parts)!r} exceeds gap {cert.gap!r}")
    return problems


def check_dissipation(af, traj, spec, tau_time) -> list[str]:
    """Criterion 6 along one trajectory, every step stored (stride 1)."""
    problems = []
    energies = [af.eval_F(u, spec).total for u in traj.states]
    for n, gap in enumerate(traj.step_gaps):
        du = traj.states[n + 1] - traj.states[n]
        slack = energies[n + 1] + 0.5 / tau_time * _sq(du, spec) - energies[n] - gap
        if not slack <= DISSIPATION * (1.0 + abs(energies[n])):
            problems.append(f"step {n + 1} dissipation excess {slack:.3e}")
    return problems


def check_order(pair, spec) -> list[str]:
    """Criterion 5 for one pair of trajectories started from u1 <= u2."""
    (u1, t1), (u2, t2) = pair
    problems = []
    for r in (1.0, 2.0, np.inf):
        base = _lp(np.maximum(u1 - u2, 0.0), r, spec)
        worst = max(
            _lp(np.maximum(a - b, 0.0), r, spec) - base
            for a, b in zip(t1.states[1:], t2.states[1:])
        )
        scale = 1.0 + _lp(u1, r, spec) + _lp(u2, r, spec)
        if not max(0.0, worst) / scale <= ORDER:
            problems.append(f"order violated in L^{r:g} by {worst:.3e}")
    return problems
