"""Certified finite-difference solver for mixed linear/power-growth problems.

The first coordinate block carries a linear-growth (total-variation)
term, the remaining blocks carry power-growth terms.  Every solve
returns, alongside the solution, a certificate that checks the weak
optimality conditions and a primal-dual gap bound.
"""

from .certificates import (
    Certificate,
    check_weak_solution,
    gauss_green_residual,
    pairing_measure,
    theta_density,
    theta_truncation_invariance,
    weak_normal_trace,
)
from .energy import (
    CoareaCheck,
    EnergyBreakdown,
    boundary_term,
    coarea_check,
    eval_F,
    eval_J,
    poincare_check,
    power_term,
    tv_block1,
)
from .errors import (
    InvalidInputError,
    InvalidStateError,
    NonConvergenceError,
    NumericalFailureError,
)
from .flow import Trajectory, accretivity_probe, comparison_test, evolve
from .grid import (
    GridSpec,
    boundary_restriction,
    div_blocks,
    grad_block,
    gradient,
    interior_divergence,
)
from .io import (
    RunConfig,
    emit_report,
    parse_config,
    read_field,
    write_field,
)
from .oracle import oracle_minimize, smoothed_energy
from .prox import (
    project_ball,
    project_interval,
    prox_power_conj,
    prox_primal_linear,
    prox_primal_quadratic,
)
from .selftest import run_selftest
from .solver import (
    DualState,
    SolveOptions,
    SolveReport,
    SolveResult,
    duality_gap,
    solve_elliptic,
    solve_resolvent,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CoareaCheck",
    "DualState",
    "EnergyBreakdown",
    "GridSpec",
    "InvalidInputError",
    "InvalidStateError",
    "NonConvergenceError",
    "NumericalFailureError",
    "RunConfig",
    "SolveOptions",
    "SolveReport",
    "SolveResult",
    "Trajectory",
    "accretivity_probe",
    "boundary_restriction",
    "boundary_term",
    "check_weak_solution",
    "coarea_check",
    "comparison_test",
    "div_blocks",
    "duality_gap",
    "emit_report",
    "eval_F",
    "eval_J",
    "evolve",
    "gauss_green_residual",
    "grad_block",
    "gradient",
    "interior_divergence",
    "oracle_minimize",
    "pairing_measure",
    "parse_config",
    "poincare_check",
    "power_term",
    "project_ball",
    "project_interval",
    "prox_power_conj",
    "prox_primal_linear",
    "prox_primal_quadratic",
    "read_field",
    "run_selftest",
    "smoothed_energy",
    "solve_elliptic",
    "solve_resolvent",
    "theta_density",
    "theta_truncation_invariance",
    "tv_block1",
    "weak_normal_trace",
    "write_field",
]
