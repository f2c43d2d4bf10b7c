"""Certified finite-difference solver for mixed linear/power-growth problems.

The first coordinate block carries a linear-growth (total-variation)
term, the remaining blocks carry power-growth terms.  Every solve
returns, alongside the solution, a certificate that checks the weak
optimality conditions and a primal-dual gap bound.
"""

import importlib

from .certificates import (
    Certificate,
    check_weak_solution,
    gauss_green_residual,
    pairing_measure,
    theta_density,
)
from .energy import (
    CoareaCheck,
    EnergyBreakdown,
    coarea_check,
    eval_F,
    eval_J,
    poincare_check,
    tv_block1,
)
from .errors import (
    InvalidInputError,
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
    weak_normal_trace,
)
from .prox import (
    project_ball,
    project_interval,
    prox_power_conj,
    prox_primal_linear,
    prox_primal_quadratic,
)
from .solver import (
    SolveOptions,
    SolveReport,
    SolveResult,
    solve_elliptic,
    solve_resolvent,
)

__version__ = "0.1.0"

# No solve uses the file formats, the reference minimizer or the battery,
# so their modules are imported on first access to one of their names.
_LAZY = {
    "RunConfig": "io",
    "emit_report": "io",
    "parse_config": "io",
    "read_field": "io",
    "write_field": "io",
    "oracle_minimize": "oracle",
    "run_selftest": "selftest",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "Certificate",
    "CoareaCheck",
    "EnergyBreakdown",
    "GridSpec",
    "InvalidInputError",
    "NonConvergenceError",
    "NumericalFailureError",
    "RunConfig",
    "SolveOptions",
    "SolveReport",
    "SolveResult",
    "Trajectory",
    "accretivity_probe",
    "boundary_restriction",
    "check_weak_solution",
    "coarea_check",
    "comparison_test",
    "div_blocks",
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
    "project_ball",
    "project_interval",
    "prox_power_conj",
    "prox_primal_linear",
    "prox_primal_quadratic",
    "read_field",
    "run_selftest",
    "solve_elliptic",
    "solve_resolvent",
    "theta_density",
    "tv_block1",
    "weak_normal_trace",
    "write_field",
]
