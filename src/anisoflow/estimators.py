"""Estimator-style wrappers with get_params/set_params semantics.

Each estimator is configured in ``__init__``, run via ``fit``, and
exposes results through trailing-underscore attributes.  ``fit`` returns
``self`` so calls chain.
"""

from __future__ import annotations

import inspect

from .errors import InvalidInputError
from .flow import evolve
from .solver import SolveOptions, solve_elliptic, solve_resolvent


class BaseEstimator:
    """Parameter introspection shared by the concrete estimators."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return tuple(name for name in sig.parameters if name != "self")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = self._param_names()
        for name, value in params.items():
            if name not in valid:
                raise InvalidInputError(
                    f"unknown parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {valid}"
                )
            setattr(self, name, value)
        return self

    def _options(self) -> SolveOptions:
        return SolveOptions(
            max_iter=self.max_iter,
            gap_tol=self.gap_tol,
            tv_norm=self.tv_norm,
        )

    def _spec(self):
        if self.spec is None:
            raise InvalidInputError("set spec to a GridSpec before calling fit")
        return self.spec


class EllipticSolver(BaseEstimator):
    """Solves the source-driven problem for a fixed grid description.

    After ``fit(f)``: ``u_`` (solution), ``z_`` (dual field), ``v0_``
    (boundary dual or None), ``report_``, ``certificate_``.
    """

    def __init__(self, spec=None, max_iter=50000, gap_tol=1e-8,
                 tv_norm="euclidean"):
        self.spec = spec
        self.max_iter = max_iter
        self.gap_tol = gap_tol
        self.tv_norm = tv_norm

    def fit(self, f):
        result = solve_elliptic(f, self._spec(), self._options())
        self.u_ = result.u
        self.z_ = result.z
        self.v0_ = result.v0
        self.report_ = result.report
        self.certificate_ = result.report.certificate
        return self


class ResolventStep(BaseEstimator):
    """One implicit step of the gradient flow from a given state.

    ``fit(g)`` solves the proximal problem at time step ``tau_time``;
    ``transform(g)`` additionally returns the new state.
    """

    def __init__(self, spec=None, tau_time=1.0, max_iter=50000, gap_tol=1e-8,
                 tv_norm="euclidean"):
        self.spec = spec
        self.tau_time = tau_time
        self.max_iter = max_iter
        self.gap_tol = gap_tol
        self.tv_norm = tv_norm

    def fit(self, g):
        result = solve_resolvent(g, self.tau_time, self._spec(), self._options())
        self.u_ = result.u
        self.z_ = result.z
        self.v0_ = result.v0
        self.report_ = result.report
        self.certificate_ = result.report.certificate
        return self

    def transform(self, g):
        return self.fit(g).u_


class GradientFlow(BaseEstimator):
    """Runs ``n_steps`` implicit steps and keeps the whole trajectory.

    After ``fit(u0)``: ``trajectory_`` (states, energies, per-step
    gaps and certificates) and ``u_`` (final state).
    """

    def __init__(self, spec=None, tau_time=1.0, n_steps=1, stride=1,
                 warm_start=False, max_iter=50000, gap_tol=1e-8,
                 tv_norm="euclidean"):
        self.spec = spec
        self.tau_time = tau_time
        self.n_steps = n_steps
        self.stride = stride
        self.warm_start = warm_start
        self.max_iter = max_iter
        self.gap_tol = gap_tol
        self.tv_norm = tv_norm

    def fit(self, u0):
        self.trajectory_ = evolve(
            u0,
            self._spec(),
            self.tau_time,
            self.n_steps,
            self._options(),
            stride=self.stride,
            warm_start=self.warm_start,
        )
        self.u_ = self.trajectory_.last
        return self

    def transform(self, u0):
        return self.fit(u0).u_
