"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """A field, spec, or config does not satisfy its documented contract."""


class NumericalFailureError(RuntimeError):
    """An iterative kernel failed to reach its tolerance.

    Carries the offending residual (scalar solves) or the stage index
    (continuation runs) so callers can report what went wrong.
    """

    def __init__(self, message, residual=None, stage=None):
        super().__init__(message)
        self.residual = residual
        self.stage = stage


class NonConvergenceError(RuntimeError):
    """A solver hit its iteration budget before certifying convergence.

    The last solve report is attached; the solver never returns silently
    with an uncertified result.  From ``evolve``, ``step`` is the failing
    step and ``trajectory`` the ``Trajectory`` of the steps certified
    before it.
    """

    def __init__(self, message, report=None, step=None, trajectory=None):
        super().__init__(message)
        self.report = report
        self.step = step
        self.trajectory = trajectory
