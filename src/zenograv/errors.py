"""Exception hierarchy shared across the toolkit."""


class ZenogravError(Exception):
    """Base class for all toolkit errors.  ``cells``, a bool array, marks
    the elements of an elementwise evaluation that failed (None: all)."""

    def __init__(self, *args, cells=None):
        super().__init__(*args)
        self.cells = cells


class InvalidParameterError(ZenogravError, ValueError):
    """A physical parameter is outside its documented domain."""


class UnterminatedTrajectoryError(ZenogravError):
    """Integration hit the time cutoff before the probe escaped."""


class IntegratorFailureError(ZenogravError):
    """The ODE integrator produced a non-finite state."""


class RateOverflowError(ZenogravError):
    """A rate overflows the float range although its inputs are valid."""


class ProjectionSingularError(ZenogravError):
    """Direction coincides with the projection pole."""


class GridInsufficientError(ZenogravError):
    """Eigensolver grid too narrow: the wavefunction reaches the boundary."""
