"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter or argument violates a stated invariant."""


class ShapeError(ValueError):
    """An array argument has the wrong length or layout."""


class BoundaryError(ValueError):
    """The requested quantity is undefined for this boundary condition."""


class UnstableWindowError(ValueError):
    """A photonic mode frequency is <= 0: no stable normal state exists."""


class StepFailure(RuntimeError):
    """Adaptive step size underflowed.  Carries the last good state."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class ZeroModeMismatch(RuntimeError):
    """A site's spin vanished (no tangent plane)."""


class NotSettled(RuntimeError):
    """Relaxation reached t_max with the flow still above settle_tol."""

    def __init__(self, message, state=None, profile=None):
        super().__init__(message)
        self.state = state
        self.profile = profile


class BisectionFailure(RuntimeError):
    """Critical-coupling bisection found no sign change over its bracket."""
