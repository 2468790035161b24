"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A parameter set violates a model invariant (bad temperatures, zeta <= 1, ...)."""


class ConvergenceError(RuntimeError):
    """An iterative routine (quadrature refinement, root bracketing) did not converge.

    ``failed_points`` optionally lists the grid points that could not be solved,
    so callers can report them in diagnostics, as ``(point, reason)`` pairs
    whose reason is text saying why that point failed.
    """

    def __init__(self, message, failed_points=None):
        super().__init__(message)
        self.failed_points = list(failed_points) if failed_points else []


class PositivityError(RuntimeError):
    """A computed excited population left the physical range [0, 1].

    For the perturbed state this signals that the duration is too short for
    the slow-driving expansion; for the integrator, that the step size is
    too large.  The offending population is reported, never silently clipped.
    """
