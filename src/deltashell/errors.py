"""Exception types shared across the package."""


class DeltaShellError(Exception):
    """Base class for all deltashell errors."""


class SolverError(DeltaShellError):
    """Root finding failed (non-convergence, bad seed)."""

    def __init__(self, message, seed=None):
        super().__init__(message)
        self.seed = seed


class CompletenessError(SolverError):
    """Number of polished roots disagrees with the winding-number count."""


class BoundaryRootError(SolverError):
    """Rectangle boundary kept hitting a root after the maximum number of jitter retries."""


class NearPoleError(DeltaShellError):
    """Green's function requested too close to one of its poles."""


class QuadratureError(DeltaShellError):
    """Adaptive quadrature did not reach the requested tolerance.

    Carries the partial value and the error estimate for diagnostics.
    """

    def __init__(self, message, value=None, estimate=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


class NoCrossingError(DeltaShellError):
    """Pole trajectory does not cross the real axis inside the bracket."""


class TrajectoryLostError(DeltaShellError):
    """A traced pole sample did not converge or left its family."""


class NoTransitionError(DeltaShellError):
    """Exponential and power-law terms do not cross inside the search bracket."""
