"""Exception types shared across the package."""


class DeltaShellError(Exception):
    """Base class for all deltashell errors."""


class SolverError(DeltaShellError):
    """Root finding failed (non-convergence, bad seed)."""


class CompletenessError(SolverError):
    """Number of polished roots disagrees with the winding-number count."""


class BoundaryRootError(SolverError):
    """Rectangle boundary kept hitting a root after the maximum number of jitter retries."""


class NearPoleError(DeltaShellError):
    """Green's function requested too close to one of its poles."""


class QuadratureError(DeltaShellError):
    """Adaptive quadrature did not reach the requested tolerance."""


class NoCrossingError(DeltaShellError):
    """The pole family does not meet the real axis inside the intensity bracket."""


class TrajectoryLostError(DeltaShellError):
    """A traced pole sample did not converge or left its family."""


class NoTransitionError(DeltaShellError):
    """Exponential and power-law terms do not cross inside the search bracket."""
