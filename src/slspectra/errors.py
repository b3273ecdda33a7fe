"""Exception types shared across the package."""


class SLSpectraError(Exception):
    """Base class for all package errors."""


class ConfigError(SLSpectraError, ValueError):
    """Malformed or inconsistent problem configuration or arguments."""


class QuadratureError(SLSpectraError):
    """Adaptive quadrature failed to converge within the subdivision budget."""


class PropagationError(SLSpectraError):
    """ODE propagation failed or produced non-finite state."""


class PoleProximityError(SLSpectraError):
    """m-function evaluated too close to a real pole."""


class PoleContaminatedError(SLSpectraError):
    """Density requested at a point dominated by a nearby point mass."""


class UnresolvedAsymptoticsError(SLSpectraError):
    """Large-argument limits of a boundary parameter did not stabilize."""


class DoubleRootError(SLSpectraError):
    """Eigenvalue search found two zeros it cannot split at rounding width."""


class CrossCheckError(SLSpectraError):
    """Two independent computation routes disagree beyond tolerance."""


class GridMismatchError(SLSpectraError):
    """Transform data is not aligned with the spectral function's grid."""


class WindowError(SLSpectraError):
    """Requested point lies outside the spectral function's window."""
