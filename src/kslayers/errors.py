"""Exception types shared across the package."""


class KsLayersError(Exception):
    """Base class for all library errors."""


class DomainError(KsLayersError, ValueError):
    """An argument lies outside the mathematically admissible domain."""


class CalibrationError(KsLayersError):
    """The singular-coefficient calibration has no admissible solution."""


class ConditioningError(KsLayersError):
    """A local linear system is too ill-conditioned to trust."""


class ConvergenceError(KsLayersError):
    """An iterative solver failed to converge.

    Carries the last residual for diagnosis.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InternalConsistencyError(KsLayersError):
    """Two independent evaluation routes disagree beyond tolerance."""


class NondegeneracyError(KsLayersError):
    """A determinant required to be nonzero is numerically too small."""


class MatchingError(KsLayersError):
    """The asymptotic matching system could not be solved."""


class OverflowRegionError(KsLayersError):
    """A pointwise evaluation overflowed; carries the offending radius."""

    def __init__(self, message: str, radius: float | None = None):
        super().__init__(message)
        self.radius = radius


class NearKernelError(KsLayersError):
    """The discrete linearized operator is numerically singular.

    Carries the smallest singular value and the overlap of the
    corresponding mode with the cut-off bubble dilation mode.
    """

    def __init__(self, message: str, smallest_singular_value: float,
                 kernel_overlap: float):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value
        self.kernel_overlap = kernel_overlap


class NonContractionError(KsLayersError):
    """The fixed-point map failed to contract; carries the measured factor."""

    def __init__(self, message: str, factor: float | None = None):
        super().__init__(message)
        self.factor = factor


class StallError(KsLayersError):
    """Continuation step size underflowed; carries the branch so far."""

    def __init__(self, message: str, branch=None):
        super().__init__(message)
        self.branch = branch
