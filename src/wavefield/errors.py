"""Error types shared across the toolkit.

Every failure mode that callers are expected to handle carries a stable
kebab-case ``name`` used by the command line driver when reporting on
stderr (exit code 1). Anything else a module raises is a plain bug.
"""


class WavefieldError(Exception):
    """Base class; ``name`` is the stable machine-readable identifier."""

    name = "error"

    def __init__(self, message="", **context):
        super().__init__(message or self.name)
        self.context = context


class UnsupportedOrderError(WavefieldError):
    name = "unsupported-order"


class DegenerateRefinementError(WavefieldError):
    name = "degenerate-refinement"


class NonDifferentiableOrderError(WavefieldError):
    name = "non-differentiable-order"


class InsufficientResolutionError(WavefieldError):
    name = "insufficient-resolution"


class InsufficientVanishingMomentsError(WavefieldError):
    name = "insufficient-vanishing-moments"


class ShapeError(WavefieldError):
    name = "shape"


class DepthError(WavefieldError):
    name = "depth"


class DegenerateFixedPointError(WavefieldError):
    name = "degenerate-fixed-point"


class AlreadyScaledError(WavefieldError):
    name = "already-scaled"


class ParseError(WavefieldError):
    name = "parse"


class CorruptTableError(WavefieldError):
    name = "corrupt-table"


class ScaleMismatchError(WavefieldError):
    name = "scale-mismatch"


class OrderMismatchError(WavefieldError):
    name = "order-mismatch"


class IndexRangeError(WavefieldError):
    name = "index"


class TachyonicConfigurationError(WavefieldError):
    name = "tachyonic-configuration"


class ConvergenceFailureError(WavefieldError):
    """Its context carries the eigenvalues (and residuals, where known)
    reached before giving up."""

    name = "convergence-failure"


class StiffnessError(WavefieldError):
    """Raised when the flow integrator underflows its step size.

    ``trajectory`` holds the partial log accumulated before the failure.
    """

    name = "stiffness"

    def __init__(self, message="", trajectory=None, state=None, **context):
        super().__init__(message, **context)
        self.trajectory = trajectory
        self.state = state


class WindowingError(WavefieldError):
    name = "windowing"
