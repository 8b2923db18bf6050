"""Exception types shared across the toolkit.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse raises ValueError as usual.
"""


class DualbandError(Exception):
    """Base class for all toolkit-specific errors."""


class PoleError(DualbandError):
    """Evaluation or construction hit a pole (on the grid or the circle)."""


class GridMismatchError(DualbandError):
    """Two matrix symbols are sampled on different grids."""


class CoefficientError(DualbandError):
    """Fourier coefficients were requested where they are not available."""


class UnimodularityError(DualbandError):
    """A band function fails |value| = 1 on the circle."""


class OrthogonalityError(DualbandError):
    """The two bands are not orthogonal for the given model space."""


class DegeneracyError(DualbandError):
    """A band ratio collapses onto a constant multiple of the inner function."""


class MissingDecompositionError(DualbandError):
    """The analytic/co-analytic band decomposition is required but absent."""


class NotAnEigenvalueError(DualbandError):
    """Eigenvector construction was requested at a regular point."""


class EigenvalueEncounteredError(DualbandError):
    """A factorization or resolvent was requested at a spectral point."""


class NoAdcError(DualbandError):
    """A boundary construction needs an angular limit that does not exist."""


class CutoffError(DualbandError):
    """A truncation window is too short for the requested accuracy."""


class NonKernelInputError(DualbandError):
    """A kernel-side map received a vector outside the kernel."""


class SingularOperatorError(DualbandError):
    """A solve was requested for a (numerically) singular operator."""


class ScenarioError(DualbandError):
    """A scenario file is malformed or requests inconsistent work."""
