"""Exception types shared across the package."""


class MclabError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(MclabError, ValueError):
    """An argument is outside its documented domain."""


class NumericFailureError(MclabError, RuntimeError):
    """A numeric construction broke down: a divergent series, a sampling
    operator that is not injective on the tangent space, or an iteration
    that stopped short of its tolerance.

    ``estimate`` carries the best value produced so far, when there is one.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class GenerationFailureError(MclabError, RuntimeError):
    """A rejection sampler exhausted its attempt budget."""


class DivergenceError(NumericFailureError):
    """A series construction cannot converge (contraction factor >= 1)."""


class InjectivityError(NumericFailureError):
    """The certificate engine's injectivity rule failed for a solve on the
    tangent space: its Gram matrix has an eigenvalue at or below the null
    tolerance, or the deviation statistic is >= 1."""


class ConvergenceError(NumericFailureError):
    """An iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, residual=None, estimate=None):
        super().__init__(message, estimate=estimate)
        self.residual = residual
