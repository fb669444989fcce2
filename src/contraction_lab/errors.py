"""Exception types raised across the package.

Every failure mode that callers are expected to branch on gets its own
class; plain ``ValueError`` is reserved for malformed raw input (bad
shapes, NaN entries, nonsense parameters).
"""

__all__ = [
    "ContractionLabError",
    "EigensolverError",
    "DimensionMismatchError",
    "PreconditionError",
    "InvariantError",
    "RankDescentError",
    "ChainGenerationError",
    "ChainSpecError",
]


class ContractionLabError(Exception):
    """Base class for package-specific errors."""


class EigensolverError(ContractionLabError):
    """The Hermitian eigensolver failed to converge."""


class DimensionMismatchError(ContractionLabError):
    """Operands live in spaces of different dimensions."""


class PreconditionError(ContractionLabError):
    """A documented precondition of an operation does not hold."""


class InvariantError(ContractionLabError):
    """A structural invariant that should hold by theorem was violated.

    Seeing this means a generator or a tolerance is buggy, not that the
    input data is merely inconclusive.
    """


class RankDescentError(InvariantError):
    """A gap violation was found but the fixed-space rank did not drop."""


class ChainGenerationError(ContractionLabError):
    """A chain generator was asked to produce an invalid chain."""


class ChainSpecError(ContractionLabError):
    """A chain spec document failed validation.

    ``violations`` lists every problem found, not just the first one.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
