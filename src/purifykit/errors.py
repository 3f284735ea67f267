"""Exception types raised by the library.

Everything derives from :class:`PurifyKitError`, itself a ``ValueError``,
so callers that do not care about the precise failure can catch one class.
Each class carries the process exit status of the command-line surface:
1 for invalid input, 2 for a failed numerical contract, 3 for inputs that
are not equivalent.
"""


class PurifyKitError(ValueError):
    """Base class for all library errors."""
    exit_status = 1


class NotFinite(PurifyKitError):
    """Matrix entries or state amplitudes must be finite numbers."""


class NotSquare(PurifyKitError):
    """A square matrix was required."""
    exit_status = 2


class NotHermitian(PurifyKitError):
    """A Hermitian matrix was required."""
    exit_status = 2


class DimensionMismatch(PurifyKitError):
    """Shapes or dimensions of the inputs do not fit together."""


class NotOrthonormal(PurifyKitError):
    """A pairwise-orthonormal vector family was required."""
    exit_status = 2


class NotNormalized(PurifyKitError):
    """A unit-norm state vector was required."""


class InvalidEnsemble(PurifyKitError):
    """Ensemble invariants (positive weights summing to 1, unit states) violated."""


class NotADensityMatrix(PurifyKitError):
    """Hermitian / trace-one / positive-semidefinite invariants violated."""


class CountTooSmall(PurifyKitError):
    """Requested ensemble size is below the rank of the density matrix."""


class ReferenceTooSmall(PurifyKitError):
    """The reference space is too small to carry the construction."""


class NotEquivalent(PurifyKitError):
    """The two ensembles do not share a density matrix at the given tolerance."""
    exit_status = 3


class TargetOutsideSupport(PurifyKitError):
    """A target state has a component outside the support of the density matrix."""
    exit_status = 3


class BasisNotComplete(PurifyKitError):
    """The measurement basis does not span the reference space."""


class BasisNotOrthonormal(PurifyKitError):
    """The measurement basis vectors are not pairwise orthonormal."""


class IndexOutOfRange(PurifyKitError):
    """A term or basis index lies outside the valid range."""


class ParseError(PurifyKitError):
    """A file could not be parsed into the expected document structure."""


class ContractViolation(PurifyKitError):
    """A numerical post-condition residual exceeded its tolerance."""
    exit_status = 2
