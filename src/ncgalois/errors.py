"""Exception hierarchy shared by all ncgalois modules.

Every failure mode carries enough context (a witness index, a residual)
to diagnose the violated precondition without re-running the computation.
"""


class NCGaloisError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# linear algebra


class NotHermitian(NCGaloisError):
    pass


class NoConvergence(NCGaloisError):
    pass


class NotPositiveDefinite(NCGaloisError):
    pass


class DimensionMismatch(NCGaloisError):
    pass


# ---------------------------------------------------------------------------
# groups


class NotLatinSquare(NCGaloisError):
    pass


class NotAssociative(NCGaloisError):
    pass


class NoIdentity(NCGaloisError):
    pass


class NoInverse(NCGaloisError):
    pass


class OrderBoundExceeded(NCGaloisError):
    pass


class ParentMismatch(NCGaloisError):
    pass


# ---------------------------------------------------------------------------
# representations


class NotAHomomorphism(NCGaloisError):
    pass


class ZeroVector(NCGaloisError):
    pass


class NotIrreducible(NCGaloisError):
    pass


class DecompositionFailed(NCGaloisError):
    pass


class IncompleteTable(NCGaloisError):
    pass


# ---------------------------------------------------------------------------
# algebras


class NotContained(NCGaloisError):
    pass


class CenterSplitFailed(NCGaloisError):
    pass


class NotInvariantAlgebra(NCGaloisError):
    pass


class ClosureFailed(NCGaloisError):
    pass


# ---------------------------------------------------------------------------
# states / probability


class NotFaithful(NCGaloisError):
    pass


class NotAState(NCGaloisError):
    pass


# ---------------------------------------------------------------------------
# cli


class SpecValidationError(NCGaloisError):
    pass


# Bad inputs (malformed files, violated axioms, mismatched shapes).  The CLI
# maps them to exit 1, and every other NCGaloisError, numerical trouble
# (tolerance collisions, failed iterations), to exit 2.
VALIDATION_ERRORS = (
    SpecValidationError,
    NotLatinSquare,
    NotAssociative,
    NoIdentity,
    NoInverse,
    OrderBoundExceeded,
    ParentMismatch,
    DimensionMismatch,
    NotAHomomorphism,
    ZeroVector,
    NotAState,
    NotFaithful,
    NotContained,
    NotInvariantAlgebra,
)
