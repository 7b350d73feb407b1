"""Exception hierarchy shared by all ncgalois modules.

Every failure mode carries enough context (a witness index, a residual)
to diagnose the violated precondition without re-running the computation.
"""


class NCGaloisError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(NCGaloisError):
    """Bad inputs (malformed files, violated axioms, mismatched shapes).

    The CLI maps them to exit 1, and every other NCGaloisError, numerical
    trouble (tolerance collisions, failed iterations), to exit 2.
    """


# ---------------------------------------------------------------------------
# linear algebra


class NotHermitian(NCGaloisError):
    pass


class NoConvergence(NCGaloisError):
    pass


class NotPositiveDefinite(NCGaloisError):
    pass


class DimensionMismatch(ValidationError):
    pass


# ---------------------------------------------------------------------------
# groups


class NotLatinSquare(ValidationError):
    pass


class NotAssociative(ValidationError):
    pass


class NoIdentity(ValidationError):
    pass


class NoInverse(ValidationError):
    pass


class OrderBoundExceeded(ValidationError):
    pass


class ParentMismatch(ValidationError):
    pass


# ---------------------------------------------------------------------------
# representations


class NotAHomomorphism(ValidationError):
    pass


class NotIrreducible(NCGaloisError):
    pass


class DecompositionFailed(NCGaloisError):
    pass


class IncompleteTable(NCGaloisError):
    pass


# ---------------------------------------------------------------------------
# algebras


class NotContained(ValidationError):
    pass


class CenterSplitFailed(NCGaloisError):
    pass


class NotInvariantAlgebra(ValidationError):
    pass


class ClosureFailed(NCGaloisError):
    pass


# ---------------------------------------------------------------------------
# states / probability


class NotFaithful(ValidationError):
    pass


class NotAState(ValidationError):
    pass


# ---------------------------------------------------------------------------
# cli


class SpecValidationError(ValidationError):
    pass
