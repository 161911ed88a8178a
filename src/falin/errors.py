"""Exception hierarchy for the falin package.

Error classes carry enough context to reconstruct what failed; the CLI maps
them onto exit codes (parse/usage -> 1, mathematical failure -> 2, broken
internal invariant -> 3).
"""

from __future__ import annotations


class FalinError(Exception):
    """Base class for all package errors."""


class RankMismatch(FalinError):
    """Operands disagree on rank, torus-variable count or coefficient kind."""


class ZeroTorusPoint(FalinError):
    """An evaluation point had a zero entry (not a torus element)."""


class SingularMatrix(FalinError):
    """A matrix that must be invertible is singular."""


class NotPolynomialInverseWithinBound(FalinError):
    """No two-sided polynomial inverse within the degree bound.

    Raised by ``invert`` when its series iteration ends without one, and by
    the linearization pipeline when the beta^-1 it reads off exceeds the
    bound or fails to invert beta on both sides.
    """


class NotDiagonalizable(FalinError):
    """Weight spaces do not span; the input is not a genuine torus action."""


class NotEffective(FalinError):
    """The power matrix is singular: a subtorus acts trivially.

    ``report`` holds the partial LinearizationReport gathered before the
    determinant check failed (no beta, no verification verdict).
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class FixedPointNotFound(FalinError):
    """The point read off the action's t-constant part is not fixed.

    For a genuine action this proves it is not effective: an effective
    action fixes exactly that point.
    """


class AxiomsFail(FalinError):
    """An alleged action failed the group-action axioms.

    ``witness`` is the AxiomVerdict describing the first discrepancy.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegreeBlowupExceeded(FalinError):
    """Corpus generation exceeded the hard degree (or size) cap."""


class InternalInvariant(FalinError):
    """A self-check the mathematics guarantees has failed: a bug."""


class ParseError(FalinError):
    """Syntax or semantic error in a document; always carries a position."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
