"""Exception hierarchy shared across the package. Every decision is exact, so
no error reports a precision limit."""

from __future__ import annotations


class UnitCertError(Exception):
    """Base class for all package-specific errors."""


class HypothesisViolation(UnitCertError):
    """The triple (p, q, s) is outside the supported congruence/Legendre pattern."""


class SearchExhausted(UnitCertError):
    """A bounded search (split primes, places, functionals) ran out of candidates."""


class NotASquareInBiquad(UnitCertError):
    """A unit product expected to be a square in its biquadratic field is not."""


class DenominatorNotInvertible(UnitCertError):
    """A coordinate denominator shares a factor with the residue prime t."""


class NonUnitResidue(UnitCertError):
    """An element has zero (or undefined) residue at a place, so no Legendre bit applies."""


class InvalidPlace(UnitCertError):
    """The place does not satisfy the validity requirement (eps_pq locally a square)."""


class RankDeficient(UnitCertError):
    """A generator was never detected by any scanned functional (dependence suspected)."""


class Inseparable(UnitCertError):
    """Two candidates lie in the same squareclass; no functional can separate them."""

    def __init__(self, i: int, j: int):
        super().__init__(f"candidates {i} and {j} lie in the same squareclass")
        self.witness = (i, j)


class OracleDisagreement(UnitCertError):
    """The exact square-root oracle contradicts the residue decision; must never happen."""
