"""Fundamental Pell units of Z[sqrt(d)] by the continued fraction of sqrt(d).

The walk over the complete quotients stops halfway through the palindromic
period, and a balanced product tree of the partial quotients gives the
convergents that close the unit exactly (Jacobson and Williams, Solving the
Pell Equation, 2009). Nothing is memoized: every call walks the continued
fraction, and a caller that needs a unit twice keeps it itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from math import isqrt


def _decimal(n: int) -> str:
    """The decimal digits of n at any size. `str` refuses an int longer than the
    interpreter's int-string limit (4300 digits by default); `Decimal` does not
    convert through that path."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def is_squarefree(n: int) -> bool:
    """Trial division to the cube root: the cofactor left has no prime factor
    below k and is below k^3, so it has at most two prime factors and is
    squarefree unless it is the square of a prime."""
    if n < 1:
        return False
    k = 2
    while k * k * k <= n:
        if n % (k * k) == 0:
            return False
        while n % k == 0:
            n //= k
        k += 1
    return n == 1 or isqrt(n) ** 2 != n


@dataclass(frozen=True)
class QuadUnit:
    """The fundamental Pell unit x + y*sqrt(d) of Z[sqrt(d)], with its norm sign.

    `half` is (h, k, Q) with x + y*sqrt(d) = (h + k*sqrt(d))^2/Q, h, k > 0 and
    Q | 2d, the half unit at which `fundamental_pell` stopped its walk for a
    unit of norm +1; it is None for a unit of norm -1 or one built by hand.
    """

    d: int
    x: int
    y: int
    norm: int
    half: tuple[int, int, int] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.norm not in (1, -1) or self.x * self.x - self.d * self.y * self.y != self.norm:
            raise ValueError(f"not a unit of Z[sqrt({self.d})]: {self.x}, {self.y}")
        if self.x <= 0 or self.y <= 0:
            raise ValueError("expected the positive fundamental solution")

    def __str__(self) -> str:
        return f"{_decimal(self.x)} + {_decimal(self.y)}*sqrt({self.d})  (norm {self.norm:+d})"


def fundamental_pell(d: int) -> QuadUnit:
    """Smallest unit > 1 of Z[sqrt(d)], from the continued fraction of sqrt(d),
    walked on every call. The norm is -1 exactly when the period length is odd.
    """
    if d <= 1 or not is_squarefree(d):
        raise ValueError(f"d must be a squarefree integer > 1, got {d}")
    x, y, norm, half = _half_period(d)
    unit = QuadUnit(d, x, y, norm)
    object.__setattr__(unit, "half", half)  # frozen: set once, after the norm check
    return unit


def _half_period(d: int) -> tuple[int, int, int, tuple[int, int, int] | None]:
    """(x, y, norm, half) of the fundamental unit, from the first half of the
    period; half is (h, k, Q) for an even period and None for an odd one.

    With (P_i, Q_i) the complete quotients (sqrt(d) + P_i) / Q_i and h_i/k_i
    the convergents, the first m with Q_m == Q_(m+1) gives an odd period and
    eps = (h_(m-1) + k_(m-1) sqrt d)(h_m + k_m sqrt d) / Q_m of norm -1; the
    first m >= 1 with P_m == P_(m+1) gives an even period and
    eps = (h_(m-1) + k_(m-1) sqrt d)^2 / Q_m of norm +1, and Q_m divides 2d.
    """
    a0 = isqrt(d)
    P, Q = 0, 1
    quotients = []
    while True:
        a = (a0 + P) // Q
        P_next = a * Q - P
        Q_next = (d - P_next * P_next) // Q
        if Q_next == Q:
            quotients.append(a)
            h, h_prev, k, k_prev = _convergents(quotients)
            return (h_prev * h + d * k_prev * k) // Q, (h_prev * k + h * k_prev) // Q, -1, None
        if P_next == P and quotients:
            h, _, k, _ = _convergents(quotients)
            return (h * h + d * k * k) // Q, 2 * h * k // Q, 1, (h, k, Q)
        quotients.append(a)
        P, Q = P_next, Q_next


def _convergents(quotients: list[int]) -> tuple[int, int, int, int]:
    """The product of the matrices [[a, 1], [1, 0]] over the partial quotients
    a_0 ... a_n, row-major: (h_n, h_(n-1), k_n, k_(n-1)). A balanced product
    tree, so that big multiplications pair numbers of equal size; runs of up
    to 16 quotients, whose products are still small, are multiplied out one
    quotient at a time, which costs less than recursing down to single ones."""
    if len(quotients) <= 16:
        h, h_prev, k, k_prev = 1, 0, 0, 1
        for a in quotients:
            h, h_prev, k, k_prev = a * h + h_prev, h, a * k + k_prev, k
        return h, h_prev, k, k_prev
    mid = len(quotients) // 2
    a, b, c, d = _convergents(quotients[:mid])
    e, f, g, h = _convergents(quotients[mid:])
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
