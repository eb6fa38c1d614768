"""Fundamental Pell units of Z[sqrt(d)] by the continued fraction of sqrt(d).

One walk over the complete quotients stops halfway through the palindromic
period and multiplies blocks of partial quotients into 2x2 matrices as it goes;
a balanced product tree of the blocks gives the convergents that close the
unit exactly, and a norm +1 is proved on the half unit (Jacobson and
Williams, Solving the Pell Equation, 2009). Nothing is memoized: every call
walks the continued fraction, and a caller that needs a unit twice keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from math import isqrt

_BLOCK = 32  # partial quotients multiplied out one at a time per tree leaf


def _decimal(n: int) -> str:
    """The decimal digits of n at any size. `str` refuses an int longer than the
    interpreter's int-string limit (4300 digits by default); `Decimal` does not
    convert through that path."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def is_squarefree(n: int) -> bool:
    """Trial division by 2 and the odd k up to the cube root: the cofactor
    left has no prime factor below k and is below k^3, so it has at most two
    prime factors and is squarefree unless it is the square of a prime."""
    if n < 1 or n % 4 == 0:
        return False
    if n % 2 == 0:
        n //= 2
    k = 3
    while k * k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return False
        k += 2
    return n == 1 or isqrt(n) ** 2 != n


@dataclass(frozen=True)
class QuadUnit:
    """The fundamental Pell unit x + y*sqrt(d) of Z[sqrt(d)], with its norm sign.

    `half` is (h, k, Q) with x + y*sqrt(d) = (h + k*sqrt(d))^2/Q, h, k > 0 and
    Q | 2d, the half unit at which `fundamental_pell` stopped its walk for a
    unit of norm +1, whose norm it proved on (h, k, Q); it is None for a unit
    of norm -1 or one built by hand, whose norm is checked on x and y.
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
    if half is None:
        return QuadUnit(d, x, y, norm)
    unit = object.__new__(QuadUnit)  # the walk proved the norm: skip __post_init__
    unit.__dict__.update(d=d, x=x, y=y, norm=norm, half=half)
    return unit


def _half_period(d: int) -> tuple[int, int, int, tuple[int, int, int] | None]:
    """(x, y, norm, half) of the fundamental unit, from the first half of the
    period; half is (h, k, Q) for an even period and None for an odd one.

    With (P_i, Q_i) the complete quotients (sqrt(d) + P_i) / Q_i, where
    Q_(i+1) = Q_(i-1) + a_i*(P_i - P_(i+1)) and Q_(-1) = d, and h_i/k_i the
    convergents, the first m with Q_m == Q_(m+1) gives an odd period and
    eps = (h_(m-1) + k_(m-1) sqrt d)(h_m + k_m sqrt d) / Q_m of norm -1; the
    first m >= 1 with P_m == P_(m+1) gives an even period and
    eps = (h + k sqrt d)^2 / Q_m of norm +1, (h, k) = (h_(m-1), k_(m-1)),
    and Q_m divides 2d. There h^2 - d*k^2 = +-Q_m, and Q_m divides
    h^2 + d*k^2 and 2hk, which proves x^2 - d*y^2 = 1 from the squares that
    build x and y; a failure raises ArithmeticError.
    """
    a0 = isqrt(d)
    P, Q, Q_prev = 0, 1, d
    blocks = []
    while True:
        h, h_prev, k, k_prev = 1, 0, 0, 1
        for _ in range(_BLOCK):
            a = (a0 + P) // Q
            P_next = a * Q - P
            Q_next = Q_prev + a * (P - P_next)
            if Q_next == Q:
                blocks.append((a * h + h_prev, h, a * k + k_prev, k))
                h, h_prev, k, k_prev = _tree(blocks, False)
                return (h_prev * h + d * k_prev * k) // Q, (h_prev * k + h * k_prev) // Q, -1, None
            if P_next == P:
                blocks.append((h, h_prev, k, k_prev))
                h, k = _tree(blocks, True)
                hh, dkk = h * h, d * k * k
                (x, rx), (y, ry) = divmod(hh + dkk, Q), divmod(2 * h * k, Q)
                if rx or ry or abs(hh - dkk) != Q:
                    raise ArithmeticError(f"the half unit of Z[sqrt({d})] fails h^2 - d*k^2 = +-Q")
                return x, y, 1, (h, k, Q)
            h, h_prev, k, k_prev = a * h + h_prev, h, a * k + k_prev, k
            P, Q, Q_prev = P_next, Q_next, Q
        blocks.append((h, h_prev, k, k_prev))


def _tree(blocks: list[tuple[int, int, int, int]], column: bool) -> tuple[int, ...]:
    """The product of the block matrices [[h, h_prev], [k, k_prev]], row-major,
    by a balanced tree, so that big multiplications pair numbers of equal size:
    (h, h_prev, k, k_prev), or only its first column (h, k) when `column`."""
    if len(blocks) == 1:
        return blocks[0][::2] if column else blocks[0]
    mid = len(blocks) // 2
    (a, b, c, d), right = _tree(blocks[:mid], False), _tree(blocks[mid:], column)
    if column:
        e, g = right
        return a * e + b * g, c * e + d * g
    e, f, g, h = right
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
