"""Fixed-point interval arithmetic on plain integers.

An interval (lo, hi) at scale B encloses the real x when lo <= x*2^B <= hi.
Only the operations needed to embed tower elements are provided: integer
square roots, rational scaling and sums. All rounding is outward, so every
enclosure is rigorous.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

Iv = tuple[int, int]


def _floor_div(a: int, b: int) -> int:
    return a // b


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def iv_add(a: Iv, b: Iv) -> Iv:
    return (a[0] + b[0], a[1] + b[1])


def iv_scale(a: Iv, c: Fraction) -> Iv:
    """Multiply an enclosure by an exact rational."""
    n, d = c.numerator, c.denominator
    if n >= 0:
        return (_floor_div(a[0] * n, d), _ceil_div(a[1] * n, d))
    return (_floor_div(a[1] * n, d), _ceil_div(a[0] * n, d))


def iv_sqrt_int(n: int, bits: int) -> Iv:
    """Enclosure of sqrt(n) for an integer n >= 0."""
    r = isqrt(n << (2 * bits))
    return (r, r if r * r == n << (2 * bits) else r + 1)


def iv_endpoints(a: Iv, bits: int) -> tuple[Fraction, Fraction]:
    scale = 1 << bits
    return (Fraction(a[0], scale), Fraction(a[1], scale))


def iv_mid(a: Iv, bits: int) -> Fraction:
    return Fraction(a[0] + a[1], 1 << (bits + 1))
