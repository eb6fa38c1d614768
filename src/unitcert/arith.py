"""Arbitrary-precision modular arithmetic: primality, a kept table of sieved
primes, Jacobi symbols, square roots mod p, and quadratic Hilbert symbols."""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterator
from fractions import Fraction
from itertools import compress
from operator import index

# Witnesses proven deterministic for n < 3.3 * 10^24 (covers all 64-bit inputs).
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Fixed 40-round witness set used above 2^64; deterministic output by construction.
_MR_BASES_BIG = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
    157, 163, 167, 173,
)


def _miller_rabin(n: int, base: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test: trial division by the primes to 37 decides n < 41^2;
    Miller-Rabin above, deterministic below 2^64 and 40 rounds beyond."""
    n = index(n)
    if n < 2:
        return False
    for p in _MR_BASES_64:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    bases = _MR_BASES_64 if n < 1 << 64 else _MR_BASES_BIG
    return all(_miller_rabin(n, b) for b in bases)


# The odd primes sieved so far, ascending, kept per process: the first use
# sieves [3, 4097], and a read past the end doubles the sieved range.
_FIRST_RANGE = 4097
_primes = array("L")
_sieved = 1  # the odd numbers up to _sieved are sieved


def _strike(flags: bytearray, i: int, step: int) -> None:
    flags[i::step] = bytes(len(range(i, len(flags), step)))


def _extend(top: int) -> None:
    """Sieve of Eratosthenes over the odd numbers in (_sieved, top], by the
    kept primes and, in the first range, by each new prime as it is reached;
    the primes found join the table."""
    global _sieved
    lo = _sieved + 1 | 1
    flags = bytearray([1]) * ((top - lo) // 2 + 1)  # flags[i] stands for lo + 2i
    for p in _primes:
        if p * p > top:
            break
        first = max(p * p, -(-lo // p) * p)
        if first % 2 == 0:
            first += p
        _strike(flags, (first - lo) // 2, p)
    # the bytearray iterator reads flags as they are, so a prime of this
    # range strikes its own multiples before they are reached
    for n in compress(range(lo, top + 1, 2), flags):
        if n * n <= top:
            _strike(flags, (n * n - lo) // 2, n)
        _primes.append(n)
    _sieved = top


def odd_primes(bound: int) -> Iterator[int]:
    """The odd primes up to bound, ascending, lazily, from the per-process
    table; a read that reaches the table's end below bound doubles the sieved
    range. The table keeps every prime sieved, one unsigned long each: a
    caller that reads the primes to 10^7 leaves it near 10 MB."""
    i = 0
    while i < len(_primes) and _primes[i] <= bound or _sieved < bound:
        if i == len(_primes):
            _extend(max(_FIRST_RANGE, 2 * _sieved))
        j = bisect_right(_primes, bound, i)
        yield from _primes[i:j]
        i = j


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1; the Legendre symbol when n is prime."""
    a, n = index(a), index(n)
    if n < 1 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd n >= 1, got {n}")
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def sqrt_mod(a: int, t: int) -> int | None:
    """Canonical square root of a mod the odd prime t.

    Returns the root r with r = min(r, t - r) when (a/t) = 1, the value 0 when
    t | a, and None when a is a nonresidue. Both are integers: a float raises
    TypeError.
    """
    a, t = index(a), index(t)
    if t < 3 or t % 2 == 0 or not is_prime(t):
        raise ValueError(f"{t} is not an odd prime")
    return _sqrt_mod_prime((a,), t)[0]


def _sqrt_mod_prime(values: tuple[int, ...], t: int) -> list[int | None]:
    """sqrt_mod of each value, for a t known to be an odd prime, such as a
    sieved one, and not proven prime here. A root it returns squares back for
    any odd t: each Legendre symbol is Euler's criterion a^((t-1)/2) mod t,
    not `jacobi`, so the power r = a^((t+1)/4) squares to a*a^((t-1)/2) = a,
    and Tonelli-Shanks keeps r^2 = a*w and ends at w = 1; at a composite t,
    a None may be wrong."""
    q, e = t - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    if e > 1:  # Tonelli-Shanks, with one nonresidue z for all the values
        z = 2
        while pow(z, t >> 1, t) != t - 1:
            z += 1
            if z == t:
                raise ValueError(f"{t} has no quadratic nonresidue: not a prime")
        zq = pow(z, q, t)
    roots = []
    for a in values:
        a %= t
        if a == 0 or pow(a, t >> 1, t) != 1:
            roots.append(None if a else 0)
            continue
        if e == 1:
            r = pow(a, (t + 1) // 4, t)
        else:
            x = pow(a, q >> 1, t)  # then r = a^((q+1)/2) and w = a^q
            r, c, m = x * a % t, zq, e
            w = x * r % t
            while w != 1:
                i, x = 0, w
                while x != 1:
                    x = x * x % t
                    i += 1
                    if i == m:
                        raise ValueError(f"{t} is not a prime: Tonelli-Shanks fails")
                b = pow(c, 1 << (m - i - 1), t)
                r = r * b % t
                c = b * b % t
                w = w * c % t
                m = i
        roots.append(min(r, t - r))
    return roots


def _padic_split(x: Fraction, p: int) -> tuple[int, Fraction]:
    """Write x = p^v * u with u a p-adic unit; returns (v, u)."""
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _unit_residue(u: Fraction, m: int) -> int:
    return u.numerator * pow(u.denominator, -1, m) % m


def hilbert_symbol(a, b, p) -> int:
    """Quadratic Hilbert symbol (a, b)_p over Q_p (p prime) or over the reals.

    Uses the classical closed formulas: valuations plus Legendre symbols of the
    unit parts for odd p, and the mod-8 characters for p = 2. Pass p="real" for
    the archimedean place (symbol is -1 iff both arguments are negative).
    """
    if isinstance(a, float) or isinstance(b, float):
        raise TypeError(f"Hilbert symbol arguments must be exact rationals, got {a!r} and {b!r}")
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol is defined for nonzero arguments")
    if p == "real":
        return -1 if a < 0 and b < 0 else 1
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be a prime or 'real', got {p!r}")
    alpha, ua = _padic_split(a, p)
    beta, ub = _padic_split(b, p)
    if p == 2:
        ra, rb = _unit_residue(ua, 8), _unit_residue(ub, 8)
        eps_a, eps_b = (ra - 1) // 2 % 2, (rb - 1) // 2 % 2
        om_a, om_b = (ra * ra - 1) // 8 % 2, (rb * rb - 1) // 8 % 2
        e = eps_a * eps_b + alpha * om_b + beta * om_a
        return -1 if e % 2 else 1
    sign = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if beta % 2:
        sign *= jacobi(_unit_residue(ua, p), p)
    if alpha % 2:
        sign *= jacobi(_unit_residue(ub, p), p)
    return sign
