"""Independent oracles used by the test suite.

Everything here is deliberately built from first principles (trial division,
exhaustive residue scans, integer root extraction) so the library is checked
against logic that shares none of its code paths.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from math import isqrt, lcm
from typing import NamedTuple


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def smallest_nonresidue_scan(t: int) -> int:
    squares = {x * x % t for x in range(1, t)}
    u = 2
    while u in squares:
        u += 1
    return u


def pell_scan(d: int, y_max: int) -> tuple[int, int, int] | None:
    """Smallest solution of x^2 - d y^2 = +-1 with 1 <= y <= y_max."""
    for y in range(1, y_max + 1):
        t = d * y * y
        for target, norm in ((t + 1, 1), (t - 1, -1)):
            x = isqrt(target)
            if x * x == target and x > 0:
                return (x, y, norm)
    return None


def _iroot(n: int, k: int) -> int:
    if n < 2:
        return n
    x = 1 << (n.bit_length() // k + 2)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _quad_pow(a: int, b: int, d: int, k: int) -> tuple[int, int]:
    """(a + b sqrt d)^k exactly."""
    ra, rb = 1, 0
    base_a, base_b = a, b
    while k:
        if k & 1:
            ra, rb = ra * base_a + rb * base_b * d, ra * base_b + rb * base_a
        base_a, base_b = base_a * base_a + base_b * base_b * d, 2 * base_a * base_b
        k >>= 1
    return ra, rb


def is_proper_power_unit(d: int, x: int, y: int) -> bool:
    """Whether x + y sqrt(d) equals (a + b sqrt d)^k for a smaller unit, k >= 2.

    Units > 1 of Z[sqrt d] form a cyclic group generated by the smallest one,
    which is at least 1 + sqrt(2); so non-minimality of a unit is exactly being
    a proper power. Candidate bases come from integer k-th roots at 192 bits
    and are confirmed or rejected by exact arithmetic only.
    """
    bits = 192
    scale = 1 << bits
    val = x * scale + y * isqrt(d * scale * scale)  # eps * 2^bits, tiny slack
    sqrt_d = isqrt(d * scale * scale)
    k = 2
    while True:
        # the smallest unit > 1 of Z[sqrt d] is at least 1 + sqrt 2 > 2.41
        if Fraction(241, 100) ** k > 2 * x + 2:
            return False
        root = _iroot(val * scale ** (k - 1), k)  # eps^(1/k) * 2^bits
        half = root // 2
        for a in (half // scale, half // scale + 1):
            if a <= 0:
                continue
            b_est = root // (2 * sqrt_d)
            for b in (b_est, b_est + 1):
                if b <= 0:
                    continue
                if a * a - d * b * b in (1, -1) and _quad_pow(a, b, d, k) == (x, y):
                    return True
        k += 1


def assert_fundamental(d: int, x: int, y: int, norm: int, scan_cap: int = 10 ** 6) -> None:
    """Fail unless (x, y) is the minimal Pell solution for d.

    Brute-force scan over y when feasible; otherwise the proper-power check,
    which verifies the same minimality property through the group structure.
    """
    assert x * x - d * y * y == norm and norm in (1, -1)
    if y <= scan_cap:
        found = pell_scan(d, y)
        assert found == (x, y, norm), f"d={d}: scan found smaller {found}"
    else:
        assert not is_proper_power_unit(d, x, y), f"d={d}: unit is a proper power"


def trial_division_is_squarefree(n: int) -> bool:
    """No square k^2 > 1 with k^2 <= n divides n; False for n < 1."""
    if n < 1:
        return False
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def squarefree_numbers(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if trial_division_is_squarefree(n)]


def pell_by_convergents(d: int) -> tuple[int, int, int]:
    """(x, y, norm) of the fundamental unit of Z[sqrt d], by walking the whole
    period of the continued fraction of sqrt(d) and carrying the convergents
    one partial quotient at a time; the period ends at the first Q == 1."""
    a0 = isqrt(d)
    P, Q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    period = 0
    while True:
        period += 1
        P = a * Q - P
        Q = (d - P * P) // Q
        a = (a0 + P) // Q
        if Q == 1:
            return h, k, -1 if period % 2 else 1
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k


def relative_generators(d: int, count: int) -> list[tuple[int, int]]:
    """(h_(n-1), k_(n-1)) for n = 0, ..., count, so that entry n is
    theta_n = h_(n-1) + k_(n-1)*sqrt(d) with theta_0 = 1: the convergents
    h_i/k_i of sqrt(d), carried one partial quotient at a time, with the
    quotients from the full-period recurrence and its division."""
    a0 = isqrt(d)
    P, Q, a = 0, 1, a0
    h_prev, h, k_prev, k = 0, 1, 1, 0
    out = [(h, k)]
    while len(out) <= count:
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        out.append((h, k))
        P = a * Q - P
        Q = (d - P * P) // Q
        a = (a0 + P) // Q
    return out


# -- Hilbert symbol oracles -------------------------------------------------


def _split_rational(x: Fraction, p: int) -> tuple[int, int]:
    """Valuation mod 2 and unit residue mod p of a nonzero rational."""
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v % 2, num * pow(den, -1, p) % p


def hilbert_oracle_odd(a, b, p: int) -> int:
    """Norm-solvability oracle for (a, b)_p at odd p by exhaustive residue
    scans with valuation bookkeeping; no reciprocity formulas involved.

    Solvability of z^2 = a x^2 + b y^2 over Q_p reduces, after removing square
    factors of p, to a residue condition mod p; any mod-p witness with a unit
    coordinate lifts by Hensel since p is odd.
    """
    alpha, ru = _split_rational(Fraction(a), p)
    beta, rv = _split_rational(Fraction(b), p)
    if alpha == 0 and beta == 0:
        # smooth conic over F_p always has a point with a unit coordinate
        for xx in range(p):
            for yy in range(p):
                if xx == 0 and yy == 0:
                    continue
                zz2 = (ru * xx * xx + rv * yy * yy) % p
                if zz2 == 0 or any(z * z % p == zz2 for z in range(1, p)):
                    # if zz2 == 0 we need a closer look: z = 0 point is fine
                    # only when (x, y) is a unit point on ux^2 + vy^2 = 0
                    return 1
        return -1
    if alpha == 1 and beta == 1:
        # p z'^2 = u x^2 + v y^2 after one descent step
        for xx in range(p):
            for yy in range(p):
                if (xx or yy) and (ru * xx * xx + rv * yy * yy) % p == 0:
                    return 1
        return -1
    # exactly one valuation odd; name the unit one ru
    if alpha == 1:
        ru, rv = rv, ru
    # z^2 = u x^2 + (p v) y^2 needs z^2 = u x^2 mod p with x a unit
    return 1 if any(z * z % p == ru for z in range(1, p)) else -1


def hilbert_oracle_neg1_neg1_at_2() -> int:
    """Exhaustive scan: z^2 = -x^2 - y^2 has no primitive solution mod 8, and a
    primitive 2-adic solution would reduce to one; hence the symbol is -1."""
    for x in range(8):
        for y in range(8):
            for z in range(8):
                if x % 2 == 0 and y % 2 == 0 and z % 2 == 0:
                    continue
                if (z * z + x * x + y * y) % 8 == 0:
                    return 1
    return -1


# -- tower oracles ----------------------------------------------------------


def square_decompose(m: int) -> tuple[int, int]:
    """m = g^2 * r with r squarefree, by trial division; returns (g, r)."""
    g, r, k = 1, m, 2
    while k * k <= r:
        while r % (k * k) == 0:
            r //= k * k
            g *= k
        k += 1
    return g, r


def tower_by_trial_division(generators) -> tuple[tuple[int, ...], tuple]:
    """Radicands (squarefree parts of the subset products, subset-binary order)
    and the table sqrt(m_i)*sqrt(m_j) = g*sqrt(m_k) as entries (g, k)."""
    radicands = []
    for mask in range(1 << len(generators)):
        m = 1
        for j, g in enumerate(generators):
            if mask >> j & 1:
                m *= g
        radicands.append(square_decompose(m)[1])
    index = {m: i for i, m in enumerate(radicands)}
    table = []
    for mi in radicands:
        row = []
        for mj in radicands:
            g, r = square_decompose(mi * mj)
            row.append((g, index[r]))
        table.append(tuple(row))
    return tuple(radicands), tuple(table)


def nonsquare_witness(generators, coords, t_max: int = 5000):
    """A place of Q(sqrt g_1, ..., sqrt g_k) at which the element with these
    coordinates (over the subset-product basis) reduces to a nonzero
    non-residue, as (t, roots of the g_j mod t); None when no t <= t_max
    gives one.

    For a prime t at which every g_j is a nonzero square, sending sqrt(g_j)
    to a scanned root r_j sends the basis radical sqrt(m) of a subset, with
    product of the g_j equal to g^2 * m, to (product of the r_j) / g; that is a
    ring map to F_t. A square maps to a square, so a non-residue image proves
    the element is not a square.
    """
    subsets = []
    for mask in range(1 << len(generators)):
        prod = 1
        for j, g in enumerate(generators):
            if mask >> j & 1:
                prod *= g
        subsets.append((mask, square_decompose(prod)[0]))
    for t in range(3, t_max + 1, 2):
        if not trial_division_is_prime(t) or any(g % t == 0 for g in generators):
            continue
        if any(Fraction(c).denominator % t == 0 for c in coords):
            continue
        squares = {x * x % t for x in range(1, t)}
        roots = [next((x for x in range(1, t) if x * x % t == g % t), None) for g in generators]
        if None in roots:
            continue
        value = 0
        for (mask, g), c in zip(subsets, coords):
            c = Fraction(c)
            image = pow(g, -1, t)
            for j, r in enumerate(roots):
                if mask >> j & 1:
                    image = image * r % t
            value += c.numerator * pow(c.denominator, -1, t) * image
        if value % t and value % t not in squares:
            return t, tuple(roots)
    return None


# -- tower arithmetic over Fraction coordinates ---------------------------
#
# The product and the square-root descent as `fields` computed them on
# `fractions.Fraction` coordinates, with the table of
# `tower_by_trial_division` (or any table of that form): a coordinate list z of length 2^l is split as
# x + y*sqrt(b) with y over the lower basis (dividing the upper half by the
# table gcds), and the relative norm is x^2 - b*y^2.


def fraction_mul(a, b, table) -> list:
    out = [Fraction(0)] * len(a)
    for i, ai in enumerate(a):
        if ai:
            row = table[i]
            for j, bj in enumerate(b):
                if bj:
                    g, k = row[j]
                    out[k] += ai * bj * g
    return out


def _split(z: list, table) -> tuple[list, list]:
    half = len(z) // 2
    return z[:half], [c / table[i][half][0] for i, c in enumerate(z[half:])]


def _join(x: list, y: list, table) -> list:
    half = len(x)
    return x + [c * table[i][half][0] for i, c in enumerate(y)]


def _fraction_rel_norm(x: list, y: list, radicands, table) -> list:
    b = radicands[len(x)]
    return [p - b * q for p, q in zip(fraction_mul(x, x, table), fraction_mul(y, y, table))]


def _fraction_norm_multiplier(z: list, radicands, table) -> tuple[list, Fraction]:
    if len(z) == 1:
        return [Fraction(1)], z[0]
    x, y = _split(z, table)
    w, d = _fraction_norm_multiplier(_fraction_rel_norm(x, y, radicands, table), radicands, table)
    return _join(fraction_mul(x, w, table), [-c for c in fraction_mul(y, w, table)], table), d


def _fraction_sign(z: list, radicands, table) -> int:
    if len(z) == 1:
        return 1 if z[0] > 0 else -1
    x, y = _split(z, table)
    sx = _fraction_sign(x, radicands, table) if any(x) else 0
    sy = _fraction_sign(y, radicands, table) if any(y) else 0
    if sx * sy >= 0:
        return sx or sy
    return sx * _fraction_sign(_fraction_rel_norm(x, y, radicands, table), radicands, table)


def _fraction_sqrt(z: list, radicands, table) -> list | None:
    if len(z) == 1:
        a = z[0]
        if a < 0:
            return None
        num, den = isqrt(a.numerator), isqrt(a.denominator)
        if num * num != a.numerator or den * den != a.denominator:
            return None
        return [Fraction(num, den)]
    x, y = _split(z, table)
    zero = [Fraction(0)] * len(x)
    if not any(y):
        u = _fraction_sqrt(x, radicands, table)
        if u is not None:
            return u + zero
        b = radicands[len(x)]
        v = _fraction_sqrt([c / b for c in x], radicands, table)
        return None if v is None else _join(zero, v, table)
    n = _fraction_sqrt(_fraction_rel_norm(x, y, radicands, table), radicands, table)
    if n is None:
        return None
    for sg in (1, -1):
        u = _fraction_sqrt([(a + sg * c) / 2 for a, c in zip(x, n)], radicands, table)
        if u is not None:
            w, d = _fraction_norm_multiplier(u, radicands, table)
            return _join(u, [c / (2 * d) for c in fraction_mul(y, w, table)], table)
    return None


def fraction_descent_sqrt(radicands, table, coords) -> tuple[Fraction, ...] | None:
    """The square root of a nonzero tower element given by its radicands,
    basis table and coordinates, positive at the all-positive embedding, by
    the relative-norm descent on Fraction coordinates; None when the element
    is not a square."""
    root = _fraction_sqrt([Fraction(c) for c in coords], radicands, table)
    if root is None:
        return None
    if _fraction_sign(root, radicands, table) < 0:
        root = [-c for c in root]
    return tuple(root)


def relative_norm_to_sqrt2(x) -> tuple[Fraction, Fraction]:
    """x*conj(x) for x in Q(sqrt2, sqrt m), conj the automorphism that fixes
    sqrt2 and flips sqrt m, as (n0, n1) for n0 + n1*sqrt2: with x = a + b*sqrt m
    for a = c0 + c1*sqrt2, b = c2 + c3*sqrt2 on the basis (1, sqrt2, sqrt m,
    sqrt 2m), the product is a^2 - m*b^2, multiplied out on Fractions."""
    assert tuple(x.tower.radicands[:2]) == (1, 2) and x.tower.radicands[3] == 2 * x.tower.radicands[2]
    m = x.tower.radicands[2]
    c0, c1, c2, c3 = (Fraction(c) for c in x.coords)
    a2 = (c0 * c0 + 2 * c1 * c1, 2 * c0 * c1)
    b2 = (c2 * c2 + 2 * c3 * c3, 2 * c2 * c3)
    return a2[0] - m * b2[0], a2[1] - m * b2[1]


def primes_of_sqrt2_over(ell: int) -> list[tuple[int, int]]:
    """The primes of Z[sqrt2] over the odd prime ell, as generators (a, b) of
    a + b*sqrt2: ell itself when ell = +-3 (mod 8) is inert, else a and its
    conjugate for the first a^2 - 2*b^2 = +-ell found by trying b = 0, 1, ...
    (Thue's lemma puts one with b^2 < ell)."""
    if ell % 8 in (3, 5):
        return [(ell, 0)]
    for b in range(isqrt(ell) + 1):
        for n in (ell + 2 * b * b, 2 * b * b - ell):
            a = isqrt(max(n, 0))
            if a * a == n and a:
                return [(a, b), (a, -b)]
    raise AssertionError(f"no element of norm +-{ell} in Z[sqrt2]")


def sqrt2_divides(pi: tuple[int, int], z: tuple[int, int]) -> bool:
    """Whether pi divides z in Z[sqrt2]: z*conj(pi) is a multiple of N(pi)."""
    a, b = pi
    n = a * a - 2 * b * b
    return (z[0] * a - 2 * z[1] * b) % n == 0 == (z[1] * a - z[0] * b) % n


def sqrt2_is_square(c0: int, c1: int) -> bool:
    """Whether c0 + c1*sqrt2 = (a + b*sqrt2)^2 = a^2 + 2*b^2 + 2ab*sqrt2 for
    integers a, b; Z[sqrt2] is integrally closed, so this is being a square
    in Q(sqrt2). a^2 and 2*b^2 are the roots of X^2 - c0*X + c1^2/2, and each
    root is tried as a^2, the pair (a, b) checked exactly."""
    disc = c0 * c0 - 2 * c1 * c1
    if c0 < 0 or disc < 0 or isqrt(disc) ** 2 != disc:
        return False
    for aa in (c0 + isqrt(disc), c0 - isqrt(disc)):
        a, b = isqrt(aa // 2), isqrt(max(c0 - aa // 2, 0) // 2)
        if a * a + 2 * b * b == c0 and 2 * a * b == abs(c1):
            return True
    return False


def kappa_r_by_trial(g: tuple[int, int], p: int, q: int, s: int) -> int | None:
    """The first r of 1, qs, pq, ps for which r*g is a square in Q(sqrt2), each
    tried by `sqrt2_is_square`; None when none is."""
    return next((r for r in (1, q * s, p * q, p * s) if sqrt2_is_square(r * g[0], r * g[1])), None)


def real_sign(x) -> int:
    """Sign of a tower element at the all-positive real embedding, by integer
    bounds alone: isqrt(m * 4^k) <= 2^k * sqrt(m) < isqrt(m * 4^k) + 1 puts
    2^k * D * x between two integer sums, D the common denominator, and k
    doubles until both sums have one sign, as they do for x != 0."""
    den = lcm(*(c.denominator for c in x.coords))
    terms = [(int(c * den), m) for c, m in zip(x.coords, x.tower.radicands) if c]
    if not terms:
        return 0
    k = 32
    while True:
        lo = hi = 0
        for c, m in terms:
            r = isqrt(m << 2 * k)
            up = r if r * r == m << 2 * k else r + 1
            lo += c * (r if c > 0 else up)
            hi += c * (up if c > 0 else r)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        k *= 2


# -- primes, split primes and the in-pattern corpus -----------------------


@lru_cache(maxsize=None)
def _odd_primes_below(limit: int) -> tuple[int, ...]:
    return tuple(n for n in range(3, limit, 2) if trial_division_is_prime(n))


def odd_primes_by_trial_division(bound: int) -> list[int]:
    """The odd primes up to bound, by trial division."""
    return [n for n in _odd_primes_below(max(bound, 100_000) + 1) if n <= bound]


def euler_legendre(a: int, t: int) -> int:
    """Legendre symbol (a/t) for an odd prime t by Euler's criterion."""
    r = pow(a, (t - 1) // 2, t)
    return 0 if r == 0 else 1 if r == 1 else -1


def split_primes_by_legendre(p: int, q: int, s: int, bound: int):
    """Odd primes t <= bound with (2/t) = (pq/t) = (ps/t) = 1, ascending, lazily."""
    return (
        t for t in odd_primes_by_trial_division(bound)
        if all(euler_legendre(a, t) == 1 for a in (2, p * q, p * s))
    )


# the seed-0 size ladder of the benchmark, at p, q, s near 1e3, 3e3, 1e4, 3e4
LADDER_TRIPLES = ((1031, 1019, 1171), (3023, 3011, 3019), (10007, 10067, 10091), (30047, 30011, 30139))


def in_pattern_triples(limit: int) -> list[tuple[int, int, int]]:
    """Triples of distinct primes below limit with q < s, p = 7 and
    q = s = 3 (mod 8), and ((q/p), (s/p), (q/s)) = (1, 1, 1) or (-1, -1, 1),
    in lexicographic order."""
    primes = odd_primes_by_trial_division(limit - 1)
    ps = [n for n in primes if n % 8 == 7]
    qs = [n for n in primes if n % 8 == 3]
    return [
        (p, q, s)
        for p in ps
        for i, q in enumerate(qs)
        for s in qs[i + 1:]
        if (euler_legendre(q, p), euler_legendre(s, p), euler_legendre(q, s))
        in ((1, 1, 1), (-1, -1, 1))
    ]


# -- the per-place scan -----------------------------------------------------
#
# The place scan as the library made it before it reduced each element once
# per prime: split primes by three Legendre symbols, every residue computed
# afresh at its place, every functional bit a Hilbert symbol, and the "u"
# functional of each place before its "t" functional. The library's scans
# must give the same decisions, certificates and errors.


class Place(NamedTuple):
    """A place above t by its roots of 2, pq and ps, their signs against the
    canonical roots, and the residue of each basis root sqrt(m)."""

    t: int
    signs: tuple[int, int, int]
    r2: int
    rpq: int
    rps: int
    residues: dict[int, int]


def places_by_sqrt_mod(t: int, p: int, q: int, s: int) -> list[Place]:
    """The eight places above t from sqrt_mod's canonical roots, signs in
    lexicographic order with +1 first, each with its residues computed from
    its own roots, sqrt(qs) as sqrt(pq) * sqrt(ps) / p."""
    from unitcert import sqrt_mod

    canonical = [sqrt_mod(a, t) for a in (2, p * q, p * s)]
    places = []
    for signs in product((1, -1), repeat=3):
        r2, rpq, rps = (c if sg > 0 else t - c for c, sg in zip(canonical, signs))
        rqs = rpq * rps * pow(p, -1, t) % t
        residues = {1: 1, 2: r2, p * q: rpq, 2 * p * q: r2 * rpq % t, p * s: rps,
                    2 * p * s: r2 * rps % t, q * s: rqs, 2 * q * s: r2 * rqs % t}
        places.append(Place(t, signs, r2, rpq, rps, residues))
    return places


def residue_by_place(x, place) -> int | None:
    """Residue of a Pell unit or tower element at one place, every
    coordinate's denominator inverted at that place; None when t divides one."""
    t = place.t
    if hasattr(x, "d"):
        return (x.x + x.y * place.residues[x.d]) % t
    total = 0
    for m, c in zip(x.tower.radicands, x.coords):
        if c:
            if c.denominator % t == 0:
                return None
            total += c.numerator * pow(c.denominator, -1, t) * place.residues[m]
    return total % t


def survey_by_places(p, q, s, theta_elem, eps_pq, bound=100_000, count=50) -> list[tuple]:
    """Rows (t, signs, valid, eps_pq residue and its Legendre symbol, Theta
    residue and its Legendre symbol, delta) of the place survey. A Theta
    residue that is zero or not defined at a valid place ends the places
    above its t."""
    rows = []
    for t in islice(split_primes_by_legendre(p, q, s, bound), count):
        for place in places_by_sqrt_mod(t, p, q, s):
            r_eps = residue_by_place(eps_pq, place)
            leg_eps = euler_legendre(r_eps, t)
            if leg_eps != -1:
                rows.append((t, place.signs, False, r_eps, leg_eps, None, None, None))
                continue
            r_theta = residue_by_place(theta_elem, place)
            if not r_theta:
                break
            leg = euler_legendre(r_theta, t)
            rows.append((t, place.signs, True, r_eps, leg_eps, r_theta, leg, 0 if leg == 1 else 1))
    return rows


def _functionals_u_before_t(tower, bound: int, max_primes: int):
    p, q, s = tower.p, tower.q, tower.s
    for t in islice(split_primes_by_legendre(p, q, s, bound), max_primes):
        u = smallest_nonresidue_scan(t)
        for place in places_by_sqrt_mod(t, p, q, s):
            yield place, "u", u
            yield place, "t", t


def _hilbert_bits(place, value: int, elements) -> list[int] | None:
    from unitcert import hilbert_symbol

    bits = []
    for x in elements:
        r = residue_by_place(x, place)
        if not r:
            return None
        bits.append(0 if hilbert_symbol(r, value, place.t) == 1 else 1)
    return bits


def _functional_json(place, basis: str, value: int) -> dict:
    return {"t": str(place.t), "signs": list(place.signs), "basis": basis, "value": str(value)}


def _rank(rows: list[int]) -> int:
    """F2 rank of rows given as bit masks."""
    basis: dict[int, int] = {}
    for r in rows:
        while r and (r & -r) in basis:
            r ^= basis[r & -r]
        if r:
            basis[r & -r] = r
    return len(basis)


def certify_affine_by_places(u0, generators, bound=100_000, max_primes=64):
    """(functionals as JSON, matrix, base bits) of the affine search; raises
    RankDeficient or SearchExhausted with the library's messages."""
    from unitcert.errors import RankDeficient, SearchExhausted

    r = len(generators)
    chosen, matrix, base_bits, masks = [], [], [], []
    detected = [False] * r
    if r == 0:
        return chosen, matrix, base_bits
    for place, basis, value in _functionals_u_before_t(u0.tower, bound, max_primes):
        bits = _hilbert_bits(place, value, [*generators, u0])
        if bits is None:
            continue
        col, base = bits[:-1], bits[-1]
        detected = [d or bool(b) for d, b in zip(detected, col)]
        mask = sum(b << j for j, b in enumerate(col))
        if mask == 0 or _rank(masks + [mask]) <= len(masks):
            continue
        chosen.append(_functional_json(place, basis, value))
        matrix.append(col)
        base_bits.append(base)
        masks.append(mask)
        if len(chosen) == r:
            return chosen, matrix, base_bits
    for j, hit in enumerate(detected):
        if not hit:
            raise RankDeficient(
                f"generator {j} was not detected by any functional below {bound}; "
                "dependence suspected"
            )
    raise SearchExhausted(f"rank {len(chosen)} of {r} reached with split primes below {bound}")


def separate_by_places(candidates, bound=100_000, max_primes=64) -> dict:
    """The separation certificate as JSON; raises Inseparable or
    SearchExhausted as the library does."""
    from unitcert import sqrt_exact
    from unitcert.errors import Inseparable, SearchExhausted

    texts = [c.to_text() for c in candidates]
    if len(candidates) == 1:
        return {"candidates": texts, "functionals": [], "table": [[]]}
    diffs = [c * candidates[0] for c in candidates[1:]]
    chosen, masks = [], []
    rows = [[] for _ in candidates]
    for place, basis, value in _functionals_u_before_t(candidates[0].tower, bound, max_primes):
        values = _hilbert_bits(place, value, [*diffs, *candidates])
        if values is None:
            continue
        col, bits = values[:len(diffs)], values[len(diffs):]
        mask = sum(b << j for j, b in enumerate(col))
        if mask == 0 or _rank(masks + [mask]) <= len(masks):
            continue
        chosen.append(_functional_json(place, basis, value))
        masks.append(mask)
        rows = [row + [b] for row, b in zip(rows, bits)]
        if len({tuple(row) for row in rows}) == len(rows):
            return {"candidates": texts, "functionals": chosen, "table": rows}
    collisions = [
        (i, j)
        for i in range(len(candidates))
        for j in range(i + 1, len(candidates))
        if rows[i] == rows[j]
    ]
    for i, j in collisions:
        if sqrt_exact(candidates[i] * candidates[j]) is not None:
            raise Inseparable(i, j)
    raise SearchExhausted(
        f"rows still collide after scanning split primes below {bound}: {collisions}"
    )
