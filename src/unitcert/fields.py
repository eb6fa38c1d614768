"""Exact arithmetic in real multiquadratic towers.

Covers the biquadratic fields Q(sqrt a, sqrt b) and the octic field
Q(sqrt2, sqrt pq, sqrt ps): basis multiplication; exact square roots by
relative-norm descent through the index-2 subfields, for `unitcert sqrt`, the
unit index and `separate_candidates`; closed-form roots of products of Pell
units of norm +1 from their half units, sqrt(eps) = (h*sqrt(Q) +
k*g*sqrt(n))/Q, each binomial formed once and the product's terms written
straight into the tower's coordinates; Theta's two such factors, in towers
Q(sqrt2, sqrt pq) and Q(sqrt2, sqrt ps) that rest on the octic field's proof
of the triple; xi, the root of mu*Theta, from a relative half-root of each
factor over Z[sqrt2] (sqrt(x) = (gamma*alpha + beta*sqrt m) /
sqrt(2*gamma*D)), computed, checked and assembled on Z[sqrt2] pairs with
closed-form signs; and the biquadratic unit-index square test. No root that
`delta` takes needs the descent: a Pell-unit root is proved binomial by
binomial from the half units' identities, which `QuadUnit` proves, and xi
one factor at a time. Signs at the distinguished (all positive) real
embedding are decided exactly, so nothing here approximates a real number.

An element has one format, the integer kernel's: integer numerators over one
positive denominator, with their common content removed, so equal values
are equal tuples. Sums, products (through the basis table, by `_mul`) and
square roots all run on that format; `Tower.element` reads rational
coordinates in and `TowerElement.coords` reads them out. A tower builds its
basis table on the first product, root or sign that reads it, so `delta`,
which takes none, builds none.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, isqrt, lcm, prod
from operator import index

from .arith import is_prime
from .errors import NotASquareInBiquad
from .pell import QuadUnit, _decimal, fundamental_pell, is_squarefree


class Tower:
    """The field Q(sqrt g_1, ..., sqrt g_k) for multiplicatively independent
    squarefree generators, with basis the squarefree parts of subset products
    in subset-binary order."""

    def __init__(self, generators: tuple[int, ...]):
        gens = tuple(index(g) for g in generators)
        for g in gens:
            if g <= 1 or not is_squarefree(g):
                raise ValueError(f"generator {g} must be a squarefree integer > 1")
        self._build(gens)
        if len(self._index) != self.degree:
            raise ValueError(f"generators {gens} are not independent modulo squares")

    def _build(self, gens: tuple[int, ...]) -> None:
        """The basis, for generators proved squarefree and independent."""
        # r * g / gcd(r, g)^2 is the squarefree part of r * g for squarefree r, g
        radicands = [1]
        for g in gens:
            radicands += [r * g // gcd(r, g) ** 2 for r in radicands]
        self.generators = gens
        self.radicands = tuple(radicands)
        self.degree = 1 << len(gens)
        self._index = {m: i for i, m in enumerate(radicands)}

    tokens = property(lambda self: tuple("1" if m == 1 else f"r{m}" for m in self.radicands))

    @cached_property
    def _table(self) -> tuple[tuple[int, ...], ...]:
        """The basis table, built on the first product, root or sign that reads it."""
        radicands = self.radicands
        # sqrt(m_i) * sqrt(m_j) = gcd(m_i, m_j) * sqrt(m_(i xor j)): the table keeps the gcd
        return tuple(tuple(gcd(mi, mj) for mj in radicands) for mi in radicands)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tower) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        inside = ", ".join(f"sqrt{g}" for g in self.generators)
        return f"Q({inside})"

    # -- elements ---------------------------------------------------------

    def element(self, coords) -> TowerElement:
        """The element with coordinates that `Fraction` reads exactly (ints,
        strings); a float raises TypeError, a zero denominator ValueError."""
        cs = []
        for i, c in enumerate(coords):
            if isinstance(c, float):
                raise TypeError(f"coordinate {i} ({c!r}) is a float, not an exact rational")
            try:
                cs.append(Fraction(c))
            except ZeroDivisionError:
                raise ValueError(f"coordinate {i} ({c!r}) has a zero denominator") from None
        if len(cs) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(cs)}")
        den = lcm(*(c.denominator for c in cs))
        return TowerElement(self, [c.numerator * (den // c.denominator) for c in cs], den)

    def zero(self) -> TowerElement:
        return TowerElement(self, [0] * self.degree)

    def one(self) -> TowerElement:
        return self.from_rational(1)

    def from_rational(self, c) -> TowerElement:
        """The rational c, an int or a `Fraction`, in this tower; a float raises TypeError."""
        if isinstance(c, float):
            raise TypeError(f"{c!r} is a float, not an exact rational")
        return TowerElement(self, [c.numerator] + [0] * (self.degree - 1), c.denominator)

    def from_quad_unit(self, u: QuadUnit) -> TowerElement:
        if u.d not in self._index:
            raise ValueError(f"sqrt({u.d}) does not lie in {self!r}")
        num = [0] * self.degree
        num[0], num[self._index[u.d]] = u.x, u.y
        return TowerElement(self, num)

    def lift(self, x: TowerElement) -> TowerElement:
        """Embed an element of a subtower whose radicands all occur here."""
        out = [0] * self.degree
        for m, c in zip(x.tower.radicands, x.num):
            if m not in self._index:
                raise ValueError(f"sqrt({m}) does not lie in {self!r}")
            out[self._index[m]] = c
        return TowerElement(self, out, x.den)


class TowerElement:
    """Element of a Tower: integer numerators `num` over one positive
    denominator `den`, with no content common to all of them, so that equal
    values have equal (num, den). `coords` reads the rational coordinates."""

    __slots__ = ("tower", "num", "den")

    def __init__(self, tower: Tower, num, den: int = 1):
        v, self.den = _reduced(num, den)
        self.tower, self.num = tower, tuple(v)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def __repr__(self) -> str:
        return f"<{self.to_text()} in {self.tower!r}>"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TowerElement)
            and self.tower == other.tower
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.tower, self.num, self.den))

    def is_zero(self) -> bool:
        return not any(self.num)

    def _coerce(self, other) -> TowerElement | None:
        if isinstance(other, TowerElement):
            if other.tower != self.tower:
                raise ValueError("elements live in different towers")
            return other
        if isinstance(other, (int, Fraction)):
            return self.tower.from_rational(other)
        return None

    def _plus(self, other, sign: int) -> TowerElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        return TowerElement(
            self.tower, [a * db + sign * b * da for a, b in zip(self.num, o.num)], da * db
        )

    def __add__(self, other) -> TowerElement:
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> TowerElement:
        return self._plus(other, -1)

    def __neg__(self) -> TowerElement:
        return TowerElement(self.tower, [-c for c in self.num], self.den)

    def __mul__(self, other) -> TowerElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # x*x passes one tuple twice, which `_mul` squares
        return TowerElement(self.tower, _mul(self.num, o.num, self.tower._table), self.den * o.den)

    __rmul__ = __mul__

    def to_text(self) -> str:
        """Canonical textual form "c0 + c1*r2 + ..." with exact rationals."""
        parts = []
        for c, tok in zip(self.coords, self.tower.tokens):
            rat = _decimal(c.numerator)
            if c.denominator != 1:
                rat += "/" + _decimal(c.denominator)
            parts.append(rat if tok == "1" else f"{rat}*{tok}")
        return " + ".join(parts)


class BiquadField(Tower):
    """Real biquadratic field Q(sqrt a, sqrt b) with a, b, ab squarefree."""

    def __init__(self, a: int, b: int):
        if gcd(a, b) != 1:
            raise ValueError(f"need ab squarefree, got gcd({a},{b}) > 1")
        super().__init__((a, b))


def _check_triple(p: int, q: int, s: int) -> None:
    if len({p, q, s}) != 3 or any(n == 2 or not is_prime(n) for n in (p, q, s)):
        raise ValueError(f"({p}, {q}, {s}) must be distinct odd primes")


class OcticField(Tower):
    """The degree-8 field Q(sqrt2, sqrt pq, sqrt ps) for distinct odd primes."""

    tokens = ("1", "r2", "rpq", "r2pq", "rps", "r2ps", "rqs", "r2qs")

    def __init__(self, p: int, q: int, s: int):
        _check_triple(p, q, s)
        self._build((2, p * q, p * s))  # squarefree and independent for distinct odd primes
        self.p, self.q, self.s = p, q, s


class _FactorField(BiquadField):
    """Q(sqrt2, sqrt d), d = pq or ps of a triple that `OcticField` proved: 2
    and d are squarefree and independent, so the basis is built unchecked."""

    def __init__(self, a: int, b: int):
        self._build((a, b))


# -- integer kernel and exact square roots --------------------------------
#
# The helpers below work on integer coordinate lists, such as an element's
# numerators. The first half of a tower's basis spans the subtower over all
# generators but the last, and the basis table maps that half into itself;
# so a list of length 2^l is an element of the subtower over the first l
# generators, multiplied with the full table. Write it as x + w, x the lower
# half and w the upper half, both in the tower's own basis, and let b be the
# l-th generator, so that w = y*sqrt(b) for some y in the lower half. The
# conjugate over the next subtower down flips the sign of w; through the
# table, w^2 lands in the lower half and a lower-half element times w in the
# upper half; the relative norm is x^2 - w^2. Every step below recurses on
# halves.


def _mul(a: list[int], b: list[int], table) -> list[int]:
    """Product of two integer coordinate lists of one length through the basis
    table of gcds, sqrt(m_i)*sqrt(m_j) landing on index i xor j, skipping zero
    coordinates; the same list twice is squared over the pairs i <= j, with
    the cross terms doubled and the diagonal on index 0."""
    out = [0] * len(a)
    if a is b:
        nz = [(i, c) for i, c in enumerate(a) if c]
        for n, (i, ai) in enumerate(nz):
            row = table[i]
            out[0] += row[i] * (ai * ai)
            ai2 = 2 * ai
            for j, aj in nz[n + 1:]:
                out[i ^ j] += row[j] * ai2 * aj
        return out
    nzb = [(j, c) for j, c in enumerate(b) if c]
    for i, ai in enumerate(a):
        if ai:
            row = table[i]
            for j, bj in nzb:
                out[i ^ j] += row[j] * ai * bj
    return out


def _reduced(v: list[int], den: int) -> tuple[list[int], int]:
    """v/den with the common content removed and the denominator positive, v
    as it is when den is 1. Each coordinate is divided once by the content g
    found so far; a remainder r shrinks g and scales the quotients taken."""
    if den == 1:
        return v, 1
    g, out = abs(den), []
    for c in v:
        q, r = divmod(c, g) if c else (0, 0)  # a zero coordinate takes no division
        if r:
            h = gcd(g, r)
            f = g // h
            out = [o * f for o in out]
            q, g = q * f + r // h, h
        out.append(q)
    if den < 0:
        g = -g
        out = [-o for o in out]
    return out, den // g


def _times_sqrt_b(z: list[int], table) -> list[int]:
    """z*sqrt(b), which swaps the roles of the two halves."""
    e = [0] * len(z)
    e[len(z) // 2] = 1
    return _mul(z, e, table)


def _rel_norm(z: list[int], table) -> list[int]:
    """x^2 - w^2, the norm of z = x + w down to the subtower."""
    half = len(z) // 2
    x = z[:half]
    w = [0] * half + z[half:]
    return [p - q for p, q in zip(_mul(x, x, table), _mul(w, w, table))]


def _norm_multiplier(z: list[int], table) -> tuple[list[int], int]:
    """(m, d) with z*m = d, a rational integer: m multiplies the conjugate
    x - w by the multiplier of the relative norm, down to the base."""
    if len(z) == 1:
        return [1], z[0]
    half = len(z) // 2
    m, d = _norm_multiplier(_rel_norm(z, table), table)
    conj = z[:half] + [-c for c in z[half:]]
    return _mul(conj, m + [0] * half, table), d


def _sign(z: list[int], table) -> int:
    """Sign of a nonzero z at the distinguished embedding, exactly: x + w has
    the sign of x when x and w agree in sign, and otherwise the sign of x when
    x^2 - w^2 > 0, that of w when it is < 0. The sign of w is that of
    w*sqrt(b), which lies in the lower half."""
    if len(z) == 1:
        return 1 if z[0] > 0 else -1
    half = len(z) // 2
    x, w = z[:half], z[half:]
    sx = _sign(x, table) if any(x) else 0
    sw = _sign(_times_sqrt_b([0] * half + w, table)[:half], table) if any(w) else 0
    if sx * sw >= 0:
        return sx or sw
    return sx * _sign(_rel_norm(z, table), table)


def _sqrt(z: list[int], table) -> tuple[list[int], int] | None:
    """A square root (v, D) of a nonzero integer list z, or None when z is not
    a square.

    With z = x + w = (u + v)^2, u in the lower half and v in the upper: if
    w = 0 then u = 0 or v = 0, and v = sqrt(b*x)*sqrt(b)/b; otherwise
    n = u^2 - v^2 is a root of the norm x^2 - w^2, up to sign, and one of
    (x + n)/2, (x - n)/2 is u^2, the other v^2. Any root u of either, with
    v = w/(2u), then gives a root, since x^2 - n^2 = w^2. A root of the
    rational a/D is sqrt(a*D)/D, so every recursive call is on integers.
    """
    if len(z) == 1:
        a = z[0]
        if a < 0:
            return None
        r = isqrt(a)
        return ([r], 1) if r * r == a else None
    if len(z) == 2 and z[1]:
        x, w = z
        b = table[1][1]
        return _root_quadratic(x, w, b, x * x - b * (w * w))
    half = len(z) // 2
    x, w = z[:half], z[half:]
    if not any(w):
        root = _sqrt(x, table)
        if root is not None:
            return root[0] + [0] * half, root[1]
        b = table[half][half]
        root = _sqrt([b * c for c in x], table)
        if root is None:
            return None
        return _reduced(_times_sqrt_b(root[0] + [0] * half, table), root[1] * b)
    n = _sqrt(_rel_norm(z, table), table)
    if n is None:
        return None
    nv, nd = n
    for sg in (1, -1):
        # u^2 = (x + sg*n)/2 = a/(2*nd) with a integral
        root = _sqrt([2 * nd * (nd * c + sg * e) for c, e in zip(x, nv)], table)
        if root is not None:
            uv, ud = root
            den = 2 * nd * ud  # u = uv/den
            # v = w/(2u) = w*den*m/(2d), with uv*m = d
            m, d = _norm_multiplier(uv, table)
            wm = _mul([0] * half + w, m + [0] * half, table)[half:]
            vv, vd = _reduced([c * den for c in wm], 2 * d)
            common = den * vd // gcd(den, vd)
            lo, hi = common // den, common // vd
            return _reduced([c * lo for c in uv] + [c * hi for c in vv], common)
    return None


def _root_quadratic(x: int, w: int, b: int, norm: int) -> tuple[list[int], int] | None:
    """A root (v, D) of x + w*sqrt(b), w != 0, whose norm x^2 - b*w^2 the
    caller gives, or None when it is no square: with the root u + v*sqrt(b)
    and n = sqrt(norm), one of x + n, x - n is 2u^2 and the other 2b*v^2, so
    the root is (r + r2*sqrt(b))/2 with r = sqrt(2(x +- n)) and
    r2 = sqrt(2(x -+ n)/b), of the sign of w. Three integer square roots;
    the only divisor is b."""
    if norm < 0:
        return None
    n = isqrt(norm)
    if n * n != norm:
        return None
    for c in (x + n, x - n):
        if c < 0:
            continue
        r = isqrt(2 * c)
        c2, rem = divmod(2 * (2 * x - c), b)
        if r * r != 2 * c or rem:
            continue
        r2 = isqrt(c2)
        if r2 * r2 == c2:  # (r, r2)/2, its content 2 removed by parity
            r2 = r2 if w > 0 else -r2
            return ([r // 2, r2 // 2], 1) if r % 2 == r2 % 2 == 0 else ([r, r2], 2)
    return None


def sqrt_exact(alpha: TowerElement) -> TowerElement | None:
    """Exact square root in the element's own tower, normalized positive at the
    distinguished embedding, or None when alpha is not a square.

    Method: relative-norm descent through the index-2 subtowers down to exact
    integer square roots, on integer coordinate lists; the sign is decided by
    the same recursion, and the root is verified by exact squaring.
    """
    if alpha.is_zero():
        raise ValueError("square root of the zero element")
    tower = alpha.tower
    den = alpha.den
    # sqrt(v/den) = sqrt(v*den)/den
    root = _sqrt([c * den for c in alpha.num], tower._table)
    if root is None:
        return None
    rv, rd = root
    if _sign(rv, tower._table) < 0:
        rv = [-c for c in rv]
    root = TowerElement(tower, rv, rd * den)
    if root * root != alpha:
        raise ArithmeticError("the descent root does not square back")
    return root


def sqrt_preferring_subfield(alpha: TowerElement) -> TowerElement | None:
    """The root of `sqrt_exact` under a name of its own, which `bench/tracer.py`
    times as the FSU-root layer. The FSU roots of `residual` now come from
    `sqrt_unit_product` and do not call it."""
    return sqrt_exact(alpha)


def sqrt_octic(alpha: TowerElement) -> TowerElement | None:
    """Square root in the octic field, normalized positive at the distinguished
    embedding; None when there is no root."""
    if alpha.tower.degree != 8:
        raise ValueError("sqrt_octic expects an element of the octic field")
    return sqrt_exact(alpha)


# -- closed-form roots of Pell-unit products -------------------------------


def sqrt_unit_product(tower: Tower, units) -> TowerElement | None:
    """Square root in `tower` of the product of one Pell unit, or of two with
    different d, positive at the distinguished embedding; None when the
    product is not a square there.

    A unit of norm +1 from `fundamental_pell` keeps its half unit (h, k, Q),
    which `QuadUnit`'s constructor proved: eps = (h + k*sqrt(d))^2/Q, h, k > 0,
    and Q | 2d, 4 not dividing Q, so Q is squarefree. Then sqrt(eps) =
    (h*sqrt(Q) + k*g*sqrt(n))/Q, g = gcd(d, Q) and n = d*Q/g^2 squarefree,
    which squares to (h^2 + d*k^2 + 2hk*sqrt(d))/Q = eps as g^2*n = d*Q and
    sqrt(Q*n) = (Q/g)*sqrt(d). Each binomial is formed once; the at most four
    terms of their product, sqrt(r)*sqrt(m) = f*sqrt(r*m/f^2), f = gcd(r, m),
    go straight into the tower's coordinates over the product of the Q. The
    identities prove the root: no square is formed, no unit-sized number
    divided or rooted. Every coefficient is positive, so the root is positive
    at the distinguished embedding, and a term whose radicand is not in the
    tower puts the root outside it. A unit of norm -1 is negative at an
    embedding that flips its sqrt(d) and keeps the other unit's, so then the
    product is no square.
    """
    for u in units:
        if u.norm != 1:
            return None
    binomials, den = [((1, 1),)] * (2 - len(units)), 1  # one unit: its binomial times 1
    for u in units:
        if u.half is None:
            raise ValueError(f"the unit of Z[sqrt({u.d})] has no half unit; take it from fundamental_pell")
        h, k, Q = u.half
        g = gcd(u.d, Q)
        binomials.append(((h, Q), (k * g, u.d // g * (Q // g))))
        den *= Q
    num, slot = [0] * tower.degree, tower._index
    for (c, r), (e, m) in product(*binomials):
        f = gcd(r, m)
        i = slot.get(r // f * (m // f))
        if i is None:
            return None
        num[i] += c * e * f
    return TowerElement(tower, num, den)


# -- closed-form root of a product of two relative-norm-one factors ---------
#
# The helpers below work in Z[sqrt2] on pairs (c0, c1) = c0 + c1*sqrt2.


def _sqrt2_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] * b[0] + 2 * a[1] * b[1], a[0] * b[1] + a[1] * b[0]


_SQRT2_TABLE = ((1, 1), (1, 2))  # the basis table of Q(sqrt2), for `_sqrt` on a pair


def _sqrt2_square(a: tuple[int, int]) -> tuple[int, int]:
    return a[0] * a[0] + 2 * (a[1] * a[1]), 2 * (a[0] * a[1])


def _sqrt2_sign(z: tuple[int, int]) -> int:
    """Sign of a nonzero z0 + z1*sqrt2 at sqrt2 > 0: that of the nonzero
    halves when they agree, and otherwise z0's when z0^2 > 2*z1^2, else z1's."""
    a, b = z
    if a >= 0 <= b or a <= 0 >= b:
        return 1 if a + b > 0 else -1
    return (1 if a > 0 else -1) * (1 if a * a > 2 * (b * b) else -1)


def _relative_sign(x: tuple[int, int], y: tuple[int, int], norm: tuple[int, int]) -> int:
    """Sign of a nonzero x + y*sqrt(m), x and y pairs, at the distinguished
    embedding, from its relative norm x^2 - m*y^2: that of the nonzero halves
    when they agree, and otherwise x's times the norm's, as `_sign` decides it."""
    sx = _sqrt2_sign(x) if any(x) else 0
    sy = _sqrt2_sign(y) if any(y) else 0
    if sx * sy >= 0:
        return sx or sy
    return sx * _sqrt2_sign(norm)


def _sqrt2_div(z: tuple[int, int], g: tuple[int, int]) -> tuple[int, int]:
    """z/g in Z[sqrt2], for a g that divides z; when a wrong root makes g
    no divisor, the quotient is wrong and the root's check fails."""
    n = g[0] * g[0] - 2 * (g[1] * g[1])
    return (z[0] * g[0] - 2 * z[1] * g[1]) // n, (z[1] * g[0] - z[0] * g[1]) // n


def _sqrt2_gcd(z: tuple[int, int], n: int) -> tuple[int, int]:
    """A gcd of z and the integer n > 0 in Z[sqrt2], by Euclid's algorithm with
    nearest-integer quotients; Z[sqrt2] is norm-Euclidean, so it ends."""
    a0, a1, b0, b1 = n, 0, z[0] % n, z[1] % n
    while b0 or b1:
        nb = b0 * b0 - 2 * b1 * b1
        # a/b = a*conj(b)/nb, rounded coordinate by coordinate; a - q*b is the remainder
        q0 = (2 * (a0 * b0 - 2 * a1 * b1) + nb) // (2 * nb)
        q1 = (2 * (a1 * b0 - a0 * b1) + nb) // (2 * nb)
        a0, a1, b0, b1 = b0, b1, a0 - q0 * b0 - 2 * q1 * b1, a1 - q0 * b1 - q1 * b0
    return a0, a1


def _relative_half_root(v: list[int], D: int, e: int, m: int) -> tuple[list[int], tuple[int, int]]:
    """(B, g) with sqrt(x) = B/sqrt(g), B in x's tower F(sqrt m), F = Q(sqrt2),
    and g in Z[sqrt2], for x = v/D of relative norm 1 to F and e = 1, or -1
    when x = -1, so that x + e is not zero.

    Write x = (v0 + v1*sqrt m)/D with v0, v1 in Z[sqrt2] and T = v0 + e*D.
    Then (x + e)^2 = 2*x*T/D and T*(v0 - e*D) = m*v1^2, and the two factors
    share only divisors of 2D. So T = gamma*alpha^2, where gamma is G =
    gcd(T, 2*D*m) times a unit of {+-1, +-(1 + sqrt2)} that leaves T/gamma
    positive at both embeddings of F. At a prime pi of Z[sqrt2], G has the
    valuation of gcd(T, 2D), plus 1 when pi divides both m (odd and
    squarefree) and T/gcd(T, 2D); off 2D, where T's valuation has the parity
    of m's, that is T's valuation mod 2. alpha and beta = v1/alpha are exact
    and half the size of x, and
    sqrt(x) = (gamma*alpha + beta*sqrt m)/sqrt(2*gamma*D).
    """
    T = (v[0] + e * D, v[1])
    gamma = _sqrt2_gcd(T, 2 * D * m)
    z = _sqrt2_div(T, gamma)
    norm = z[0] * z[0] - 2 * (z[1] * z[1])
    if norm < 0:
        # z's signs at the two embeddings differ; 1 + sqrt2 has norm -1, so
        # z/(1 + sqrt2) = z*(sqrt2 - 1) has equal ones, and norm -norm
        gamma, z, norm = _sqrt2_mul(gamma, (1, 1)), (2 * z[1] - z[0], z[0] - z[1]), -norm
    if z[0] < 0:
        gamma, z = (-gamma[0], -gamma[1]), (-z[0], -z[1])
    alpha = _root_quadratic(z[0], z[1], 2, norm)
    if alpha is None or alpha[1] != 1:
        raise ArithmeticError("the relative half-root does not square back")
    alpha = (alpha[0][0], alpha[0][1])
    beta = _sqrt2_div((v[2], v[3]), alpha)
    return list(_sqrt2_mul(gamma, alpha) + beta), (2 * D * gamma[0], 2 * D * gamma[1])


def _norm_sign(x: TowerElement) -> int:
    """The relative norm of x = v/D in Q(sqrt2, sqrt m) to Q(sqrt2), known to be
    +-1, read off a residue: N(v) has rational part v0^2 + 2*v1^2 -
    m*(v2^2 + 2*v3^2) = +-D^2, and D^2 and -D^2 differ mod 2*D^2 + 1."""
    D2 = x.den * x.den
    M = 2 * D2 + 1
    v0, v1, v2, v3 = (c % M for c in x.num)
    return 1 if (v0 * v0 + 2 * v1 * v1 - x.tower.generators[1] * (v2 * v2 + 2 * v3 * v3)) % M == D2 else -1


def _kappa_r(g: list[int], p: int, q: int, s: int) -> int:
    """The one r in {1, qs, pq, ps} for which r*g in Z[sqrt2] can be a square: in a square
    every prime over q has even valuation, inert or split, so q | r exactly when q's
    valuation of g's content is odd, and so for s; if this r*g is no square, none is."""
    c, odd = gcd(*g), {q: 0, s: 0}
    for ell in odd:
        while c % ell == 0:
            c, odd[ell] = c // ell, 1 - odd[ell]
    return (1, p * s, p * q, q * s)[2 * odd[q] + odd[s]]


def _sqrt_mu_product(
    octic: OcticField, a: TowerElement, b: TowerElement, h: int, k: int, Q: int
) -> TowerElement | None:
    """Square root of mu*a*b, positive at the distinguished embedding, or
    None: a in K1 = Q(sqrt2, sqrt pq) and b in K2 = Q(sqrt2, sqrt ps), of
    relative norms to Q(sqrt2) known to be +-1 (not checked here; for Theta's
    factors f1^2 = eps_pq*eps_2pq, which `sqrt_unit_product` proves from the
    half units' identities, gives it), whose signs `_norm_sign` reads; mu =
    (h + k*sqrt(pq))^2/Q with h > 0, k >= 0, Q | 2pq and (h, k, Q) =
    (1, 0, 1) or eps_pq's half unit, which `QuadUnit` proved.

    Each factor x = v/D in Q(sqrt2, sqrt m), m = pq or ps, has a relative
    half-root over Z[sqrt2], sqrt(x) = B/sqrt(g), whose g = 2*D*gamma comes
    from one gcd with 2*D*m (`_relative_half_root`), so Q*a*b =
    (Q*B_a*B_b)^2/(Q*g), g = g_a*g_b; by Kummer theory it is a square exactly
    when r*Q*g is one in Q(sqrt2) for an r in {1, pq, ps, qs}, unique as r*r'
    is no square there, which `_kappa_r` reads off two parities. The root of
    mu*a*b is then (h + k*sqrt(pq))*B_a*B_b*sqrt(r)/kappa, kappa = sqrt(r*Q*g)
    a root of a small number, of the sign of B_a*B_b*kappa. A factor of
    relative norm -1 leaves no root: the norm of a*b down to K2 is -b^2.

    Everything runs on Z[sqrt2] pairs, with B = x + y*sqrt(m). The check
    proves the square with no octic product: D*(x^2 + m*y^2) and 2*D*x*y are
    g times v's halves (B^2*D = g*v, for each factor) and kappa^2 = r*Q*g,
    which give, with (h + k*sqrt(pq))^2 = Q*mu, the square
    Q*mu*(g*a*b)*r/(r*Q*g) = mu*a*b. A failure raises ArithmeticError. The
    root is then (A_x + A_y*sqrt pq)(B_x + B_y*sqrt ps)/N(kappa), four pair
    products, with A = B_a*(h + k*sqrt pq) and B = +-B_b*kd*(k0 - k1*sqrt2)
    for kappa = (k0 + k1*sqrt2)/kd; sqrt(r) joins one factor, or for r = qs
    = pq*ps/p^2 both, with p in the denominator.
    """
    if _norm_sign(a) < 0 or _norm_sign(b) < 0:
        return None
    p, q, s = octic.p, octic.q, octic.s
    pq, ps = p * q, p * s
    (va, da), (vb, db) = (a.num, a.den), (b.num, b.den)
    ea, eb = (-1 if v == (-1, 0, 0, 0) else 1 for v in (va, vb))  # so that x + e is not zero
    ba, ga = _relative_half_root(va, da, ea, pq)
    bb, gb = _relative_half_root(vb, db, eb, ps)
    halves, sign = [], 1
    for B, gx, v, D, m in ((ba, ga, va, da, pq), (bb, gb, vb, db, ps)):
        x, y = (B[0], B[1]), (B[2], B[3])
        xx, yy, xy = _sqrt2_square(x), _sqrt2_square(y), _sqrt2_mul(x, y)
        if (D * (xx[0] + m * yy[0]), D * (xx[1] + m * yy[1]), 2 * D * xy[0], 2 * D * xy[1]) != (
            *_sqrt2_mul(gx, v[:2]), *_sqrt2_mul(gx, v[2:])
        ):
            raise ArithmeticError("the closed-form root does not square back")
        halves.append((x, y))
        sign *= _relative_sign(x, y, (xx[0] - m * yy[0], xx[1] - m * yy[1]))
    (xa, ya), (xb, yb) = halves
    g = [Q * c for c in _sqrt2_mul(ga, gb)]
    r = _kappa_r(g, p, q, s)
    kappa = _sqrt([r * c for c in g], _SQRT2_TABLE)
    if kappa is None:
        return None
    (k0, k1), kd = kappa
    if _sqrt2_square((k0, k1)) != (kd * kd * r * g[0], kd * kd * r * g[1]):
        raise ArithmeticError("the closed-form root does not square back")
    # 1/kappa = kd*(k0 - k1*sqrt2)/(k0^2 - 2*k1^2); c carries kd and xi's sign
    sign *= _sqrt2_sign((k0, k1))
    c = (sign * kd * k0, -sign * kd * k1)
    ax = (h * xa[0] + pq * k * ya[0], h * xa[1] + pq * k * ya[1])
    ay = (k * xa[0] + h * ya[0], k * xa[1] + h * ya[1])
    bx, by = _sqrt2_mul(xb, c), _sqrt2_mul(yb, c)
    den = k0 * k0 - 2 * k1 * k1
    # sqrt(m)*(x + y*sqrt m) = m*y + x*sqrt(m), and sqrt(qs) = sqrt(pq)*sqrt(ps)/p
    if r in (pq, q * s):
        ax, ay = (pq * ay[0], pq * ay[1]), ax
    if r in (ps, q * s):
        bx, by = (ps * by[0], ps * by[1]), bx
    if r == q * s:
        den *= p
    # sqrt(pq)*sqrt(ps) = p*sqrt(qs)
    yy0, yy1 = _sqrt2_mul(ay, by)
    num = [*_sqrt2_mul(ax, bx), *_sqrt2_mul(ay, bx), *_sqrt2_mul(ax, by), p * yy0, p * yy1]
    return TowerElement(octic, num, den)


# -- Theta and the biquadratic unit index ---------------------------------


def _theta_parts(octic: OcticField) -> tuple[dict[int, QuadUnit], TowerElement, TowerElement]:
    """Theta's two factors, built once for the octic field's triple: (eps, f1,
    f2). eps holds the Pell units of pq, 2pq, ps and 2ps, each walked once,
    for a caller that needs one again; f1 and f2 are the positive square roots
    of eps_d * eps_2d in Q(sqrt2, sqrt d), d = pq, ps, a `_FactorField` each.
    Theta is not formed here: its residue at a place is theirs multiplied."""
    p, q, s = octic.p, octic.q, octic.s
    eps = {d: fundamental_pell(d) for d in (p * q, 2 * p * q, p * s, 2 * p * s)}
    factors = []
    for d in (p * q, p * s):
        root = sqrt_unit_product(_FactorField(2, d), (eps[d], eps[2 * d]))
        if root is None:
            raise NotASquareInBiquad(f"eps_{d} * eps_{2 * d} is not a square in Q(sqrt2, sqrt{d})")
        factors.append(root)
    return eps, *factors


def theta_factors(p: int, q: int, s: int) -> tuple[TowerElement, TowerElement]:
    """The two normalized biquadratic roots whose product is Theta, from the
    four Pell units that each call walks."""
    return _theta_parts(OcticField(p, q, s))[1:]


def theta(p: int, q: int, s: int) -> TowerElement:
    """The normalized product Theta = sqrt(eps_pq eps_2pq) * sqrt(eps_ps eps_2ps)
    as an exact octic element, positive at the distinguished embedding, from
    the four Pell units that each call walks."""
    _, f1, f2 = _theta_parts(octic := OcticField(p, q, s))
    return octic.lift(f1) * octic.lift(f2)


_INDEX_EXPONENTS = tuple(product((0, 1), repeat=3))[1:]  # every nonzero vector, ascending


def biquad_unit_index(a: int, b: int) -> tuple[int, tuple[int, int, int] | None]:
    """Index of the subgroup generated by quadratic-subfield units inside the
    unit group of Q(sqrt a, sqrt b): either 1, or 2 with the exponent vector
    (e1, e2, e3) such that eps_a^e1 * eps_b^e2 * eps_ab^e3 is a square."""
    field = BiquadField(a, b)
    units = [field.from_quad_unit(fundamental_pell(d)) for d in field.radicands[1:]]
    for exps in _INDEX_EXPONENTS:
        candidate = prod((u for u, e in zip(units, exps) if e), start=field.one())
        if sqrt_exact(candidate) is not None:
            return 2, exps
    return 1, None
