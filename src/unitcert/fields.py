"""Exact arithmetic in real multiquadratic towers.

Covers the biquadratic fields Q(sqrt a, sqrt b) and the octic field
Q(sqrt2, sqrt pq, sqrt ps): basis multiplication, real embeddings at arbitrary
precision, exact square roots by relative-norm descent through the tower of
index-2 subfields, closed-form roots of products of Pell units of norm +1
(sqrt(2*eps) = sqrt(x + 1) + sqrt(x - 1)), the normalized generator product
Theta from two such roots, and the biquadratic unit-index square test. The
descent is the general root; a root of a unit product never needs it.

Elements keep `Fraction` coordinates, but products and square roots run on
integer coordinate lists: each operand's denominators are cleared once (an
lcm), the integer kernel `_mul` multiplies through the basis table, and each
output `Fraction` is built once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm

from . import _interval as iv
from .arith import is_prime
from .errors import NotASquareInBiquad, PrecisionExhausted
from .pell import QuadUnit, fundamental_pell, is_squarefree

DEFAULT_PRECISION_BITS = 256
MAX_PRECISION_BITS = 16384


class Tower:
    """The field Q(sqrt g_1, ..., sqrt g_k) for multiplicatively independent
    squarefree generators, with basis the squarefree parts of subset products
    in subset-binary order."""

    def __init__(self, generators: tuple[int, ...]):
        gens = tuple(int(g) for g in generators)
        for g in gens:
            if g <= 1 or not is_squarefree(g):
                raise ValueError(f"generator {g} must be a squarefree integer > 1")
        # r * g / gcd(r, g)^2 is the squarefree part of r * g for squarefree r, g
        radicands = [1]
        for g in gens:
            radicands += [r * g // gcd(r, g) ** 2 for r in radicands]
        if len(set(radicands)) != len(radicands):
            raise ValueError(f"generators {gens} are not independent modulo squares")
        self.generators = gens
        self.radicands = tuple(radicands)
        self.degree = 1 << len(gens)
        self._index = {m: i for i, m in enumerate(radicands)}
        # sqrt(m_i) * sqrt(m_j) = sqrt(m_i * m_j / m_(i xor j)) * sqrt(m_(i xor j))
        self._table = tuple(
            tuple((isqrt(mi * mj // radicands[i ^ j]), i ^ j) for j, mj in enumerate(radicands))
            for i, mi in enumerate(radicands)
        )
        self.tokens = tuple("1" if m == 1 else f"r{m}" for m in radicands)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tower) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        inside = ", ".join(f"sqrt{g}" for g in self.generators)
        return f"Q({inside})"

    # -- elements ---------------------------------------------------------

    def element(self, coords) -> TowerElement:
        cs = tuple(Fraction(c) for c in coords)
        if len(cs) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(cs)}")
        return TowerElement(self, cs)

    def zero(self) -> TowerElement:
        return self.element([0] * self.degree)

    def one(self) -> TowerElement:
        return self.from_rational(1)

    def from_rational(self, c) -> TowerElement:
        coords = [Fraction(c)] + [Fraction(0)] * (self.degree - 1)
        return self.element(coords)

    def from_quad_unit(self, u: QuadUnit) -> TowerElement:
        if u.d not in self._index:
            raise ValueError(f"sqrt({u.d}) does not lie in {self!r}")
        coords = [Fraction(0)] * self.degree
        coords[0] = Fraction(u.x)
        coords[self._index[u.d]] = Fraction(u.y)
        return TowerElement(self, tuple(coords))

    def lift(self, x: TowerElement) -> TowerElement:
        """Embed an element of a subtower whose radicands all occur here."""
        coords = [Fraction(0)] * self.degree
        for m, c in zip(x.tower.radicands, x.coords):
            if m not in self._index:
                raise ValueError(f"sqrt({m}) does not lie in {self!r}")
            coords[self._index[m]] = c
        return TowerElement(self, tuple(coords))

    # -- embeddings -------------------------------------------------------

    def embeddings(self) -> list[tuple[int, ...]]:
        """All real embeddings as sign tuples over the generators; the
        distinguished all-positive embedding comes first."""
        return list(product((1, -1), repeat=len(self.generators)))

    def iota0(self) -> tuple[int, ...]:
        return (1,) * len(self.generators)

    def basis_sign(self, i: int, signs: tuple[int, ...]) -> int:
        """Sign picked up by the i-th basis radical under an embedding."""
        sg = 1
        for j, s in enumerate(signs):
            if i >> j & 1 and s < 0:
                sg = -sg
        return sg


class TowerElement:
    """Element of a Tower with exact rational coordinates."""

    __slots__ = ("tower", "coords")

    def __init__(self, tower: Tower, coords: tuple[Fraction, ...]):
        self.tower = tower
        self.coords = coords

    def __repr__(self) -> str:
        return f"<{self.to_text()} in {self.tower!r}>"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TowerElement)
            and self.tower == other.tower
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.tower, self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _coerce(self, other) -> TowerElement | None:
        if isinstance(other, TowerElement):
            if other.tower != self.tower:
                raise ValueError("elements live in different towers")
            return other
        if isinstance(other, (int, Fraction)):
            return self.tower.from_rational(other)
        return None

    def __add__(self, other) -> TowerElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TowerElement(self.tower, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __sub__(self, other) -> TowerElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TowerElement(self.tower, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __neg__(self) -> TowerElement:
        return TowerElement(self.tower, tuple(-c for c in self.coords))

    def __mul__(self, other) -> TowerElement:
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return TowerElement(self.tower, tuple(c * f for c in self.coords))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, da = _integral(self.coords)
        b, db = (a, da) if o is self else _integral(o.coords)
        den = da * db
        prod = _mul(a, b, self.tower._table)
        return TowerElement(self.tower, tuple(Fraction(c, den) for c in prod))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> TowerElement:
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = self.tower.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def to_text(self) -> str:
        """Canonical textual form "c0 + c1*r2 + ..." with exact rationals."""
        parts = []
        for c, tok in zip(self.coords, self.tower.tokens):
            rat = str(c)
            parts.append(rat if tok == "1" else f"{rat}*{tok}")
        return " + ".join(parts)


class BiquadField(Tower):
    """Real biquadratic field Q(sqrt a, sqrt b) with a, b, ab squarefree."""

    def __init__(self, a: int, b: int):
        if gcd(a, b) != 1:
            raise ValueError(f"need ab squarefree, got gcd({a},{b}) > 1")
        super().__init__((a, b))
        self.a, self.b = a, b


def _check_triple(p: int, q: int, s: int) -> None:
    if len({p, q, s}) != 3 or any(n == 2 or not is_prime(n) for n in (p, q, s)):
        raise ValueError(f"({p}, {q}, {s}) must be distinct odd primes")


class OcticField(Tower):
    """The degree-8 field Q(sqrt2, sqrt pq, sqrt ps) for distinct odd primes."""

    def __init__(self, p: int, q: int, s: int):
        _check_triple(p, q, s)
        super().__init__((2, p * q, p * s))
        self.p, self.q, self.s = p, q, s
        self.tokens = ("1", "r2", "rpq", "r2pq", "rps", "r2ps", "rqs", "r2qs")


# -- real embeddings ------------------------------------------------------


def embed_real(
    x: TowerElement,
    signs: tuple[int, ...] | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> Fraction:
    """Evaluate an element under a real embedding to the requested precision.

    The embedding is a choice of sign for each generating radical; omitting it
    selects the distinguished all-positive embedding. The returned rational is
    the midpoint of a rigorous enclosure whose relative width is below
    2^(8 - precision_bits); the working precision is raised internally when
    cancellation (tiny conjugates of units) makes that necessary.
    """
    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")
    tower = x.tower
    if signs is None:
        signs = tower.iota0()
    if len(signs) != len(tower.generators) or any(s not in (1, -1) for s in signs):
        raise ValueError(f"embedding must be a sign tuple of length {len(tower.generators)}")
    if x.is_zero():
        return Fraction(0)
    signs = tuple(signs)
    bits = precision_bits
    while True:
        enc = (0, 0)
        for i, c in enumerate(x.coords):
            if c:
                rad = iv.iv_sqrt_int(tower.radicands[i], bits)
                enc = iv.iv_add(enc, iv.iv_scale(rad, c * tower.basis_sign(i, signs)))
        lo, hi = iv.iv_endpoints(enc, bits)
        mid = iv.iv_mid(enc, bits)
        # nonzero element, injective embedding: the loop must terminate
        if (lo > 0 or hi < 0) and hi - lo <= abs(mid) * Fraction(1, 1 << (precision_bits - 8)):
            return mid
        bits *= 2
        if bits > max(MAX_PRECISION_BITS, 8 * precision_bits):
            raise PrecisionExhausted("embedding enclosure did not converge")


# -- integer kernel and exact square roots --------------------------------
#
# The helpers below work on integer coordinate lists: an element with
# rational coordinates is carried as an integer list v and a positive
# denominator D, standing for v/D. The first half of a tower's basis spans the
# subtower over all generators but the last, and the basis table maps that
# half into itself; so a list of length 2^l is an element of the subtower over
# the first l generators, multiplied with the full table. Write it as x + w,
# x the lower half and w the upper half, both in the tower's own basis, and
# let b be the l-th generator, so that w = y*sqrt(b) for some y in the lower
# half. The conjugate over the next subtower down flips the sign of w;
# through the table, w^2 lands in the lower half and a lower-half element
# times w in the upper half; the relative norm is x^2 - w^2. Every step below
# recurses on halves.


def _integral(coords) -> tuple[list[int], int]:
    """(v, D) with coords = v/D, D the lcm of the denominators."""
    den = lcm(*(c.denominator for c in coords))
    return [c.numerator * (den // c.denominator) for c in coords], den


def _mul(a: list[int], b: list[int], table) -> list[int]:
    """Product of two integer coordinate lists of one length through the basis
    table, skipping zero coordinates; the same list twice is squared over the
    pairs i <= j, with the cross terms doubled."""
    out = [0] * len(a)
    if a is b:
        nz = [(i, c) for i, c in enumerate(a) if c]
        for n, (i, ai) in enumerate(nz):
            row = table[i]
            g, k = row[i]
            out[k] += g * ai * ai
            ai2 = 2 * ai
            for j, aj in nz[n + 1:]:
                g, k = row[j]
                out[k] += g * ai2 * aj
        return out
    nzb = [(j, c) for j, c in enumerate(b) if c]
    for i, ai in enumerate(a):
        if ai:
            row = table[i]
            for j, bj in nzb:
                g, k = row[j]
                out[k] += g * ai * bj
    return out


def _reduced(v: list[int], den: int) -> tuple[list[int], int]:
    """v/den with the common content removed and the denominator positive.
    Each coordinate is divided once by the content g found so far; a remainder
    r shrinks g to gcd(g, r) and scales the quotients already taken."""
    g, out = abs(den), []
    for c in v:
        q, r = divmod(c, g)
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
    half = len(z) // 2
    x, w = z[:half], z[half:]
    if not any(w):
        root = _sqrt(x, table)
        if root is not None:
            return root[0] + [0] * half, root[1]
        b = table[half][half][0]
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
    v, den = _integral(alpha.coords)
    # sqrt(v/den) = sqrt(v*den)/den
    root = _sqrt([c * den for c in v], tower._table)
    if root is None:
        return None
    rv, rd = root
    if _sign(rv, tower._table) < 0:
        rv = [-c for c in rv]
    root = TowerElement(tower, tuple(Fraction(c, rd * den) for c in rv))
    if root * root != alpha:
        raise ArithmeticError("the descent root does not square back")
    return root


def sqrt_preferring_subfield(alpha: TowerElement) -> TowerElement | None:
    """The root of `sqrt_exact` under a name of its own, which `bench/tracer.py`
    times as the FSU-root layer. The FSU roots of `residual` now come from
    `sqrt_unit_product` and do not call it."""
    return sqrt_exact(alpha)


def sqrt_biquad(alpha: TowerElement) -> TowerElement | None:
    """Square root in a biquadratic field, normalized positive at the
    distinguished embedding; None when there is no root."""
    if alpha.tower.degree != 4:
        raise ValueError("sqrt_biquad expects an element of a biquadratic field")
    return sqrt_exact(alpha)


def sqrt_octic(alpha: TowerElement) -> TowerElement | None:
    """Square root in the octic field, normalized positive at the distinguished
    embedding; None when there is no root."""
    if alpha.tower.degree != 8:
        raise ValueError("sqrt_octic expects an element of the octic field")
    return sqrt_exact(alpha)


# -- closed-form roots of Pell-unit products -------------------------------


def _half_root(u: QuadUnit) -> tuple[tuple[int, int], tuple[int, int]]:
    """((a, m), (b, n)) with sqrt(2*eps) = a*sqrt(m) + b*sqrt(n), a, b > 0 and
    m, n squarefree, for a unit eps = x + y*sqrt(d) of norm +1.

    The square of sqrt(x + 1) + sqrt(x - 1) is 2x + 2y*sqrt(d), so x + 1 = m*a^2
    and x - 1 = n*b^2, with (x + 1)(x - 1) = d*y^2 (Azizi 1999). The two
    factors share at most a factor 2, so an odd prime divides m exactly when it
    divides both x + 1 and d: m is g or 2g, g the odd part of gcd(x + 1, 2d).
    Then n = m*d/h^2 is the squarefree part of m*d, h = gcd(m, d), and
    m*a*b/h = y gives b.
    """
    x, y, d = u.x, u.y, u.d
    g = gcd(x + 1, 2 * d)
    g >>= (g & -g).bit_length() - 1
    for m in (g, 2 * g):
        a2, r = divmod(x + 1, m)
        a = isqrt(a2)
        if not r and a * a == a2:
            h = gcd(m, d)
            return (a, m), (y * h // (m * a), m * d // (h * h))
    raise ArithmeticError(f"no closed-form root of the Pell unit of Z[sqrt({d})]")


def _times_radicals(terms: dict[int, int], factor) -> dict[int, int]:
    """The product of sum(c*sqrt(r)) over `terms` (radicand -> c) with
    sum(c*sqrt(m)) over `factor` ((c, m) pairs), squarefree radicands
    throughout: sqrt(r)*sqrt(m) = g*sqrt(r*m/g^2) with g = gcd(r, m)."""
    out: dict[int, int] = {}
    for r, e in terms.items():
        for c, m in factor:
            g = gcd(r, m)
            k = r // g * (m // g)
            out[k] = out.get(k, 0) + e * c * g
    return out


def sqrt_unit_product(tower: Tower, units) -> TowerElement | None:
    """Square root in `tower` of the product of one Pell unit, or of two with
    different d, positive at the distinguished embedding; None when the
    product is not a square there.

    sqrt(eps) = (a*sqrt(2m) + b*sqrt(2n))/2 by `_half_root`, so the root is a
    product of binomials in square roots of integers, each monomial moved onto
    the basis through the squarefree part of its radicand. Every coefficient
    is positive, so the root is positive at the distinguished embedding, and a
    monomial whose radicand is not in the tower puts the root outside it. A
    unit of norm -1 is negative at an embedding that flips its sqrt(d) and
    keeps the other unit's, so then the product is no square. The root is
    checked by exact squaring.
    """
    product = tower.from_quad_unit(units[0])
    for u in units[1:]:
        product = product * tower.from_quad_unit(u)
    if any(u.norm != 1 for u in units):
        return None
    terms = {1: 1}
    for u in units:
        terms = _times_radicals(_times_radicals(terms, _half_root(u)), ((1, 2),))
    coords = [Fraction(0)] * tower.degree
    den = 2 ** len(units)
    for r, c in terms.items():
        if r not in tower._index:
            return None
        coords[tower._index[r]] = Fraction(c, den)
    root = TowerElement(tower, tuple(coords))
    if root * root != product:
        raise ArithmeticError("the closed-form root does not square back")
    return root


# -- Theta and the biquadratic unit index ---------------------------------


def _unit_product_root(d: int, cache: dict[int, QuadUnit] | None) -> TowerElement:
    """The positive square root of eps_d * eps_2d inside Q(sqrt2, sqrt d)."""
    field = BiquadField(2, d)
    root = sqrt_unit_product(field, (fundamental_pell(d, cache), fundamental_pell(2 * d, cache)))
    if root is None:
        raise NotASquareInBiquad(
            f"eps_{d} * eps_{2 * d} is not a square in Q(sqrt2, sqrt{d})"
        )
    return root


def theta_factors(
    p: int,
    q: int,
    s: int,
    cache: dict[int, QuadUnit] | None = None,
) -> tuple[TowerElement, TowerElement]:
    """The two normalized biquadratic roots whose product is Theta."""
    return (
        _unit_product_root(p * q, cache),
        _unit_product_root(p * s, cache),
    )


def theta(
    p: int,
    q: int,
    s: int,
    cache: dict[int, QuadUnit] | None = None,
    octic: OcticField | None = None,
) -> TowerElement:
    """The normalized product Theta = sqrt(eps_pq eps_2pq) * sqrt(eps_ps eps_2ps)
    as an exact octic element, positive at the distinguished embedding. A
    caller that has built the octic field of (p, q, s), and so validated the
    triple, passes it in."""
    f1, f2 = theta_factors(p, q, s, cache)
    if octic is None:
        octic = OcticField(p, q, s)
    return octic.lift(f1) * octic.lift(f2)


_INDEX_EXPONENTS = (
    (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
)


def biquad_unit_index(
    a: int,
    b: int,
    cache: dict[int, QuadUnit] | None = None,
) -> tuple[int, tuple[int, int, int] | None]:
    """Index of the subgroup generated by quadratic-subfield units inside the
    unit group of Q(sqrt a, sqrt b): either 1, or 2 with the exponent vector
    (e1, e2, e3) such that eps_a^e1 * eps_b^e2 * eps_ab^e3 is a square."""
    field = BiquadField(a, b)
    units = [field.from_quad_unit(fundamental_pell(d, cache)) for d in field.radicands[1:]]
    for exps in _INDEX_EXPONENTS:
        candidate = field.one()
        for u, e in zip(units, exps):
            if e:
                candidate = candidate * u
        if sqrt_biquad(candidate) is not None:
            return 2, exps
    return 1, None
