import collections
import random
from fractions import Fraction
from math import gcd

import oracles
import pytest

from unitcert import (
    BiquadField,
    HypothesisViolation,
    OcticField,
    Tower,
    biquad_unit_index,
    classical_datum,
    delta,
    fundamental_pell,
    sqrt_exact,
    sqrt_octic,
    theta,
    theta_factors,
)
from unitcert import fields
from unitcert.errors import NotASquareInBiquad


def _random_element(field, rng, den=(1, 2)):
    return field.element(
        [Fraction(rng.randrange(-9, 10), rng.choice(den)) for _ in range(field.degree)]
    )


def test_basis_products():
    O = OcticField(7, 19, 3)
    r2 = O.element([0, 1, 0, 0, 0, 0, 0, 0])
    rpq = O.element([0, 0, 1, 0, 0, 0, 0, 0])
    rps = O.element([0, 0, 0, 0, 1, 0, 0, 0])
    r2pq = O.element([0, 0, 0, 1, 0, 0, 0, 0])
    rqs = O.element([0, 0, 0, 0, 0, 0, 1, 0])
    assert r2 * rpq == r2pq
    assert rpq * rps == 7 * rqs  # sqrt(pq) * sqrt(ps) = p * sqrt(qs)
    assert r2 * r2 == O.from_rational(2)


def test_square_of_printed_root_is_unit_product():
    O = OcticField(7, 19, 3)
    root = O.element([14, 9, 0, 0, 3, 2, 0, 0])
    e21 = O.from_quad_unit(fundamental_pell(21))
    e42 = O.from_quad_unit(fundamental_pell(42))
    assert root * root == e21 * e42
    # the expanded product 715 + 504 r2 + 156 rps + 110 r2ps
    assert (e21 * e42).coords == tuple(
        Fraction(c) for c in (715, 504, 0, 0, 156, 110, 0, 0)
    )


def test_ring_axioms_on_random_elements():
    rng = random.Random(5)
    O = OcticField(7, 19, 3)
    for _ in range(25):
        a, b, c = (_random_element(O, rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    B = BiquadField(2, 21)
    for _ in range(25):
        a, b, c = (_random_element(B, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_mismatched_fields_rejected():
    a = OcticField(7, 19, 3).one()
    b = OcticField(7, 11, 43).one()
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b


def test_tower_validation():
    with pytest.raises(ValueError):
        Tower((2, 3, 6))  # dependent modulo squares
    with pytest.raises(ValueError):
        Tower((4, 3))  # not squarefree
    with pytest.raises(ValueError):
        Tower((3, 30011 ** 2))  # a square with no prime factor below its cube root
    with pytest.raises(ValueError):
        OcticField(2, 3, 5)
    with pytest.raises(ValueError):
        OcticField(7, 7, 3)
    with pytest.raises(ValueError):
        BiquadField(2, 6)  # ab not squarefree


PRINTED_ROOTS = {
    133: (21070, 14877, 1827, 1290),
    21: (14, 9, 3, 2),
    77: (1365, 968, 156, 110),
    301: (31764789, 22493816, 1830892, 1296522),
    413: (79375590, 56126523, 3905783, 2761830),
}


@pytest.mark.parametrize("d", sorted(PRINTED_ROOTS))
def test_sqrt_biquad_printed_roots(d):
    B = BiquadField(2, d)
    prod = B.from_quad_unit(fundamental_pell(d)) * B.from_quad_unit(fundamental_pell(2 * d))
    root = sqrt_exact(prod)
    assert root is not None
    assert tuple(int(c) for c in root.coords) == PRINTED_ROOTS[d]
    assert root * root == prod


def test_sqrt_trivial_cases():
    B = BiquadField(2, 21)
    assert sqrt_exact(B.from_rational(4)) == B.from_rational(2)
    assert sqrt_exact(B.from_rational(-1)) is None
    with pytest.raises(ValueError):
        sqrt_exact(B.zero())
    with pytest.raises(ValueError):
        sqrt_octic(B.one())


def test_sqrt_roundtrip_biquad():
    rng = random.Random(17)
    B = BiquadField(2, 21)
    done = 0
    while done < 20:
        g = _random_element(B, rng)
        if g.is_zero():
            continue
        sq = g * g
        root = sqrt_exact(sq)
        assert root is not None and root * root == sq
        assert root in (g, -g)
        assert oracles.real_sign(root) == 1
        done += 1


def test_sqrt_roundtrip_octic():
    rng = random.Random(19)
    O = OcticField(7, 19, 3)
    for _ in range(5):
        g = _random_element(O, rng)
        sq = g * g
        root = sqrt_octic(sq)
        assert root is not None and root * root == sq
        assert root in (g, -g)
        assert oracles.real_sign(root) == 1


def test_theta_factors_and_square_identity():
    for (p, q, s) in [(7, 19, 3), (7, 11, 43), (7, 3, 59)]:
        f_pq, f_ps = theta_factors(p, q, s)
        assert tuple(int(c) for c in f_pq.coords) == PRINTED_ROOTS[p * q]
        assert tuple(int(c) for c in f_ps.coords) == PRINTED_ROOTS[p * s]
        th = theta(p, q, s)
        O = th.tower
        prod = O.one()
        for d in (p * q, 2 * p * q, p * s, 2 * p * s):
            prod = prod * O.from_quad_unit(fundamental_pell(d))
        assert th * th == prod
        assert oracles.real_sign(th) == 1
        assert sqrt_octic(-th) is None


def test_sqrt_octic_dichotomy_first_triple():
    th = theta(7, 19, 3)
    O = th.tower
    e133 = O.from_quad_unit(fundamental_pell(133))
    xi = sqrt_octic(th)
    assert xi is not None and xi * xi == th
    assert sqrt_octic(e133 * th) is None


@pytest.mark.parametrize("a, b, exps", [
    (2, 21, (0, 1, 1)), (2, 77, (0, 1, 1)), (2, 133, (0, 1, 1)),
    (10, 21, None),
], ids=["21", "77", "133", "10-21"])
def test_biquad_unit_index(a, b, exps):
    # index 2 where eps_b * eps_2b is the square; Q(sqrt10, sqrt21) has
    # index 1, and no product of its three subfield units is a square
    assert biquad_unit_index(a, b) == (2 if exps else 1, exps)
    # uniqueness: no other nontrivial exponent vector yields a square, and a
    # local nonresidue proves each of the others is none
    field = BiquadField(a, b)
    units = [field.from_quad_unit(fundamental_pell(d)) for d in field.radicands[1:]]
    hits = []
    for mask in range(1, 8):
        cand = field.one()
        for j in range(3):
            if mask >> j & 1:
                cand = cand * units[j]
        if sqrt_exact(cand) is not None:
            hits.append(tuple(mask >> j & 1 for j in range(3)))
        else:
            assert oracles.nonsquare_witness(field.generators, cand.coords) is not None
    assert hits == ([exps] if exps else [])


def test_unit_product_root_failure_raises():
    # eps_65 and eps_130 have norm -1, so their product is negative at some
    # embedding and cannot be a square; the first factor must refuse
    with pytest.raises(NotASquareInBiquad):
        theta_factors(5, 13, 3)


@pytest.mark.parametrize("triple", [(1, 7, 3), (7, 9, 3)])
def test_theta_factors_validates_the_triple_as_theta_does(triple):
    for build in (theta, theta_factors):
        with pytest.raises(ValueError) as refused:
            build(*triple)
        assert str(refused.value) == f"{triple} must be distinct odd primes"


def test_unit_product_root_can_exist_off_pattern():
    # off-pattern triples may still have square factors, here with
    # half-integer coordinates
    f1, _ = theta_factors(3, 5, 7)
    assert f1.to_text() == "3 + 5/2*r2 + 1*r15 + 1/2*r30"
    B = BiquadField(2, 15)
    prod = B.from_quad_unit(fundamental_pell(15)) * B.from_quad_unit(fundamental_pell(30))
    assert f1 * f1 == prod


def test_to_text_canonical_form():
    O = OcticField(7, 19, 3)
    xi = sqrt_octic(theta(7, 19, 3))
    text = xi.to_text()
    assert text.startswith("519/2 + 369/2*r2 + 45/2*rpq + 16*r2pq")
    B = BiquadField(2, 21)
    assert B.element([14, 9, 3, 2]).to_text() == "14 + 9*r2 + 3*r21 + 2*r42"


def test_lift_between_towers():
    B = BiquadField(2, 133)
    O = OcticField(7, 19, 3)
    x = B.element([1, 2, 3, 4])
    lifted = O.lift(x)
    assert lifted.coords[:4] == x.coords and all(c == 0 for c in lifted.coords[4:])
    with pytest.raises(ValueError):
        O.lift(BiquadField(2, 5).one())


def test_sqrt_exact_on_plain_quadratic_grid():
    B = BiquadField(2, 21)
    target = B.element([Fraction(9, 16), 0, 0, 0])
    root = sqrt_exact(target)
    assert root == B.element([Fraction(3, 4), 0, 0, 0])


@pytest.mark.parametrize(
    "field, square, root",
    [
        (BiquadField(2, 21), [Fraction(1, 25), 0, 0, 0], [Fraction(1, 5), 0, 0, 0]),
        (OcticField(7, 19, 3), [Fraction(1, 49)] + [0] * 7, [Fraction(1, 7)] + [0] * 7),
        (BiquadField(2, 21), [Fraction(2, 25), 0, 0, 0], [0, Fraction(1, 5), 0, 0]),
        (OcticField(7, 19, 3), [Fraction(21, 49)] + [0] * 7, [0] * 4 + [Fraction(1, 7)] + [0] * 3),
    ],
)
def test_sqrt_exact_roots_with_denominators_5_and_7(field, square, root):
    assert sqrt_exact(field.element(square)) == field.element(root)


TOWERS = [Tower((5,)), BiquadField(2, 21), OcticField(7, 19, 3)]


@pytest.mark.parametrize("tower", TOWERS, ids=lambda t: f"deg{t.degree}")
def test_sqrt_exact_by_property(tower):
    rng = random.Random(23 + tower.degree)
    for _ in range(30):
        g = _random_element(tower, rng, den=(1, 2, 3, 5, 7, 9))
        if rng.random() < 0.3:  # some coordinates zero, so y = 0 branches run
            g = tower.element([c if rng.random() < 0.5 else 0 for c in g.coords])
        if g.is_zero():
            continue
        root = sqrt_exact(g * g)
        assert root in (g, -g)
        assert oracles.real_sign(root) == 1
        assert sqrt_exact(-(g * g)) is None


def _sparse_element(tower, rng):
    """Coordinates in [-9, 9] over denominators 1..9, about a third zeroed."""
    return tower.element([
        Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)) if rng.random() < 0.65 else 0
        for _ in range(tower.degree)
    ])


@pytest.mark.parametrize("tower", TOWERS, ids=lambda t: f"deg{t.degree}")
def test_integer_kernel_matches_fraction_products(tower):
    rng = random.Random(31 + tower.degree)
    _, table = oracles.tower_by_trial_division(tower.generators)
    for _ in range(40):
        a, b = _sparse_element(tower, rng), _sparse_element(tower, rng)
        assert (a * b).coords == tuple(oracles.fraction_mul(a.coords, b.coords, table))
        square = tuple(oracles.fraction_mul(a.coords, a.coords, table))
        assert (a * a).coords == square  # the squaring path
        assert (a * tower.element(a.coords)).coords == square  # the general path
        v, den = a.num, a.den
        scaled = [c * den * den for c in square]
        assert fields._mul(v, v, tower._table) == scaled
        assert fields._mul(v, list(v), tower._table) == scaled


@pytest.mark.parametrize("tower", TOWERS, ids=lambda t: f"deg{t.degree}")
def test_sqrt_exact_matches_fraction_descent(tower):
    rng = random.Random(37 + tower.degree)
    radicands, table = oracles.tower_by_trial_division(tower.generators)
    squares = 0
    for _ in range(30):
        g = _sparse_element(tower, rng)
        if g.is_zero():
            continue
        for alpha in (g, g * g, -(g * g), g * g * 3):
            root = sqrt_exact(alpha)
            expected = oracles.fraction_descent_sqrt(radicands, table, alpha.coords)
            assert (None if root is None else root.coords) == expected
            squares += root is not None
    assert squares >= 20


def test_sqrt_exact_matches_fraction_descent_on_the_1e4_rung():
    p, q, s = 10007, 10067, 10091
    th = theta(p, q, s)
    octic = th.tower
    e_pq = octic.from_quad_unit(fundamental_pell(p * q))
    radicands, table = oracles.tower_by_trial_division(octic.generators)
    roots = []
    for alpha in (th, e_pq * th):
        root = sqrt_exact(alpha)
        expected = oracles.fraction_descent_sqrt(radicands, table, alpha.coords)
        assert (None if root is None else root.coords) == expected
        roots.append(root)
    assert [r is None for r in roots].count(True) == 1


def test_sqrt_exact_sign_of_tiny_values():
    # x - y*sqrt(d) for a Pell unit is about 1/(2x): the sign at the
    # distinguished embedding comes out of cancellation at every level
    unit = fundamental_pell(1031 * 1019)
    d2 = Tower((unit.d,))
    small = d2.element([unit.x, -unit.y])
    assert sqrt_exact(small * small) == small
    O = OcticField(1031, 1019, 1171)
    conj = O.element([unit.x, 0, -unit.y, 0, 0, 0, 0, 0])
    for h in (O.element([0, 1, 0, 0, 0, 0, 0, 0]), O.element([-1, 1, 0, 0, 0, 0, 0, 0]),
              O.element([Fraction(1, 5), 0, 0, 0, 0, 0, 0, -Fraction(1, 7)])):
        g = conj * h
        root = sqrt_exact(g * g)
        assert root in (g, -g)
        assert oracles.real_sign(root) == 1
        assert (root == g) == (oracles.real_sign(g) == 1)


def test_tower_table_matches_trial_division():
    rng = random.Random(29)
    pool = oracles.squarefree_numbers(500)
    checked = 0
    while checked < 20:
        gens = tuple(rng.sample(pool, rng.randrange(1, 4)))
        radicands, table = oracles.tower_by_trial_division(gens)
        if len(set(radicands)) != len(radicands):
            with pytest.raises(ValueError):
                Tower(gens)
            continue
        tower = Tower(gens)
        assert tower.radicands == radicands
        # the kernel keeps the gcd and takes the product's index to be i xor j
        assert tower._table == tuple(tuple(g for g, _ in row) for row in table)
        assert all(k == i ^ j for i, row in enumerate(table) for j, (_, k) in enumerate(row))
        checked += 1


def _in_pattern_triples(limit):
    out = []
    for p in range(7, limit, 8):
        for q in range(3, limit, 8):
            for s in range(q + 8, limit, 8):
                if p in (q, s) or not all(map(oracles.trial_division_is_prime, (p, q, s))):
                    continue
                try:
                    classical_datum(p, q, s).branch()
                except HypothesisViolation:
                    continue
                out.append((p, q, s))
    return out


def test_oracle_nonsquare_answers_have_local_witnesses():
    # exactly one of Theta and eps_pq*Theta is a square; the other must reduce
    # to a non-residue at some place, found by a scan sharing no library code
    triples = _in_pattern_triples(130)
    assert len(triples) == 53
    for triple in triples:
        th = theta(*triple)
        octic = th.tower
        e_pq = octic.from_quad_unit(fundamental_pell(triple[0] * triple[1]))
        roots = [sqrt_exact(c) for c in (th, e_pq * th)]
        assert [r is None for r in roots].count(True) == 1
        non_square = th if roots[0] is None else e_pq * th
        assert oracles.nonsquare_witness(octic.generators, non_square.coords) is not None


# -- closed-form roots of Pell-unit products --------------------------------

def _unit_products(p, q, s):
    """(tower, units) for Theta's two factors and the four FSU roots."""
    e = {d: fundamental_pell(d) for d in (p * q, 2 * p * q, p * s, 2 * p * s, q * s, 2 * q * s)}
    octic = OcticField(p, q, s)
    return [
        (BiquadField(2, p * q), (e[p * q], e[2 * p * q])),
        (BiquadField(2, p * s), (e[p * s], e[2 * p * s])),
        (octic, (e[p * q], e[p * s])),
        (octic, (e[p * q], e[q * s])),
        (octic, (e[2 * q * s],)),
        (octic, (e[p * q], e[2 * p * q])),
    ]


def _unit_product(tower, units):
    product = tower.one()
    for u in units:
        product = product * tower.from_quad_unit(u)
    return product


def _descent_root(tower, units):
    return sqrt_exact(_unit_product(tower, units))


@pytest.mark.parametrize("triples", [oracles.in_pattern_triples(400)[::9], oracles.LADDER_TRIPLES],
                         ids=["every-9th-corpus-triple", "ladder-rungs"])
def test_closed_form_roots_match_the_descent(triples):
    # the library proves these roots from the half-unit identities and never
    # squares them; the square is taken here, for every product
    for triple in triples:
        for tower, units in _unit_products(*triple):
            root = fields.sqrt_unit_product(tower, units)
            assert root is not None
            assert root * root == _unit_product(tower, units)
            assert root == _descent_root(tower, units)


def test_closed_form_roots_form_no_tower_product(monkeypatch):
    # at the 10^4 rung the roots are proved binomial by binomial: no product
    # of tower elements, and no product of coordinate lists, is formed
    products = _unit_products(*oracles.LADDER_TRIPLES[2])
    calls = {"_mul": 0, "__mul__": 0}
    mul, tower_mul = fields._mul, fields.TowerElement.__mul__

    def counting_mul(*args):
        calls["_mul"] += 1
        return mul(*args)

    def counting_tower_mul(*args):
        calls["__mul__"] += 1
        return tower_mul(*args)

    monkeypatch.setattr(fields, "_mul", counting_mul)
    monkeypatch.setattr(fields.TowerElement, "__mul__", counting_tower_mul)
    roots = [fields.sqrt_unit_product(tower, units) for tower, units in products]
    assert calls == {"_mul": 0, "__mul__": 0}
    assert None not in roots
    # the counters see a product when one is formed
    roots[0] * roots[0]
    assert calls == {"_mul": 1, "__mul__": 1}


def test_closed_form_half_integer_root_and_refusals():
    # the half-integer first factor of theta_factors(3, 5, 7)
    B = BiquadField(2, 15)
    units = (fundamental_pell(15), fundamental_pell(30))
    root = fields.sqrt_unit_product(B, units)
    assert root == theta_factors(3, 5, 7)[0] == _descent_root(B, units)
    assert root.coords[1] == Fraction(5, 2)
    # eps_65 has norm -1: the product is negative at an embedding
    B = BiquadField(2, 65)
    units = (fundamental_pell(65), fundamental_pell(130))
    assert units[0].norm == -1
    assert fields.sqrt_unit_product(B, units) is None and _descent_root(B, units) is None
    # sqrt(eps_21) = 2*sqrt7 + 3*sqrt3, and sqrt(eps_133*eps_114) has a
    # monomial in sqrt(14*114) = 2*sqrt399: both radicals lie outside the tower
    for tower, ds in ((BiquadField(2, 21), (21,)), (OcticField(7, 19, 3), (133, 114))):
        units = tuple(fundamental_pell(d) for d in ds)
        assert all(u.norm == 1 for u in units)
        assert fields.sqrt_unit_product(tower, units) is None
        assert _descent_root(tower, units) is None


def _with_half(u, half):
    """The unit u built again with the half unit `half`."""
    return fields.QuadUnit(u.d, u.x, u.y, u.norm, half)


def test_closed_form_root_checks_the_half_units():
    B = BiquadField(2, 133)
    units = (fundamental_pell(133), fundamental_pell(266))
    h, k, Q = units[0].half
    # the scaled halves and the negated one satisfy h^2 + d*k^2 = Q*x,
    # 2hk = Q*y and h^2 - d*k^2 = +-Q; only Q | 2d with 4 not dividing Q, and
    # h, k > 0, refuse them, when the unit is built
    forged = [(2 * h, 2 * k, 4 * Q), (3 * h, 3 * k, 9 * Q), (-h, -k, Q)]
    for half in [(h + 1, k, Q), (h, k + 1, Q), (h, k, 2 * Q), (h, k, 3 * Q), (k, h, Q), *forged]:
        with pytest.raises(ArithmeticError, match="does not square back"):
            fields.sqrt_unit_product(B, (_with_half(units[0], half), units[1]))
    # a unit of norm +1 built by hand has no half unit to root
    with pytest.raises(ValueError, match="no half unit"):
        fields.sqrt_unit_product(B, (_with_half(units[0], None), units[1]))
    assert fields.sqrt_unit_product(B, units) == theta_factors(7, 19, 3)[0]


# -- the closed-form root of mu*Theta -----------------------------------------


@pytest.mark.parametrize("triples", [oracles.in_pattern_triples(400)[::9], oracles.LADDER_TRIPLES],
                         ids=["every-9th-corpus-triple", "ladder-rungs"])
def test_norm_one_product_root_matches_the_descent(triples):
    for p, q, s in triples:
        f1, f2 = theta_factors(p, q, s)
        # the residue sign that delta's xi reads is the exact relative norm
        for f in (f1, f2):
            assert oracles.relative_norm_to_sqrt2(f) == (fields._norm_sign(f), 0)
        octic = OcticField(p, q, s)
        th = octic.lift(f1) * octic.lift(f2)
        eps_pq = fundamental_pell(p * q)
        candidates = [
            (f1, th),
            (f1.tower.from_quad_unit(eps_pq) * f1, octic.from_quad_unit(eps_pq) * th),
        ]
        roots = []
        for a, product in candidates:
            root = fields._sqrt_mu_product(octic, a, f2, 1, 0, 1)
            assert root == sqrt_exact(product)
            roots.append(root)
        # exactly one of Theta and eps_pq*Theta is a square, and its root is positive
        root = next(r for r in roots if r is not None)
        assert roots.count(None) == 1 and oracles.real_sign(root) == 1


def test_norm_one_product_refusals_and_edge_factors():
    # eps_65 has norm -1, so its relative norm from Q(sqrt2, sqrt65) is -1
    octic = OcticField(5, 13, 3)
    K1, K2 = BiquadField(2, 65), BiquadField(2, 15)
    eps_65 = K1.from_quad_unit(fundamental_pell(65))
    assert fundamental_pell(65).norm == -1
    assert fields._sqrt_mu_product(octic, eps_65, K2.one(), 1, 0, 1) is None
    assert fields._sqrt_mu_product(octic, K1.one(), K2.one() * -1, 1, 0, 1) is None
    assert sqrt_exact(octic.lift(eps_65)) is None
    eps_15 = K2.from_quad_unit(fundamental_pell(15))
    # x = -1 is shifted by -1: (-1)*(-1) has the root 1, and -1 has none
    assert fields._sqrt_mu_product(octic, K1.one() * -1, K2.one() * -1, 1, 0, 1) == octic.one()
    assert fields._sqrt_mu_product(octic, K1.one() * -1, K2.one(), 1, 0, 1) is None
    # roots of plain unit products are positive and agree with the descent
    for a, b in [(eps_65 * eps_65, eps_15 * eps_15), (K1.one(), eps_15 * eps_15)]:
        root = fields._sqrt_mu_product(octic, a, b, 1, 0, 1)
        assert root == sqrt_exact(octic.lift(a) * octic.lift(b))
        assert root is not None and oracles.real_sign(root) == 1
    # a + 1 < 0 < b + 1, so (a + 1)(b + 1) is negative and the root's sign is flipped
    inv_15 = K2.element([4, 0, -1, 0])  # 1/eps_15 = 4 - sqrt15
    root = fields._sqrt_mu_product(octic, -(eps_65 * eps_65), -(inv_15 * inv_15), 1, 0, 1)
    assert root == octic.lift(eps_65) * octic.lift(inv_15) and oracles.real_sign(root) == 1


def _norm_one_quotient(K, rng):
    """y/y' for a random y in K = Q(sqrt2, sqrt m), y' its conjugate over
    Q(sqrt2): relative norm 1 and, as a rule, a denominator with primes of m."""
    while True:
        y = K.element([rng.randint(-9, 9) for _ in range(4)])
        n = y * K.element([c if i < 2 else -c for i, c in enumerate(y.coords)])
        if not n.is_zero():
            break
    n0, n1 = n.coords[0], n.coords[1]
    return y * y * K.element([n0, -n1, 0, 0]) * (1 / (n0 * n0 - 2 * n1 * n1))


def test_norm_one_product_root_of_factors_with_denominators():
    # gcd(T, 2Dm) then sees denominators D > 2, some sharing primes with m;
    # the descent is the reference
    rng = random.Random(20260)
    seen_den = set()
    for p, q, s in [(7, 19, 3), (5, 13, 3), (17, 7, 41), (3, 11, 23)]:
        octic = OcticField(p, q, s)
        K1, K2 = BiquadField(2, p * q), BiquadField(2, p * s)
        for _ in range(6):
            x1, x2 = _norm_one_quotient(K1, rng), _norm_one_quotient(K2, rng)
            seen_den.update((x1.den, x2.den))
            for a, b in [(x1, x2), (x1 * x1, x2 * x2), (-(x1 * x1), -(x2 * x2)), (x1 * x1, x2)]:
                root = fields._sqrt_mu_product(octic, a, b, 1, 0, 1)
                assert root == sqrt_exact(octic.lift(a) * octic.lift(b)), (p, q, s, a, b)
    assert max(seen_den) > 1000


def test_norm_sign_residue_matches_the_exact_norm_on_forced_factors():
    # Theta's factor in Q(sqrt2, sqrt d) depends on d = pq or ps alone, so the
    # roots of eps_d*eps_2d for all products d of two distinct odd primes below
    # 80 are the factors of every forced triple below 80 that has a Theta
    primes = oracles.odd_primes_by_trial_division(79)
    signs = []
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            units = (fundamental_pell(p * q), fundamental_pell(2 * p * q))
            f = fields.sqrt_unit_product(BiquadField(2, p * q), units)
            if f is not None:
                norm = oracles.relative_norm_to_sqrt2(f)
                assert norm in ((1, 0), (-1, 0)) and fields._norm_sign(f) == norm[0], (p, q)
                signs.append(norm[0])
    assert signs.count(1) == 110 and signs.count(-1) == 40


def test_norm_sign_residue_matches_the_exact_norm_with_a_denominator():
    # a factor of norm 1 with D > 1, and the same times eps_65 of norm -1
    K = BiquadField(2, 65)
    x = _norm_one_quotient(K, random.Random(20261))
    eps_65 = K.from_quad_unit(fundamental_pell(65))
    assert x.den > 1 and (x * eps_65).den == x.den
    for f, norm in [(x, 1), (x * eps_65, -1), (-x, 1), (K.one() * -1, 1)]:
        assert oracles.relative_norm_to_sqrt2(f) == (norm, 0) and fields._norm_sign(f) == norm


def test_pair_signs_are_the_descent_sign_on_a_grid():
    # xi's closed-form signs against `_sign` in K1 and K2 for (7, 19, 3):
    # 17 - 12*sqrt2 and 99 - 70*sqrt2 are near 0, so a pair's sign and the
    # relative norm x^2 - m*y^2 cancel almost to nothing
    values = (0, 1, -1, 2, -3, 12, -17, 99, -70)
    pairs = [(a, b) for a in values for b in values]
    cases = collections.Counter()
    for K in (BiquadField(2, 133), BiquadField(2, 21)):
        m, table = K.generators[1], K._table
        for x in pairs[1:]:
            assert fields._sqrt2_sign(x) == fields._sign(list(x), table), x
        for x in pairs:
            for y in pairs:
                if x == y == (0, 0):
                    continue
                xx, yy = fields._sqrt2_mul(x, x), fields._sqrt2_mul(y, y)
                norm = (xx[0] - m * yy[0], xx[1] - m * yy[1])
                assert fields._relative_sign(x, y, norm) == fields._sign([*x, *y], table), (m, x, y)
                if (0, 0) in (x, y):
                    cases["zero half"] += 1
                elif fields._sqrt2_sign(x) == fields._sqrt2_sign(y):
                    cases["equal signs"] += 1
                else:
                    cases["mixed, norm > 0" if fields._sqrt2_sign(norm) > 0 else "mixed, norm < 0"] += 1
    assert len(cases) == 4 and min(cases.values()) > 300, cases


def test_norm_one_product_root_is_checked_by_squaring(monkeypatch):
    f1, f2 = theta_factors(7, 19, 3)
    octic = OcticField(7, 19, 3)
    assert fields._sqrt_mu_product(octic, f1, f2, 1, 0, 1) is not None
    root_of = fields._sqrt

    def doubled(z, table):
        root = root_of(z, table)
        return root if root is None or len(z) != 2 else ([2 * c for c in root[0]], root[1])

    monkeypatch.setattr(fields, "_sqrt", doubled)
    with pytest.raises(ArithmeticError, match="does not square back"):
        fields._sqrt_mu_product(octic, f1, f2, 1, 0, 1)


def test_relative_half_root_is_checked_by_its_identity(monkeypatch):
    # a wrong alpha makes beta = v1/alpha inexact, and then B^2*D = g*v fails:
    # ArithmeticError, never AssertionError or ZeroDivisionError; the other
    # root -alpha gives the same xi, whose sign is fixed afterwards
    f1, f2 = theta_factors(7, 19, 3)
    octic = OcticField(7, 19, 3)
    xi = fields._sqrt_mu_product(octic, f1, f2, 1, 0, 1)
    root_of = fields._root_quadratic
    for scale in (2, 3, -1):
        def scaled(x, w, b, norm, scale=scale):
            # kappa's search calls it on non-squares too, which stay None
            root = root_of(x, w, b, norm)
            return root and ([scale * c for c in root[0]], root[1])

        monkeypatch.setattr(fields, "_root_quadratic", scaled)
        if scale == -1:
            assert fields._sqrt_mu_product(octic, f1, f2, 1, 0, 1) == xi
            continue
        with pytest.raises(ArithmeticError, match="does not square back"):
            fields._sqrt_mu_product(octic, f1, f2, 1, 0, 1)


@pytest.mark.parametrize("triples", [oracles.in_pattern_triples(400)[::9], oracles.LADDER_TRIPLES],
                         ids=["every-9th-corpus-triple", "ladder-rungs"])
def test_delta_xi_is_the_descent_root_of_mu_theta(triples):
    # delta roots Q^delta*f1*f2 and multiplies by (h + k*sqrt(pq))^delta; the
    # descent on the octic product mu*Theta is the reference
    for p, q, s in triples:
        cert = delta(p, q, s, oracle=True)
        octic = OcticField(p, q, s)
        mu = octic.from_quad_unit(fundamental_pell(p * q)) if cert.delta else octic.one()
        assert cert.fsu[6].element == sqrt_exact(mu * theta(p, q, s)), (p, q, s)


def test_xi_check_catches_a_wrong_half_root_or_kappa(monkeypatch):
    # (7, 3, 59) has delta = 1, so xi roots Q*Theta with Q = 3 from eps_21's
    # half unit; each per-factor identity catches its own wrong root
    assert fundamental_pell(21).half[2] == 3
    half_root, root_of = fields._relative_half_root, fields._sqrt
    for which in (0, 1):
        calls = []

        def doubled(v, D, e, m, which=which):
            B, g = half_root(v, D, e, m)
            calls.append(B)
            return ([2 * c for c in B] if len(calls) == which + 1 else B), g

        monkeypatch.setattr(fields, "_relative_half_root", doubled)
        with pytest.raises(ArithmeticError, match="does not square back"):
            delta(7, 3, 59, oracle=True)
    monkeypatch.setattr(fields, "_relative_half_root", half_root)

    def doubled_kappa(z, table):
        root = root_of(z, table)
        return root if root is None or len(z) != 2 else ([2 * c for c in root[0]], root[1])

    monkeypatch.setattr(fields, "_sqrt", doubled_kappa)
    with pytest.raises(ArithmeticError, match="does not square back"):
        delta(7, 3, 59, oracle=True)


def _forced_triples():
    """For each class of (p, q, s) mod 8, the first triple of distinct primes
    below 200 in that class whose Theta factors exist (some classes have none
    there: a unit of norm -1 leaves no factor)."""
    by_class = {}
    for n in range(3, 200, 2):
        if oracles.trial_division_is_prime(n):
            by_class.setdefault(n % 8, []).append(n)
    found = []
    for cp in (1, 3, 5, 7):
        for cq in (1, 3, 5, 7):
            for cs in (1, 3, 5, 7):
                for p in by_class[cp][:3]:
                    triple = next(
                        ((p, q, s) for q in by_class[cq][:4] for s in by_class[cs][:4]
                         if len({p, q, s}) == 3 and _has_theta(p, q, s)),
                        None,
                    )
                    if triple:
                        found.append(triple)
                        break
    return found


def _has_theta(p, q, s):
    try:
        theta_factors(p, q, s)
    except NotASquareInBiquad:
        return False
    return True


def test_norm_one_product_root_on_forced_triples_of_every_class_mod_8():
    # p, q and s both split (+-1 mod 8) and inert (+-3 mod 8) in Z[sqrt2]; for
    # p = +-3 (mod 8) no prime of Z[sqrt2] lies over p alone
    triples = _forced_triples()
    for i in range(3):
        assert {t[i] % 8 for t in triples} == {1, 3, 5, 7}
    counts = set()
    for p, q, s in triples:
        f1, f2 = theta_factors(p, q, s)
        octic = OcticField(p, q, s)
        th = octic.lift(f1) * octic.lift(f2)
        eps_pq = fundamental_pell(p * q)
        roots = []
        for a, product in [(f1, th), (f1.tower.from_quad_unit(eps_pq) * f1,
                                      octic.from_quad_unit(eps_pq) * th)]:
            root = fields._sqrt_mu_product(octic, a, f2, 1, 0, 1)
            assert root == sqrt_exact(product), (p, q, s)
            roots.append(root)
        counts.add(roots.count(None))
    # cases with one square candidate, with none and with two occur
    assert counts == {0, 1, 2}


def _theta_triples_below_80():
    """(p, q, s, f1, f2) for every triple of distinct odd primes below 80 with
    q < s that has a Theta, in or out of the pattern."""
    primes = oracles.odd_primes_by_trial_division(79)
    factors = {}  # d -> the root of eps_d*eps_2d in Q(sqrt2, sqrt d), or None
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            units = (fundamental_pell(p * q), fundamental_pell(2 * p * q))
            factors[p * q] = fields.sqrt_unit_product(BiquadField(2, p * q), units)
    for p in primes:
        for q in primes:
            for s in primes:
                f1, f2 = factors.get(p * q), factors.get(p * s)
                if len({p, q, s}) == 3 and q < s and f1 is not None and f2 is not None:
                    yield p, q, s, f1, f2


def test_xi_closed_form_matches_the_descent_on_every_forced_triple_below_80():
    # both mu = 1 and mu = eps_pq (whose norm is +1 whenever f1 exists, so it
    # has a half unit) against the descent
    triples, roots = 0, []
    for p, q, s, f1, f2 in _theta_triples_below_80():
        triples += 1
        octic = OcticField(p, q, s)
        th = octic.lift(f1) * octic.lift(f2)
        eps_pq = fundamental_pell(p * q)
        for half, product in [((1, 0, 1), th), (eps_pq.half, octic.from_quad_unit(eps_pq) * th)]:
            root = fields._sqrt_mu_product(octic, f1, f2, *half)
            assert root == sqrt_exact(product), (p, q, s, half)
            roots.append(root)
    assert triples == 2072
    assert roots.count(None) == 3904 and len(roots) - roots.count(None) == 240


@pytest.mark.parametrize("source", ["corpus", "forced-triples-below-80"])
def test_kappa_r_by_two_parities_is_the_r_that_trying_all_four_finds(monkeypatch, source):
    # xi takes the one r that q's and s's valuations of the content of Q*g
    # fix; trying 1, qs, pq and ps in turn (the oracle) finds that r whenever
    # some r*Q*g is a square, and when none is, xi is None; for both mu
    kappa_r, taken = fields._kappa_r, []
    monkeypatch.setattr(fields, "_kappa_r", lambda g, p, q, s: taken.append(g) or kappa_r(g, p, q, s))
    if source == "corpus":
        triples = [(p, q, s, *theta_factors(p, q, s)) for p, q, s in oracles.in_pattern_triples(400)]
        assert len(triples) == 986
    else:
        triples = list(_theta_triples_below_80())
    found = collections.Counter()
    for p, q, s, f1, f2 in triples:
        octic, eps_pq = OcticField(p, q, s), fundamental_pell(p * q)
        for half in ((1, 0, 1), eps_pq.half):
            taken.clear()
            root = fields._sqrt_mu_product(octic, f1, f2, *half)
            if not taken:  # a factor of relative norm -1: no root, and no r read
                assert root is None and source != "corpus"
                continue
            r = oracles.kappa_r_by_trial(taken[0], p, q, s)
            if r is None:
                assert root is None, (p, q, s, half)
            else:
                assert kappa_r(taken[0], p, q, s) == r and root is not None, (p, q, s, half)
            found[{None: None, 1: "1", q * s: "qs", p * q: "pq", p * s: "ps"}[r]] += 1
    # every r occurs; each corpus triple has a root for exactly one mu, and
    # below 80 the roots are the 240 that the descent test above finds
    assert set(found) == {None, "1", "qs", "pq", "ps"}
    assert found.total() - found[None] == (986 if source == "corpus" else 240)


def _assert_one_gcd_is_the_gcd_and_the_primes_over_m(x, ell1, ell2):
    # gamma = gcd(T, 2Dm) up to a unit: its norm is that of gcd(T, 2D) times
    # the norms of the primes over m that divide T/gcd(T, 2D), split by
    # search; for x of relative norm 1 the relative half-root's g =
    # 2*D*gamma has that norm times 4D^2 (a forced factor can have norm -1)
    v, D, m = x.num, x.den, ell1 * ell2
    e = -1 if v == (-1, 0, 0, 0) else 1
    T = (v[0] + e * D, v[1])
    G = fields._sqrt2_gcd(T, 2 * D)
    rest = fields._sqrt2_div(T, G)
    norm = abs(G[0] * G[0] - 2 * G[1] * G[1])
    for ell in (ell1, ell2):
        for pi in oracles.primes_of_sqrt2_over(ell):
            if oracles.sqrt2_divides(pi, rest):
                norm *= abs(pi[0] * pi[0] - 2 * pi[1] * pi[1])
    gamma = fields._sqrt2_gcd(T, 2 * D * m)
    assert abs(gamma[0] * gamma[0] - 2 * gamma[1] * gamma[1]) == norm, (m, v, D)
    if oracles.relative_norm_to_sqrt2(x) == (1, 0):
        g = fields._relative_half_root(v, D, e, m)[1]
        assert abs(g[0] * g[0] - 2 * g[1] * g[1]) == 4 * D * D * norm, (m, v, D)


@pytest.mark.parametrize("source", ["every-9th-corpus-triple", "ladder-rungs", "forced-triples",
                                    "random-quotients"])
def test_one_gcd_over_2dm_is_gcd_over_2d_times_the_primes_over_m(source):
    if source == "random-quotients":
        rng = random.Random(20262)
        for p, q, s in [(7, 19, 3), (5, 13, 3), (17, 7, 41), (3, 11, 23)]:
            for ell in (q, s):
                for _ in range(6):
                    x = _norm_one_quotient(BiquadField(2, p * ell), rng)
                    for y in (x, x * x, -x, x * 0 - 1):
                        _assert_one_gcd_is_the_gcd_and_the_primes_over_m(y, p, ell)
        return
    triples = {"every-9th-corpus-triple": oracles.in_pattern_triples(400)[::9],
               "ladder-rungs": oracles.LADDER_TRIPLES, "forced-triples": _forced_triples()}[source]
    for p, q, s in triples:
        f1, f2 = theta_factors(p, q, s)
        _assert_one_gcd_is_the_gcd_and_the_primes_over_m(f1, p, q)
        _assert_one_gcd_is_the_gcd_and_the_primes_over_m(f2, p, s)


# -- the one element format: integer numerators over one denominator -------


def test_one_value_has_one_representation():
    """(3 + sqrt2)/2 built ten ways is one (num, den) and one hash."""
    O = OcticField(7, 19, 3)
    B = BiquadField(2, 133)
    eps_2 = O.from_quad_unit(fundamental_pell(2))  # 1 + sqrt2
    ways = [
        O.element([Fraction(6, 4), Fraction(3, 6)] + [0] * 6),
        O.element(["9/6", "7/14", "0/5"] + [0] * 5),
        O.element([3, 1] + [0] * 6) * Fraction(1, 2),
        Fraction(1, 2) * O.element([3, 1] + [0] * 6),
        O.element([6, 2] + [0] * 6) * O.element([Fraction(1, 4)] + [0] * 7),
        O.element([1, 1] + [0] * 6) + O.element([Fraction(1, 2), Fraction(-1, 2)] + [0] * 6),
        (eps_2 + 2) * Fraction(1, 2),
        O.lift(B.element([Fraction(3, 2), Fraction(1, 2), 0, 0])),
        fields.TowerElement(O, [6, 2] + [0] * 6, 4),
        fields.TowerElement(O, [-9, -3] + [0] * 6, -6),
    ]
    for x in ways:
        assert x == ways[0] and hash(x) == hash(ways[0])
        assert (x.num, x.den) == ((3, 1) + (0,) * 6, 2)
        assert x.coords == (Fraction(3, 2), Fraction(1, 2)) + (Fraction(0),) * 6
    assert O.from_quad_unit(fundamental_pell(2)) == O.element([1, 1] + [0] * 6)
    assert len({*ways, O.one()}) == 2


def _assert_canonical(x):
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    assert x.coords == tuple(Fraction(c, x.den) for c in x.num)


@pytest.mark.parametrize("tower", TOWERS, ids=lambda t: f"deg{t.degree}")
def test_every_result_is_content_free_over_a_positive_denominator(tower):
    rng = random.Random(41 + tower.degree)
    for _ in range(30):
        a, b = _sparse_element(tower, rng), _sparse_element(tower, rng)
        for x in (a, b, a * b, a * a, a + b, a - b, -a, a * Fraction(-3, 7), a - a):
            _assert_canonical(x)
        if not a.is_zero():
            _assert_canonical(sqrt_exact(a * a))
    for zero in (tower.zero(), tower.element(["0/7"] * tower.degree), tower.one() * 0,
                 fields.TowerElement(tower, [0] * tower.degree, -5)):
        assert (zero.num, zero.den) == ((0,) * tower.degree, 1) and zero.is_zero()


def test_closed_form_roots_are_canonical():
    f_pq, f_ps = theta_factors(7, 19, 3)
    octic = OcticField(7, 19, 3)
    xi = fields._sqrt_mu_product(octic, f_pq, f_ps, 1, 0, 1)
    for x in (f_pq, f_ps, xi, theta(7, 19, 3)):
        _assert_canonical(x)
    assert xi.den == 2 and f_pq.den == 1


@pytest.mark.parametrize("coords, message", [
    (["1/0", 0, 0, 0], "coordinate 0 ('1/0') has a zero denominator"),
    ([1, 0, 0], "expected 4 coordinates, got 3"),
], ids=["zero-denominator", "three-coordinates"])
def test_tower_element_refuses_bad_coordinates(coords, message):
    with pytest.raises(ValueError) as refused:
        BiquadField(2, 21).element(coords)
    assert str(refused.value) == message


def test_tower_element_refuses_a_float_coordinate():
    # 0.1 would become its binary value 3602879701896397/36028797018963968
    with pytest.raises(TypeError) as refused:
        BiquadField(2, 3).element([1, 0.1, 0, 0])
    assert str(refused.value) == "coordinate 1 (0.1) is a float, not an exact rational"
    # a float has no numerator for from_rational to read
    with pytest.raises(TypeError) as refused:
        OcticField(7, 19, 3).from_rational(0.5)
    assert str(refused.value) == "0.5 is a float, not an exact rational"


def test_tower_element_takes_ints_bools_fractions_and_fraction_strings():
    element = BiquadField(2, 3).element([Fraction(1, 10), "3/4", True, 2])
    assert element.coords == (Fraction(1, 10), Fraction(3, 4), 1, 2)


@pytest.mark.parametrize("generators", [(2.9, 3), (2.0, 3), ("2", 3)], ids=["2.9", "2.0", "str"])
def test_tower_refuses_a_generator_that_is_no_integer(generators):
    # int() would make (2.9, 3) the tower Q(sqrt2, sqrt3)
    with pytest.raises(TypeError, match="object cannot be interpreted as an integer$"):
        Tower(generators)


@pytest.mark.parametrize("operation", [
    lambda e: e + "x", lambda e: e - None, lambda e: e * 1.5,
], ids=["add-str", "sub-None", "mul-float"])
def test_element_operators_refuse_what_is_no_element_or_rational(operation):
    with pytest.raises(TypeError):
        operation(BiquadField(2, 21).element([1, 2, 3, 4]))


def test_element_operators_refuse_an_element_of_another_tower():
    with pytest.raises(ValueError, match="^elements live in different towers$"):
        BiquadField(2, 21).one() + BiquadField(2, 3).one()


def test_from_quad_unit_refuses_a_unit_outside_the_tower():
    with pytest.raises(ValueError) as refused:
        BiquadField(2, 21).from_quad_unit(fundamental_pell(133))
    assert str(refused.value) == "sqrt(133) does not lie in Q(sqrt2, sqrt21)"


def test_tower_element_repr_names_its_coordinates_and_tower():
    element = BiquadField(2, 21).element([1, "1/2", 0, -3])
    assert repr(element) == "<1 + 1/2*r2 + 0*r21 + -3*r42 in Q(sqrt2, sqrt21)>"
