import copy
import math
import random
from fractions import Fraction

import oracles
import pytest

from unitcert import (
    BiquadField,
    HypothesisViolation,
    OcticField,
    Tower,
    biquad_unit_index,
    embed_real,
    fundamental_pell,
    hypothesis_branch,
    sqrt_biquad,
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


def test_embed_real_values():
    O = OcticField(7, 19, 3)
    assert embed_real(O.one()) == 1
    e21 = O.from_quad_unit(fundamental_pell(21))
    val = float(embed_real(e21))
    assert abs(val - (55 + 12 * math.sqrt(21))) < 1e-9
    # conjugate embedding flipping sqrt(ps) inverts the norm-one unit
    conj = float(embed_real(e21, (1, 1, -1)))
    assert abs(conj - (55 - 12 * math.sqrt(21))) < 1e-9


def test_embed_real_sign_flip_negates_sqrt2_block():
    B = BiquadField(2, 21)
    rng = random.Random(9)
    x = _random_element(B, rng)
    c0, c1, c2, c3 = (float(c) for c in x.coords)
    flipped = float(embed_real(x, (-1, 1)))
    direct = c0 - c1 * math.sqrt(2) + c2 * math.sqrt(21) - c3 * math.sqrt(42)
    assert abs(flipped - direct) < 1e-9


def test_embed_real_is_multiplicative_at_all_embeddings():
    rng = random.Random(13)
    O = OcticField(7, 19, 3)
    for signs in O.embeddings():
        a = _random_element(O, rng)
        b = _random_element(O, rng)
        lhs = embed_real(a * b, signs)
        rhs = embed_real(a, signs) * embed_real(b, signs)
        assert abs(lhs - rhs) < Fraction(1, 2 ** 150) * (1 + abs(lhs))


def test_embed_real_precision_validation():
    with pytest.raises(ValueError):
        embed_real(OcticField(7, 19, 3).one(), precision_bits=32)
    with pytest.raises(ValueError):
        embed_real(OcticField(7, 19, 3).one(), (1, 1))


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
    root = sqrt_biquad(prod)
    assert root is not None
    assert tuple(int(c) for c in root.coords) == PRINTED_ROOTS[d]
    assert root * root == prod


def test_sqrt_trivial_cases():
    B = BiquadField(2, 21)
    assert sqrt_biquad(B.from_rational(4)) == B.from_rational(2)
    assert sqrt_biquad(B.from_rational(-1)) is None
    with pytest.raises(ValueError):
        sqrt_biquad(B.zero())
    with pytest.raises(ValueError):
        sqrt_biquad(OcticField(7, 19, 3).one())
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
        root = sqrt_biquad(sq)
        assert root is not None and root * root == sq
        assert root in (g, -g)
        assert embed_real(root) > 0
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
        assert embed_real(root) > 0


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
        assert embed_real(th) > 0
        assert sqrt_octic(-th) is None


def test_sqrt_octic_dichotomy_first_triple():
    th = theta(7, 19, 3)
    O = th.tower
    e133 = O.from_quad_unit(fundamental_pell(133))
    xi = sqrt_octic(th)
    assert xi is not None and xi * xi == th
    assert sqrt_octic(e133 * th) is None


@pytest.mark.parametrize("b", [21, 77, 133])
def test_biquad_unit_index(b):
    index, exps = biquad_unit_index(2, b)
    assert index == 2
    assert exps == (0, 1, 1)  # eps_b * eps_2b is the square
    # uniqueness: no other nontrivial exponent vector yields a square
    field = BiquadField(2, b)
    units = [field.from_quad_unit(fundamental_pell(d)) for d in (2, b, 2 * b)]
    hits = []
    for mask in range(1, 8):
        cand = field.one()
        for j in range(3):
            if mask >> j & 1:
                cand = cand * units[j]
        if sqrt_biquad(cand) is not None:
            hits.append(tuple(mask >> j & 1 for j in range(3)))
    assert hits == [(0, 1, 1)]


def test_unit_product_root_failure_raises():
    # eps_65 and eps_130 have norm -1, so their product is negative at some
    # embedding and cannot be a square; the first factor must refuse
    with pytest.raises(NotASquareInBiquad):
        theta_factors(5, 13, 3)


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
        assert embed_real(root) > 0
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
        assert (a * copy.copy(a)).coords == square  # the general path
        v, den = fields._integral(a.coords)
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
    roots = []
    for alpha in (th, e_pq * th):
        root = sqrt_exact(alpha)
        expected = oracles.fraction_descent_sqrt(octic.radicands, octic._table, alpha.coords)
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
        assert embed_real(root, precision_bits=64) > 0
        assert (root == g) == (embed_real(g, precision_bits=64) > 0)


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
        assert tower._table == table
        checked += 1


def _in_pattern_triples(limit):
    out = []
    for p in range(7, limit, 8):
        for q in range(3, limit, 8):
            for s in range(q + 8, limit, 8):
                if p in (q, s) or not all(map(oracles.trial_division_is_prime, (p, q, s))):
                    continue
                try:
                    hypothesis_branch(p, q, s)
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

LADDER_RUNGS = [(1031, 1019, 1171), (3023, 3011, 3019), (10007, 10067, 10091), (30047, 30011, 30139)]


def _unit_products(p, q, s):
    """(tower, units) for Theta's two factors and the four FSU roots."""
    cache = {}
    e = {d: fundamental_pell(d, cache) for d in (p * q, 2 * p * q, p * s, 2 * p * s, q * s, 2 * q * s)}
    octic = OcticField(p, q, s)
    return [
        (BiquadField(2, p * q), (e[p * q], e[2 * p * q])),
        (BiquadField(2, p * s), (e[p * s], e[2 * p * s])),
        (octic, (e[p * q], e[p * s])),
        (octic, (e[p * q], e[q * s])),
        (octic, (e[2 * q * s],)),
        (octic, (e[p * q], e[2 * p * q])),
    ]


def _descent_root(tower, units):
    product = tower.one()
    for u in units:
        product = product * tower.from_quad_unit(u)
    return sqrt_exact(product)


@pytest.mark.parametrize("triples", [oracles.in_pattern_triples(400)[::9], LADDER_RUNGS],
                         ids=["every-9th-corpus-triple", "ladder-rungs"])
def test_closed_form_roots_match_the_descent(triples):
    for triple in triples:
        for tower, units in _unit_products(*triple):
            root = fields.sqrt_unit_product(tower, units)
            assert root is not None
            assert root == _descent_root(tower, units)


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

