import random
from fractions import Fraction

import oracles
import pytest

from unitcert import (
    AffineCertificate,
    BiquadField,
    OcticField,
    SeparationCertificate,
    certify_affine,
    delta,
    fundamental_pell,
    separate_candidates,
    theta,
)
from unitcert.certify import TestFunctional as Functional  # not a test class
from unitcert.certify import _independent
from unitcert.errors import Inseparable, NonUnitResidue, RankDeficient, SearchExhausted


@pytest.fixture(scope="module")
def ex1():
    O = OcticField(7, 19, 3)
    th = theta(7, 19, 3)
    place = delta(7, 19, 3, with_fsu=False).place
    units = {d: O.from_quad_unit(fundamental_pell(d)) for d in (2, 133, 21, 57)}
    return O, th, place, units


# the local test vector of the paper has one bit at a split place: the
# uniformizer's, since (r, u)_t = 1 for every unit residue r


def test_test_vector_values(ex1):
    O, th, place, units = ex1
    bit = Functional(place).evaluate
    assert bit(th) == 0  # locally a square
    assert bit(units[133]) == 1
    assert bit(O.one()) == 0


def test_test_vector_square_unit_residue_is_trivial(ex1):
    O, th, place, units = ex1
    # 5 = 13^2 mod 41 is a residue, so the bit is trivial
    assert Functional(place).evaluate(O.from_rational(5)) == 0


def test_test_vector_rejects_non_unit_residue(ex1):
    O, th, place, units = ex1
    with pytest.raises(NonUnitResidue):
        Functional(place).evaluate(O.from_rational(41))
    with pytest.raises(NonUnitResidue):  # t divides a denominator
        Functional(place).evaluate(O.from_rational(Fraction(1, 41)))


def test_functional_additivity(ex1):
    O, th, place, units = ex1
    rng = random.Random(23)
    pool = list(units.values()) + [th]
    lam = Functional(place)
    for _ in range(40):
        x = rng.choice(pool) * rng.choice(pool)
        y = rng.choice(pool)
        assert lam.evaluate(x * y) == (lam.evaluate(x) + lam.evaluate(y)) % 2


def test_certify_affine_empty_generators(ex1):
    O, th, place, units = ex1
    cert = certify_affine(th, [])
    assert cert.functionals == [] and cert.base_bits == []


def test_certify_affine_single_bit(ex1):
    O, th, place, units = ex1
    cert = certify_affine(th, [units[133]])
    assert len(cert.functionals) == 1
    f = cert.functionals[0]
    assert f.to_json_dict() == {"t": "41", "signs": [1, 1, 1], "basis": "t", "value": "41"}
    assert cert.matrix == [[1]]
    assert cert.base_bits == [0]  # theta is a square at the place


def test_certify_affine_rank_two_decodes_coset(ex1):
    O, th, place, units = ex1
    gens = [units[2], units[133]]
    cert = certify_affine(th, gens)
    assert len(cert.functionals) == 2
    for a in (0, 1):
        for b in (0, 1):
            u = th
            if a:
                u = u * gens[0]
            if b:
                u = u * gens[1]
            bits = tuple(f.evaluate(u) for f in cert.functionals)
            assert cert.decode(bits) == (a, b)
            assert cert.encode((a, b)) == bits


def test_affine_certificate_refuses_malformed_vectors(ex1):
    O, th, place, units = ex1
    cert = certify_affine(th, [units[2], units[133]])
    for exponents in [(1,), (1, 0, 1), ()]:
        with pytest.raises(ValueError, match="need r = 2"):
            cert.encode(exponents)
    for bits in [(1,), (1, 0, 1), ()]:
        with pytest.raises(ValueError, match="need r = 2"):
            cert.decode(bits)
    for bits in [(0, 2), (2, 0), (-1, 1)]:
        with pytest.raises(ValueError, match="must be 0 or 1"):
            cert.decode(bits)
    # exponents are read mod 2, so any integer vector of length r encodes
    assert cert.encode((3, -2)) == cert.encode((1, 0))


def test_affine_certificate_refuses_a_matrix_of_the_wrong_shape():
    for matrix, base_bits in [([[1, 0]], [0]), ([[1]], [0, 1]), ([], [0]), ([[1], [0]], [0])]:
        with pytest.raises(ValueError, match="r x r bit matrix and r base bits, r = 1"):
            AffineCertificate(["f"], matrix, base_bits)
    with pytest.raises(ValueError, match="r = 2"):
        AffineCertificate(["f", "g"], [[1, 0], [0]], [0, 0])


def test_affine_certificate_refuses_entries_and_base_bits_other_than_0_and_1():
    # encode would read a matrix entry 2 as 0 and decode as a bit of the next column
    for matrix, base_bits in [([[2]], [0]), ([[1]], [3])]:
        with pytest.raises(ValueError, match="must be 0 or 1, r = 1"):
            AffineCertificate(["f"], matrix, base_bits)
    with pytest.raises(ValueError, match="must be 0 or 1, r = 2"):
        AffineCertificate(["f", "g"], [[1, 0], [0, -1]], [0, 0])
    assert AffineCertificate(["f"], [[1]], [1]).decode((0,)) == (1,)


def test_affine_certificate_with_a_singular_matrix_does_not_decode():
    cert = AffineCertificate(["f", "g"], [[1, 1], [1, 1]], [0, 0])
    for bits in [(0, 1), (0, 0)]:
        with pytest.raises(ValueError, match="2 x 2 bit matrix is singular"):
            cert.decode(bits)


def test_certify_affine_rank_deficient(ex1):
    O, th, place, units = ex1
    with pytest.raises(RankDeficient):
        certify_affine(th, [O.one()])


def test_certify_affine_exhaustion_on_dependent_pair(ex1):
    O, th, place, units = ex1
    same_class = units[133] * O.from_rational(4)
    with pytest.raises(SearchExhausted):
        certify_affine(th, [units[133], same_class])


@pytest.mark.parametrize("size, zero_at, name", [(3, 0, "u0"), (3, 1, "generator 0"), (3, 2, "generator 1"),
                                                  (1, 0, "u0")])
def test_certify_affine_refuses_a_zero_element_by_its_position(ex1, size, zero_at, name):
    # zero has no squareclass: the refusal names it instead of a generator
    # that no functional detected, also with no generators to search for
    O, th, place, units = ex1
    elements = [th, O.from_rational(-1), units[133]][:size]
    elements[zero_at] = O.zero()
    with pytest.raises(ValueError, match=f"^{name} is zero, which has no squareclass$"):
        certify_affine(elements[0], elements[1:])


@pytest.mark.parametrize("size, zero_at", [(3, 0), (3, 1), (3, 2), (1, 0)])
def test_separate_candidates_refuses_a_zero_candidate_by_its_position(ex1, size, zero_at):
    O, th, place, units = ex1
    candidates = [th, units[133] * th, units[2]][:size]
    candidates[zero_at] = O.zero()
    with pytest.raises(ValueError, match=f"^candidate {zero_at} is zero, which has no squareclass$"):
        separate_candidates(candidates)


def test_separate_singleton(ex1):
    O, th, place, units = ex1
    cert = separate_candidates([th])
    assert cert.functionals == [] and cert.table == [()]


def test_separate_pair(ex1):
    O, th, place, units = ex1
    cert = separate_candidates([th, units[133] * th])
    assert len(cert.functionals) == 1
    assert cert.table == [(0,), (1,)]


def test_separate_four_distinct_rows(ex1):
    O, th, place, units = ex1
    family = [O.one(), units[2], units[133], units[2] * units[133]]
    cert = separate_candidates(family)
    assert len(set(cert.table)) == 4
    # exhaustive verification: recompute the whole table
    for row, cand in zip(cert.table, family):
        assert row == tuple(f.evaluate(cand) for f in cert.functionals)


def test_separate_detects_duplicate_class(ex1):
    O, th, place, units = ex1
    with pytest.raises(Inseparable) as info:
        separate_candidates([units[133], units[133] * O.from_rational(9)])
    assert info.value.witness == (0, 1)


def test_separate_random_unit_families(ex1):
    # the seven-generator unit system spans independent squareclasses, so
    # distinct exponent masks give distinct candidates
    from unitcert import fsu

    gens = [g.element for g in fsu(7, 19, 3)]
    rng = random.Random(31)
    for _ in range(3):
        masks = rng.sample(range(1 << len(gens)), rng.randrange(2, 6))
        family = []
        for mask in masks:
            elem = gens[0].tower.one()
            for j, g in enumerate(gens):
                if mask >> j & 1:
                    elem = elem * g
            family.append(elem)
        cert = separate_candidates(family)
        assert len(set(cert.table)) == len(family)


def test_separate_requires_candidates():
    with pytest.raises(ValueError):
        separate_candidates([])


def test_echelon_basis_keeps_a_row_exactly_when_the_rank_rises():
    rng = random.Random(31)
    for trial in range(300):
        width = rng.randint(1, 9)
        pool = [rng.getrandbits(width) for _ in range(rng.randint(1, 6))] + [0]
        masks = [rng.choice(pool) for _ in range(rng.randint(0, 30))]
        stream = [(i, [m >> j & 1 for j in range(width)] + [rng.getrandbits(1)])
                  for i, m in enumerate(masks)]
        kept = [i for i, _ in _independent(iter(stream), width)]
        ranks = [oracles._rank(masks[:i]) for i in range(len(masks) + 1)]
        rises = [i for i in range(len(masks)) if ranks[i + 1] > ranks[i]]
        assert kept == rises, (trial, masks)


def test_certify_affine_refuses_elements_of_two_towers_or_of_a_biquadratic_one(ex1):
    O, th, place, units = ex1
    other = OcticField(7, 11, 43)
    with pytest.raises(ValueError) as refused:
        certify_affine(O.one(), [other.from_quad_unit(fundamental_pell(77))])
    assert str(refused.value) == "all elements must live in one octic field"
    biquad = BiquadField(2, 21)
    with pytest.raises(ValueError) as refused:
        certify_affine(biquad.one(), [biquad.from_quad_unit(fundamental_pell(21))])
    assert str(refused.value) == "local certification requires octic-field elements"


def test_separation_certificate_refuses_duplicate_rows():
    with pytest.raises(ValueError) as refused:
        SeparationCertificate([], [], [(0,), (0,)])
    assert str(refused.value) == "separation table has duplicate rows"
