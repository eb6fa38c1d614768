"""The prime sieve, the split-prime scan and the one-pass place scans.

The place scans reduce each element once per split prime and read its
residues at the eight places off that reduction. They are checked against
trial division, Euler's criterion and the per-place scan they replaced,
which `oracles.py` keeps (residues afresh at every place, Hilbert symbols,
"u" functionals before "t").
"""

import sys
from array import array
from collections import Counter
from fractions import Fraction
from itertools import islice

import oracles
import pytest

import unitcert
from unitcert import (
    OcticField,
    QuadUnit,
    TowerElement,
    certify_affine,
    delta,
    enumerate_places,
    fsu,
    fundamental_pell,
    iter_split_primes,
    separate_candidates,
    survey_places,
    theta,
)
from unitcert import arith
from unitcert.arith import odd_primes
from unitcert.errors import Inseparable, NotASquareInBiquad, RankDeficient, SearchExhausted

CORPUS = oracles.in_pattern_triples(400)


def test_corpus_rule_gives_986_triples():
    assert len(CORPUS) == 986


def test_odd_primes_match_trial_division_below_1e5():
    assert list(odd_primes(10 ** 5 - 1)) == oracles.odd_primes_by_trial_division(10 ** 5 - 1)


@pytest.mark.parametrize("bound", [-1, 0, 1, 2, 3, 4, 5, 9, 25, 4095, 4096, 4097, 8192, 8193, 12289])
def test_odd_primes_at_segment_edges(bound):
    assert list(odd_primes(bound)) == oracles.odd_primes_by_trial_division(bound)


def test_odd_primes_when_a_small_bound_sieves_the_first_segment(monkeypatch):
    # the table is sieved on first use to 4097, whatever bound that use asked
    # for, and a read past its end doubles the sieved range
    monkeypatch.setattr(arith, "_primes", array("L"))
    monkeypatch.setattr(arith, "_sieved", 1)
    tops = []
    extend = arith._extend
    monkeypatch.setattr(arith, "_extend", lambda top: (tops.append(top), extend(top)))
    assert list(odd_primes(50)) == oracles.odd_primes_by_trial_division(50)
    assert (tops, arith._sieved) == ([4097], 4097)
    for bound in (4097, 100, 8193):
        assert list(odd_primes(bound)) == oracles.odd_primes_by_trial_division(bound)
    assert (tops, arith._sieved) == ([4097, 8194], 8194)
    # one reader suspended inside the kept range while another extends it
    inside, beyond = odd_primes(20_000), odd_primes(40_000)
    head = list(islice(inside, 100))
    assert list(beyond) == oracles.odd_primes_by_trial_division(40_000)
    assert head + list(inside) == oracles.odd_primes_by_trial_division(20_000)
    assert tops == [4097, 8194, 16388, 32776, 65552]
    assert list(arith._primes) == oracles.odd_primes_by_trial_division(65552)


def test_odd_primes_stopped_early_is_a_prefix():
    primes = oracles.odd_primes_by_trial_division(10 ** 5)
    for n in (1, 30, 564, 565, 1027, 1028):  # 564 odd primes below 4096
        assert list(islice(odd_primes(10 ** 5), n)) == primes[:n]


@pytest.mark.parametrize("t", [9, 25, 49, 81, 121, 169])
def test_enumerate_places_ends_on_a_square_t(t):
    # t is not proven prime there; Tonelli-Shanks finds no nonresidue mod a
    # prime square and says so instead of searching forever
    with pytest.raises(ValueError):
        enumerate_places(t, 7, 19, 3)


def test_iter_split_primes_matches_legendre_oracle():
    for triple in CORPUS[::30]:
        assert list(iter_split_primes(*triple, 20_000)) == list(
            oracles.split_primes_by_legendre(*triple, 20_000)
        ), triple


@pytest.fixture(scope="module")
def every_9th_triple():
    """(triple, Theta, eps_pq, [-1, g1..g7]) for every 9th corpus triple."""
    out = []
    for triple in CORPUS[::9]:
        th = theta(*triple)
        octic = th.tower
        eps = fundamental_pell(triple[0] * triple[1])
        gens = [octic.from_rational(-1)] + [g.element for g in fsu(*triple)]
        out.append((triple, th, eps, gens))
    return out


def _rows(decisions):
    return [
        (d.place.t, d.place.signs, d.valid, d.eps_residue, d.legendre_eps,
         d.theta_residue, d.legendre_theta, d.delta)
        for d in decisions
    ]


def _affine(cert):
    return [f.to_json_dict() for f in cert.functionals], cert.matrix, cert.base_bits


def test_survey_matches_the_per_place_scan(every_9th_triple):
    for triple, th, eps, _ in every_9th_triple:
        assert _rows(survey_places(*triple, theta_elem=th)) == oracles.survey_by_places(
            *triple, th, eps
        ), triple


def test_certify_affine_matches_the_per_place_scan(every_9th_triple):
    for triple, th, _, gens in every_9th_triple:
        one = th.tower.one()
        assert _affine(certify_affine(one, gens)) == oracles.certify_affine_by_places(
            one, gens
        ), triple


def test_separate_candidates_matches_the_per_place_scan(every_9th_triple):
    for triple, th, eps, _ in every_9th_triple:
        family = [th, th.tower.from_quad_unit(eps) * th]
        assert separate_candidates(family).to_json_dict() == oracles.separate_by_places(
            family
        ), triple


@pytest.mark.parametrize("triple", [(5, 13, 17), (5, 13, 3), (13, 5, 29)])
def test_survey_refuses_eps_pq_of_norm_minus_one(triple):
    # eps_65 = 8 + sqrt(65) has norm -1 and no half unit, so these triples
    # have no Theta, and a unit of their octic field passed for it is refused
    p, q, s = triple
    octic = OcticField(p, q, s)
    eps = fundamental_pell(p * q)
    assert eps.norm == -1 and eps.half is None
    stand_in = octic.from_quad_unit(fundamental_pell(2)) * octic.from_quad_unit(
        fundamental_pell(p * s)
    )
    with pytest.raises(NotASquareInBiquad):
        survey_places(p, q, s, theta_elem=stand_in)
    with pytest.raises(NotASquareInBiquad):
        survey_places(p, q, s)


def test_eps_pq_residues_and_validity_follow_from_its_half_unit():
    # eps_pq = (h + k*sqrt(pq))^2/Q, so its residue at every place above t is
    # a square times 1/Q, and the eight places are valid exactly when
    # (Q/t) = -1; the triple's own Theta ends no prime's places early
    for triple in CORPUS[::7]:
        h, k, Q = fundamental_pell(triple[0] * triple[1]).half
        decisions = survey_places(*triple)
        assert len(decisions) == 8 * unitcert.residual.PRIME_COUNT, triple
        for d in decisions:
            t = d.place.t
            leg = oracles.euler_legendre(Q, t)
            assert (d.valid, d.legendre_eps) == (leg == -1, leg), (triple, t)
            assert d.eps_residue == (h + k * d.place.rpq) ** 2 * pow(Q, -1, t) % t, (triple, t)


@pytest.fixture(scope="module")
def corpus_and_ladder_certificates():
    return [delta(*triple, with_fsu=False) for triple in CORPUS + list(oracles.LADDER_TRIPLES)]


def test_certificate_place_is_all_canonical_above_the_first_t_with_q_m_a_nonresidue(
    corpus_and_ladder_certificates,
):
    for cert in corpus_and_ladder_certificates:
        p, q, s = cert.p, cert.q, cert.s
        Q = cert.eps_pq.half[2]
        first = next(
            t for t in oracles.split_primes_by_legendre(p, q, s, 10 ** 5)
            if oracles.euler_legendre(Q, t) == -1
        )
        assert (cert.place.t, cert.place.signs) == (first, (1, 1, 1)), (p, q, s)


def test_own_theta_denominator_is_prime_to_every_split_prime(corpus_and_ladder_certificates):
    # a split t is prime to 2pqs, so the scan's denominator exit is input
    # validation only; the zero-residue exit is covered by the survey above
    for cert in corpus_and_ladder_certificates:
        assert len(cert.theta_factors) == 2
        for factor in cert.theta_factors:
            den = factor.den
            for r in (2, cert.p, cert.q, cert.s):
                while den % r == 0:
                    den //= r
            assert den == 1, (cert.p, cert.q, cert.s)


@pytest.fixture(scope="module")
def ex1():
    octic = OcticField(7, 19, 3)  # split primes 41, 89, 167, ...
    units = {d: octic.from_quad_unit(fundamental_pell(d)) for d in (2, 133, 21)}
    return octic, theta(7, 19, 3), units


def test_denominator_at_a_split_prime_skips_the_same_places(ex1):
    octic, th, units = ex1
    at_41 = Fraction(1, 41)
    one_coord = octic.element([0, 0, 0, 0, 0, 0, Fraction(3, 89), 0])
    thetas = [th * at_41, th + one_coord, th * Fraction(1, 41 * 89)]
    for t_elem in thetas:
        assert _rows(survey_places(7, 19, 3, theta_elem=t_elem)) == oracles.survey_by_places(
            7, 19, 3, t_elem, fundamental_pell(133)
        )
    gens = [units[2], units[133] * at_41, units[21] + one_coord]
    for u0 in (octic.one(), th * Fraction(1, 89)):
        assert _affine(certify_affine(u0, gens)) == oracles.certify_affine_by_places(u0, gens)
    family = [th, units[133] * th * at_41, units[2] * th + one_coord]
    assert separate_candidates(family).to_json_dict() == oracles.separate_by_places(family)


def test_zero_residue_skips_the_same_places(ex1):
    octic, th, units = ex1
    # sqrt2 - 17 is 0 at the four places above 41 that send sqrt2 to 17
    zero_at_41 = octic.element([-17, 1, 0, 0, 0, 0, 0, 0])
    gens = [units[2], units[133], zero_at_41]
    assert _affine(certify_affine(th, gens)) == oracles.certify_affine_by_places(th, gens)
    family = [th, zero_at_41, units[133] * th]
    assert separate_candidates(family).to_json_dict() == oracles.separate_by_places(family)
    t_elem = th * zero_at_41
    assert _rows(survey_places(7, 19, 3, theta_elem=t_elem)) == oracles.survey_by_places(
        7, 19, 3, t_elem, fundamental_pell(133)
    )


def _same_error(run, reference):
    with pytest.raises(Exception) as got:
        run()
    with pytest.raises(Exception) as want:
        reference()
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    return got.value


def test_failures_match_the_per_place_scan(ex1):
    octic, th, units = ex1
    one, u133 = octic.one(), units[133]
    err = _same_error(
        lambda: certify_affine(th, [one]),
        lambda: oracles.certify_affine_by_places(th, [one]),
    )
    assert isinstance(err, RankDeficient)
    pair = [u133, u133 * 4]
    err = _same_error(
        lambda: certify_affine(th, pair),
        lambda: oracles.certify_affine_by_places(th, pair),
    )
    assert isinstance(err, SearchExhausted)
    same = [u133, u133 * 9]
    err = _same_error(
        lambda: separate_candidates(same),
        lambda: oracles.separate_by_places(same),
    )
    assert isinstance(err, Inseparable)
    apart = [one, u133, units[2]]
    err = _same_error(
        lambda: separate_candidates(apart, bound=40),
        lambda: oracles.separate_by_places(apart, bound=40),
    )
    assert isinstance(err, SearchExhausted)


def test_rank_deficiency_names_the_generator_the_per_place_scan_names(ex1):
    # the undetected generator comes after detected ones, some of which only
    # a later kept functional detects
    octic, th, units = ex1
    one, u2, u133 = octic.one(), units[2], units[133]
    for gens in ([u133, u2, one], [u2, one, u133], [u133, u2 * 4, u2, one]):
        err = _same_error(
            lambda: certify_affine(th, gens),
            lambda: oracles.certify_affine_by_places(th, gens),
        )
        assert isinstance(err, RankDeficient) and "generator 0" not in str(err)


def _count_calls(monkeypatch, fn, record):
    """Replace every binding of fn in the loaded unitcert modules by a wrapper
    that records its arguments."""

    def wrapper(*args):
        record.append(args)
        return fn(*args)

    for name, mod in list(sys.modules.items()):
        if name == "unitcert" or name.startswith("unitcert."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, wrapper)


def test_survey_proves_only_the_triple_prime_and_reduces_theta_once_per_prime(monkeypatch):
    primes, reductions = [], []
    _count_calls(monkeypatch, unitcert.arith.is_prime, primes)
    _count_calls(monkeypatch, unitcert.residual.reduce_mod, reductions)
    decisions = survey_places(7, 11, 43)
    assert primes and {n for (n,) in primes} == {7, 11, 43}
    # Theta's two factors, one reduction each per valid prime
    per_prime = Counter(t for x, t in reductions if isinstance(x, TowerElement))
    valid_ts = {d.place.t for d in decisions if d.valid}
    assert per_prime == Counter({t: 2 for t in valid_ts})
    # eps_pq depends on the root of pq alone: one reduction per scanned prime
    eps_ts = [t for x, t in reductions if isinstance(x, QuadUnit)]
    assert eps_ts == sorted({d.place.t for d in decisions})
    assert len(eps_ts) == unitcert.residual.PRIME_COUNT == 50


@pytest.mark.parametrize("triple", [*CORPUS[::200], oracles.LADDER_TRIPLES[2]])
def test_streamed_bits_by_euler_are_the_evaluated_jacobi_bits(triple):
    # two Legendre paths: the stream's Euler criterion on the eight residues
    # of one table, `evaluate`'s residue_at and jacobi at each place alone
    octic = OcticField(*triple)
    elements = [octic.from_rational(-1)] + [g.element for g in fsu(*triple)] + [theta(*triple)]
    streamed = ones = 0
    for functional, bits in unitcert.certify._iter_functionals(octic, elements, 100_000):
        assert bits == [functional.evaluate(x) for x in elements]
        streamed += 1
        ones += sum(bits)
    assert streamed > 8 * unitcert.certify.FUNCTIONAL_PRIMES * 3 // 4 and ones > streamed


def test_certify_reduces_each_element_once_per_prime_and_streams_only_t(monkeypatch):
    triple = (7, 11, 43)
    octic = OcticField(*triple)
    gens = [octic.from_rational(-1)] + [g.element for g in fsu(*triple)]
    reductions, hilbert, evaluated, streamed = [], [], [], []
    _count_calls(monkeypatch, unitcert.residual.reduce_mod, reductions)
    _count_calls(monkeypatch, unitcert.arith.hilbert_symbol, hilbert)
    monkeypatch.setattr(unitcert.certify.TestFunctional, "evaluate", lambda self, x: evaluated.append(x))
    stream = unitcert.certify._iter_functionals

    def recorded(*args):
        for functional, bits in stream(*args):
            streamed.append(functional)
            yield functional, bits

    monkeypatch.setattr(unitcert.certify, "_iter_functionals", recorded)
    cert = certify_affine(octic.one(), gens)
    assert len(cert.functionals) == 8
    assert streamed
    assert not hilbert and not evaluated
    by_element = Counter((id(x), t) for x, t in reductions)
    assert set(by_element.values()) == {1}
    ts = {f.place.t for f in streamed}
    assert {t for _, t in by_element} == ts
    assert len(by_element) == len(ts) * (len(gens) + 1)
    # separation reduces the n candidates alone, once per streamed prime: a
    # difference class's bit is the XOR of two candidate bits
    reductions.clear()
    streamed.clear()
    sep = separate_candidates(gens)
    assert len(set(sep.table)) == len(gens)
    assert not hilbert and not evaluated
    per_prime = Counter(t for _, t in reductions)
    assert set(per_prime) == {f.place.t for f in streamed}
    assert set(per_prime.values()) == {len(gens)}
    assert Counter(id(x) for x, _ in reductions) == Counter({id(g): len(per_prime) for g in gens})
