import collections
import hashlib
import inspect
import itertools
import random
from fractions import Fraction

import oracles
import pytest
from test_scan import _count_calls

import unitcert
from unitcert import arith, pell, residual
from unitcert import (
    OcticField,
    PlaceDecision,
    SplitPlace,
    classical_datum,
    decide_mu_hilbert,
    delta,
    enumerate_places,
    fsu,
    fundamental_pell,
    iter_split_primes,
    jacobi,
    noncollapse_check,
    residue_at,
    survey_places,
    theta,
    theta_factors,
)
from unitcert.errors import (
    DenominatorNotInvertible,
    HypothesisViolation,
    InvalidPlace,
    OracleDisagreement,
    SearchExhausted,
    UnitCertError,
)


def test_classical_datum_values():
    assert classical_datum(7, 19, 3).as_tuple() == (7, 3, 3, -1, -1, 1)
    assert classical_datum(7, 3, 59).as_tuple() == (7, 3, 3, -1, -1, 1)
    assert classical_datum(7, 11, 43).as_tuple() == (7, 3, 3, 1, 1, 1)


def test_classical_datum_refuses_a_float_prime():
    # a datum would keep the float: p_mod8 = 7.0; the split-prime scan, which
    # takes the triple as validated, would fail in pow() without naming it
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        classical_datum(7.0, 19, 3)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        list(iter_split_primes(7.0, 19, 3, 100))


def test_classical_datum_rejects_bad_triples():
    with pytest.raises(ValueError):
        classical_datum(7, 9, 3)
    with pytest.raises(ValueError):
        classical_datum(7, 7, 3)
    with pytest.raises(ValueError):
        classical_datum(2, 3, 5)


def test_branch_is_the_pattern_check():
    assert classical_datum(7, 19, 3).branch() == (-1, -1, 1)
    assert classical_datum(7, 11, 43).branch() == (1, 1, 1)
    with pytest.raises(HypothesisViolation, match=r"need p = 7 and q = s = 3 mod 8, got \(5, 7, 3\)"):
        classical_datum(5, 7, 11).branch()  # wrong residues mod 8
    with pytest.raises(HypothesisViolation, match=r"Legendre pattern \(-1, 1, 1\) is outside"):
        classical_datum(7, 3, 11).branch()  # pattern (-1, 1, 1) is outside both branches


def test_branch_admits_exactly_the_in_pattern_triples_below_120():
    primes = oracles.odd_primes_by_trial_division(119)
    admitted = []
    for p in primes:
        for q, s in itertools.combinations(primes, 2):
            if p in (q, s):
                continue
            try:
                classical_datum(p, q, s).branch()
            except HypothesisViolation:
                continue
            admitted.append((p, q, s))
    assert admitted == oracles.in_pattern_triples(120)
    assert len(admitted) > 40


def test_first_split_primes():
    assert list(itertools.islice(iter_split_primes(7, 19, 3, 1000), 2)) == [41, 89]
    assert list(itertools.islice(iter_split_primes(7, 11, 43, 1000), 2)) == [23, 73]
    assert list(itertools.islice(iter_split_primes(7, 3, 59, 1000), 3)) == [47, 79, 89]


def test_enumerate_places_order_and_closure():
    places = enumerate_places(41, 7, 19, 3)
    assert len(places) == 8
    first = places[0]
    assert (first.r2, first.rpq, first.rps) == (17, 16, 12)
    assert first.signs == (1, 1, 1)
    # negating one root yields another listed place
    keys = {(p.r2, p.rpq, p.rps) for p in places}
    assert (41 - 17, 16, 12) in keys
    assert enumerate_places(79, 7, 3, 59)[0].signs == (1, 1, 1)
    assert (enumerate_places(79, 7, 3, 59)[0].r2,
            enumerate_places(79, 7, 3, 59)[0].rpq,
            enumerate_places(79, 7, 3, 59)[0].rps) == (9, 10, 27)
    assert (enumerate_places(23, 7, 11, 43)[0].r2,
            enumerate_places(23, 7, 11, 43)[0].rpq,
            enumerate_places(23, 7, 11, 43)[0].rps) == (5, 10, 5)


def test_enumerate_places_rejects_nonsplit_prime():
    with pytest.raises(ValueError):
        enumerate_places(43, 7, 19, 3)  # 2 is a nonresidue mod 43
    with pytest.raises(ValueError):
        enumerate_places(7, 7, 19, 3)  # divides pqs
    with pytest.raises(ValueError):
        enumerate_places(0, 7, 19, 3)  # no odd prime


@pytest.mark.parametrize("t, triple, refused", [
    (15, (7, 11, 43), 0),
    # 2047 = 23 * 89 is an Euler pseudoprime to base 2, so its root of 2 is taken
    (2047, (3, 5, 11), 1),
    (2047, (3, 13, 11), 2),  # and so is its root of pq = 39
], ids=["2", "pq", "ps"])
def test_split_prime_checks_each_root(t, triple, refused):
    # t is not proven prime: at an odd composite t = 3 (mod 4), Euler's
    # criterion refuses the radicand `refused` of 2, pq and ps, and the record
    # refuses t as not split; a root the criterion takes, the power
    # a^((t+1)/4), squares back to a
    p, q, s = triple
    values = (2, p * q, p * s)
    roots = arith._sqrt_mod_prime(values, t)
    assert roots[refused] is None
    assert [r * r % t for r in roots[:refused]] == list(values[:refused])
    with pytest.raises(ValueError, match=rf"^{t} does not split in the octic field for \({p}, {q}, {s}\)$"):
        enumerate_places(t, *triple)


def test_split_place_reads_its_roots_off_its_signs():
    prime = residual.SplitPrime(41, 7, 19, 3)
    assert (prime.residues[2], prime.residues[133], prime.residues[21]) == (17, 16, 12)
    place = SplitPlace(prime, (-1, 1, 1))
    assert (place.t, place.r2, place.rpq, place.rps) == (41, 41 - 17, 16, 12)
    place = SplitPlace(prime, (1, -1, -1))
    assert (place.r2, place.rpq, place.rps) == (17, 41 - 16, 41 - 12)
    assert SplitPlace(prime, (1, 1, 1)).residues is prime.residues
    for keyword in ({"roots": (17, 16, 12)}, {"residues": {}}):
        with pytest.raises(TypeError):
            residual.SplitPrime(41, 7, 19, 3, **keyword)


@pytest.mark.parametrize("signs", [(1, 1, 0), (2, 1, 1), (1, -1), (1, 1, 1, 1), [1, 1, 1], None])
def test_split_place_refuses_signs_outside_plus_minus_one(signs):
    prime = residual.SplitPrime(41, 7, 19, 3)
    with pytest.raises(ValueError, match="^signs must be a tuple of three of"):
        SplitPlace(prime, signs)


def test_every_enumerated_place_carries_its_own_signs():
    for t, triple in [(41, (7, 19, 3)), (79, (7, 3, 59)), (23, (7, 11, 43))]:
        places = enumerate_places(t, *triple)
        assert [p.signs for p in places] == list(itertools.product((1, -1), repeat=3))
        p, q, s = triple
        canonical = [unitcert.sqrt_mod(m, t) for m in (2, p * q, p * s)]
        for place in places:
            roots = (place.r2, place.rpq, place.rps)
            for r, c, sign in zip(roots, canonical, place.signs):
                assert r == (c if sign > 0 else t - c)


def test_enumerated_places_are_the_checked_places():
    # the eight views of one checked record: the signs, roots and residue
    # table of each are those of the place built from sqrt_mod's roots alone
    for triple in oracles.in_pattern_triples(400)[::50]:
        for t in iter_split_primes(*triple, 5000):
            places = enumerate_places(t, *triple)
            assert [(pl.t, pl.signs, pl.r2, pl.rpq, pl.rps, pl.residues) for pl in places] == [
                tuple(place) for place in oracles.places_by_sqrt_mod(t, *triple)], (triple, t)


def test_residue_at_worked_values():
    place = enumerate_places(41, 7, 19, 3)[0]
    assert residue_at(fundamental_pell(133), place) == 29
    f_pq, f_ps = theta_factors(7, 19, 3)
    assert residue_at(f_pq, place) == 18
    assert residue_at(f_ps, place) == 37
    th = theta(7, 19, 3)
    assert residue_at(th, place) == 18 * 37 % 41
    assert residue_at(th, place) == 10


def test_residue_at_is_multiplicative():
    place = enumerate_places(41, 7, 19, 3)[0]
    O = OcticField(7, 19, 3)
    a = O.element([1, 2, Fraction(1, 2), 0, 3, 0, 1, 0])
    b = O.element([0, 1, 1, 4, 0, Fraction(5, 2), 0, 2])
    assert residue_at(a * b, place) == residue_at(a, place) * residue_at(b, place) % 41


def test_residue_at_denominator_collision():
    place = enumerate_places(41, 7, 19, 3)[0]
    O = OcticField(7, 19, 3)
    bad = O.element([Fraction(1, 41), 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(DenominatorNotInvertible):
        residue_at(bad, place)


def test_reduce_mod_matches_the_per_coordinate_residue_at_every_place():
    """One inverse of the element's denominator per prime gives the residue
    of every coordinate inverted on its own, and DenominatorNotInvertible
    comes exactly when t divides some coordinate's denominator."""
    rng = random.Random(43)
    O = OcticField(7, 19, 3)
    primes = list(itertools.islice(iter_split_primes(7, 19, 3), 4))
    assert primes == [41, 89, 167, 257]
    dens = (1, 2, 3, 41, 2 * 41, 89, 3 * 89, 41 * 167)
    raised = 0
    for _ in range(60):
        x = O.element([
            Fraction(rng.randrange(-50, 51), rng.choice(dens)) if rng.random() < 0.7 else 0
            for _ in range(8)
        ])
        for t in primes:
            places = enumerate_places(t, 7, 19, 3)
            expected = [oracles.residue_by_place(x, place) for place in places]
            if any(c.denominator % t == 0 for c in x.coords):
                assert expected == [None] * 8
                with pytest.raises(DenominatorNotInvertible, match=f"denominator {x.den} "):
                    residual.reduce_mod(x, t)
                raised += 1
            else:
                assert [residue_at(x, place) for place in places] == expected
    assert raised >= 20
    assert residual.reduce_mod(Fraction(3, 2), 41) == ((1, 3 * 21 % 41),)
    assert residual.reduce_mod(0, 41) == () == residual.reduce_mod(O.zero(), 41)
    with pytest.raises(DenominatorNotInvertible):
        residual.reduce_mod(Fraction(1, 41), 41)


@pytest.mark.parametrize("triple", [(7, 11, 43), (7, 19, 3), (7, 3, 59), oracles.LADDER_TRIPLES[0]])
def test_residues_above_is_the_residue_at_each_of_the_eight_places(triple):
    """The prime's table, signed by the characters of the places, gives the
    residue `residue_at` reads at each place, over the first 50 split
    primes."""
    p, q, s = triple
    rng = random.Random(sum(triple))
    O = OcticField(*triple)
    elements = [
        O.element([
            Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.choice((1, 2, 3, 4, 15))) if rng.random() < 0.6 else 0
            for _ in range(8)
        ])
        for _ in range(5)
    ]
    elements += [fundamental_pell(p * q), Fraction(-22, 5), O.zero()]
    outside_units = {m: fundamental_pell(m) for m in (p, q, 2 * s)}
    primes = list(itertools.islice(iter_split_primes(*triple), 50))
    assert len(primes) == 50
    for t in primes:
        places = enumerate_places(t, *triple)
        first = places[0]
        reduced = [residual.reduce_mod(x, t) for x in elements]
        above = [residual._residues_above(v, first.prime) for v in reduced]
        assert above == [[residue_at(x, place) for place in places] for x in elements]
        for outside, unit in outside_units.items():
            for read in (lambda: residual._residues_above(((1, 1), (outside, 2)), first.prime),
                         lambda: residue_at(unit, places[5])):
                with pytest.raises(ValueError, match=rf"^sqrt\({outside}\) has no residue at this place$"):
                    read()
        # at signs sigma, sqrt(m) has chi_m(sigma) times its canonical residue
        for place in places:
            s2, spq, sps = place.signs
            chi = {m: (s2 if m % 2 == 0 else 1) * (spq if m % q == 0 else 1) * (sps if m % s == 0 else 1)
                   for m in O.radicands}
            assert place.residues == {m: chi[m] * first.residues[m] % t for m in O.radicands}


def test_delta_first_triple():
    cert = delta(7, 19, 3, with_fsu=False)
    assert cert.delta == 0 and cert.mu == "1"
    assert cert.place.t == 41 and cert.place.signs == (1, 1, 1)
    assert cert.theta_residue == 10 and cert.legendre_theta == 1
    assert cert.eps_pq_residue == 29 and cert.legendre_eps == -1
    assert cert.hypotheses_verified and not cert.oracle_checked


def test_delta_second_triple():
    cert = delta(7, 11, 43, with_fsu=False)
    assert cert.delta == 0 and cert.mu == "1"
    assert cert.place.t == 23
    assert cert.theta_residue == 1 and cert.eps_pq_residue == 15


def test_delta_third_triple_skips_invalid_split_prime():
    # 47 splits but eps_21 is a square at every place above it
    cert = delta(7, 3, 59, with_fsu=False)
    assert cert.place.t == 79
    assert cert.delta == 1 and cert.mu == "eps_pq"
    assert cert.theta_residue == 17 and cert.eps_pq_residue == 17
    assert cert.eps_pq_residue * cert.theta_residue % 79 == 52
    assert jacobi(52, 79) == 1


def test_delta_rejects_off_pattern_triple():
    with pytest.raises(HypothesisViolation):
        delta(5, 7, 11)


def test_delta_forced_off_pattern_engages_oracle():
    # outside the hypotheses the two-candidate dichotomy can fail outright;
    # the forced run must detect that through the exact oracle
    with pytest.raises(OracleDisagreement):
        delta(7, 3, 11, force=True)


# sha256 over the forced runs below, one line per triple: the triple and its
# outcome, then the error's message, or delta, t and the FSU's text
FORCED_RUNS_BELOW_80 = "44837c1306a984809d73602f246462b3146da49d2cebd03c4c6eb6ceda13f8dd"


def test_forced_runs_of_every_out_of_pattern_triple_below_80_are_pinned():
    # every ordered p and pair q < s of distinct odd primes below 80, outside
    # the pattern, as delta(force=True, oracle=True): an error that is no
    # UnitCertError, such as a factor of relative norm -1 reaching xi's
    # check, fails here
    primes = oracles.odd_primes_by_trial_division(79)
    inside = set(oracles.in_pattern_triples(80))
    triples = [(p, q, s) for p in primes for i, q in enumerate(primes) for s in primes[i + 1:]
               if p not in (q, s) and (p, q, s) not in inside]
    outcomes, digest = collections.Counter(), hashlib.sha256()
    for triple in triples:
        try:
            cert = delta(*triple, force=True, oracle=True)
        except UnitCertError as exc:
            outcome, line = type(exc).__name__, f"{triple} {type(exc).__name__} {exc}"
        else:
            fsu_text = ";".join(f"{g.name}={g.element.to_text() if g.element else None}" for g in cert.fsu)
            outcome, line = "decided", f"{triple} decided {cert.delta} {cert.place.t} {fsu_text}"
        outcomes[outcome] += 1
        digest.update(line.encode() + b"\n")
    assert outcomes == {"NotASquareInBiquad": 1918, "OracleDisagreement": 1648,
                        "SearchExhausted": 256, "decided": 148}
    assert digest.hexdigest() == FORCED_RUNS_BELOW_80


def test_delta_search_exhaustion():
    with pytest.raises(SearchExhausted):
        delta(3, 17, 23, force=True, with_fsu=False)


def test_delta_oracle_cross_check_passes():
    cert = delta(7, 19, 3, oracle=True, with_fsu=False)
    assert cert.oracle_checked


def test_place_invariance_and_local_dichotomy():
    for triple, expected in [((7, 19, 3), 0), ((7, 11, 43), 0), ((7, 3, 59), 1)]:
        decisions = survey_places(*triple)
        valid = [d for d in decisions if d.valid]
        assert len(valid) >= 3
        assert len({d.place.t for d in valid}) >= 2
        assert {d.delta for d in valid} == {expected}
        for d in valid:
            # exactly one of theta, eps_pq * theta is a residue at the place
            both = {d.legendre_theta, jacobi(d.eps_residue * d.theta_residue, d.place.t)}
            assert both == {1, -1}


def test_decide_mu_hilbert_agrees_with_delta():
    for triple in [(7, 19, 3), (7, 11, 43), (7, 3, 59)]:
        cert = delta(*triple, with_fsu=False)
        assert decide_mu_hilbert(*triple, cert.place) == cert.mu


def test_theta_is_not_multiplied_out_by_the_scan_the_survey_or_the_hilbert_path(monkeypatch):
    # Theta's residue at a place is its factors' residues multiplied mod t,
    # so none of these forms the octic product f1*f2; `theta` does, once
    products = []
    _count_calls(monkeypatch, unitcert.fields._mul, products)
    cert = delta(7, 3, 59, with_fsu=False)
    for run, octic_products in (
        (lambda: theta(7, 3, 59), 1),
        (lambda: delta(7, 3, 59, with_fsu=False), 0),
        (lambda: survey_places(7, 3, 59), 0),
        (lambda: decide_mu_hilbert(7, 3, 59, cert.place), 0),
    ):
        products.clear()
        run()
        assert sum(len(a) == 8 for a, _, _ in products) == octic_products


def test_delta_builds_no_basis_table():
    # the tables are built on their first read, and delta reads none: xi,
    # the oracle and the FSU run on Z[sqrt2] pairs and residues
    cert = delta(7, 19, 3, oracle=True)
    towers = [cert.fsu[6].element.tower, *(f.tower for f in cert.theta_factors)]
    assert [t.degree for t in towers] == [8, 4, 4]
    assert all("_table" not in vars(t) for t in towers)
    assert towers[0]._table[1][1] == 2 and "_table" in vars(towers[0])


def test_decide_mu_hilbert_rejects_invalid_place():
    # at t = 47 every place has eps_21 a local square for (7, 3, 59)
    place = enumerate_places(47, 7, 3, 59)[0]
    with pytest.raises(InvalidPlace):
        decide_mu_hilbert(7, 3, 59, place)


def test_fsu_structure_and_exact_squares():
    gens = fsu(7, 19, 3)
    names = [g.name for g in gens]
    assert names == [
        "eps_2", "eps_pq", "sqrt(eps_pq*eps_ps)", "sqrt(eps_pq*eps_qs)",
        "sqrt(eps_2qs)", "sqrt(eps_pq*eps_2pq)", "xi",
    ]
    assert all(g.exact for g in gens)
    by_name = {g.name: g for g in gens}
    O = gens[0].element.tower
    e = {d: O.from_quad_unit(fundamental_pell(d)) for d in (2, 133, 266, 21, 57, 114)}
    assert by_name["eps_2"].element == e[2]
    assert by_name["eps_pq"].element == e[133]
    sq = by_name["sqrt(eps_pq*eps_ps)"].element
    assert sq * sq == e[133] * e[21]
    sq = by_name["sqrt(eps_pq*eps_qs)"].element
    assert sq * sq == e[133] * e[57]
    sq = by_name["sqrt(eps_2qs)"].element
    assert sq * sq == e[114]
    sq = by_name["sqrt(eps_pq*eps_2pq)"].element
    assert sq * sq == e[133] * e[266]
    # same element as the first normalized factor of theta, lifted
    assert sq == O.lift(theta_factors(7, 19, 3)[0])
    xi = by_name["xi"]
    assert xi.mu == "1"
    assert xi.element * xi.element == theta(7, 19, 3)


def test_fsu_second_triple_all_exact():
    gens = fsu(7, 11, 43)
    assert all(g.exact for g in gens)
    by_name = {g.name: g for g in gens}
    O = gens[0].element.tower
    g = by_name["sqrt(eps_pq*eps_qs)"].element
    assert g * g == (O.from_quad_unit(fundamental_pell(77))
                     * O.from_quad_unit(fundamental_pell(473)))
    xi = by_name["xi"]
    assert xi.mu == "1"
    assert xi.element * xi.element == theta(7, 11, 43)


def test_fsu_third_triple_xi_squares_to_eps_theta():
    gens = fsu(7, 3, 59)
    xi = next(g for g in gens if g.name == "xi")
    assert xi.mu == "eps_pq"
    O = xi.element.tower
    e21 = O.from_quad_unit(fundamental_pell(21))
    assert xi.element * xi.element == e21 * theta(7, 3, 59)


def test_fsu_and_noncollapse_check_take_no_keyword_bag(monkeypatch):
    assert fsu(7, 19, 3) == delta(7, 19, 3).fsu
    with pytest.raises(TypeError):
        fsu(7, 19, 3, oracle=True)
    with pytest.raises(TypeError):
        noncollapse_check((7, 19, 3), (7, 3, 59), prime_bound=30)
    monkeypatch.setattr(residual, "PRIME_COUNT", 0)
    with pytest.raises(SearchExhausted):
        noncollapse_check((7, 19, 3), (7, 3, 59))


def test_noncollapse_pairs():
    ok, report = noncollapse_check((7, 19, 3), (7, 3, 59))
    assert ok
    assert report["datum_equal"] and report["delta_differs"]
    assert not noncollapse_check((7, 19, 3), (7, 19, 3))[0]
    assert not noncollapse_check((7, 19, 3), (7, 11, 43))[0]
    # opposite bits under different data are no collapse either
    ok, report = noncollapse_check((7, 11, 43), (7, 3, 59))
    assert not ok and not report["datum_equal"] and report["delta_differs"]


def test_certificate_json_shape():
    cert = delta(7, 19, 3)
    doc = cert.to_json_dict()
    assert list(doc) == [
        "triple", "datum", "eps_convention", "hypotheses_verified", "place",
        "theta_residue", "eps_pq_residue", "legendre_theta", "legendre_eps",
        "delta", "mu", "fsu", "oracle_checked",
    ]
    assert doc["triple"] == {"p": "7", "q": "19", "s": "3"}
    assert doc["place"]["t"] == "41"
    assert doc["place"]["r2pq"] == str(17 * 16 % 41)
    assert doc["delta"] == 0 and doc["mu"] == "1"
    assert len(doc["fsu"]) == 7
    assert doc["fsu"][6]["name"] == "xi" and doc["fsu"][6]["mu"] == "1"


def test_certificate_derives_delta_and_mu_from_the_legendre_bit():
    cert = delta(7, 19, 3, with_fsu=False)
    # the constructor's arguments, read back off the certificate
    args = {name: getattr(cert, name) for name in inspect.signature(residual.Certificate).parameters}
    for name, value in (("delta", 0), ("mu", "1"), ("legendre_eps", -1),
                        ("eps_convention", residual.EPS_CONVENTION)):
        assert getattr(cert, name) == value
        with pytest.raises(TypeError):
            residual.Certificate(**args, **{name: value})
    flipped = residual.Certificate(**args | {"legendre_theta": -1})
    assert (flipped.delta, flipped.mu) == (1, "eps_pq")
    doc = flipped.to_json_dict()
    assert (doc["legendre_theta"], doc["delta"], doc["mu"]) == (-1, 1, "eps_pq")
    assert list(doc) == list(cert.to_json_dict())


def test_place_decision_reads_delta_off_the_legendre_bit():
    decisions = survey_places(7, 19, 3)
    assert {d.valid for d in decisions} == {True, False}
    for d in decisions:
        expected = (0 if d.legendre_theta == 1 else 1) if d.valid else None
        assert d.delta == d.to_json_dict()["delta"] == expected
    with pytest.raises(TypeError):
        PlaceDecision(decisions[0].place, 1, False, delta=None)


def test_delta_decides_at_size_1e4():
    # Pell units of about 19k bits; the interval reconstruction of square
    # roots gave up here at its precision cap
    cert = delta(10007, 10067, 10091, oracle=True)
    assert (cert.delta, cert.place.t, cert.oracle_checked) == (0, 17, True)
    assert all(g.exact for g in cert.fsu)


def _count_pell_walks(monkeypatch) -> list[int]:
    walked = []
    walk = pell._half_period
    monkeypatch.setattr(pell, "_half_period", lambda d: walked.append(d) or walk(d))
    return walked


def test_delta_walks_each_pell_continued_fraction_once_per_call(monkeypatch):
    # six radicands, each walked once; eps_2 = 1 + sqrt2 is a constant, never walked
    p, q, s = 1031, 1019, 1171
    walked = _count_pell_walks(monkeypatch)
    six = sorted([p * q, 2 * p * q, p * s, 2 * p * s, q * s, 2 * q * s])
    delta(p, q, s, oracle=True)
    assert sorted(walked) == six and 2 not in walked
    # the dedup is per call, not a process-wide memo
    delta(p, q, s, oracle=True)
    assert sorted(walked) == sorted(six * 2)


def test_the_eps_2_constant_is_the_walked_unit_of_z_sqrt2():
    # the FSU's eps_2 is a constant, not a walk: it must be fundamental_pell(2)
    # with its norm, and its generator the unit's element in the octic field
    assert residual._EPS_2 == fundamental_pell(2) and residual._EPS_2.as_tuple() == (2, 1, 1, -1)
    octic = OcticField(7, 19, 3)
    assert delta(7, 19, 3).fsu[0] == residual.Generator("eps_2", octic.from_quad_unit(fundamental_pell(2)))


def test_survey_and_hilbert_walk_each_pell_continued_fraction_once(monkeypatch):
    p, q, s = 7, 11, 43
    place = delta(p, q, s, with_fsu=False).place
    walked = _count_pell_walks(monkeypatch)
    theta_units = sorted({p * q, 2 * p * q, p * s, 2 * p * s})
    survey_places(p, q, s)
    assert sorted(walked) == theta_units
    walked.clear()
    decide_mu_hilbert(p, q, s, place)
    assert sorted(walked) == theta_units


def test_delta_calls_fundamental_pell_once_per_walk(monkeypatch):
    # no call is a memo hit: the six walked units are asked for once each,
    # eps_2 never, and the squarefree test runs once for each of them; the
    # generators of the octic field and of Theta's factor towers
    # Q(sqrt2, sqrt pq) and Q(sqrt2, sqrt ps) follow from the octic field's
    # one proof of the triple
    units, squarefree = [], []
    _count_calls(monkeypatch, unitcert.pell.fundamental_pell, units)
    _count_calls(monkeypatch, unitcert.pell.is_squarefree, squarefree)
    p, q, s = 7, 19, 3
    delta(p, q, s, oracle=True)
    assert sorted(d for (d,) in units) == sorted([p * q, 2 * p * q, p * s, 2 * p * s, q * s, 2 * q * s])
    assert len(squarefree) == 6


@pytest.mark.parametrize("triple, invalid", [((7, 19, 3), []), ((7, 3, 59), [47])])
def test_delta_builds_one_split_prime_at_the_certificates_t(monkeypatch, triple, invalid):
    # validity is (Q/t), decided before a prime's record is built, so a
    # split prime scanned before the first valid one builds no record
    built = []
    _count_calls(monkeypatch, residual.SplitPrime, built)
    cert = delta(*triple, oracle=True)
    assert [t for t, *_ in built] == [cert.place.t]
    assert list(itertools.islice(iter_split_primes(*triple), len(invalid) + 1)) == [*invalid, cert.place.t]


def test_delta_runs_no_descent_with_the_oracle_or_the_fsu(monkeypatch):
    roots, closed = [], []
    _count_calls(monkeypatch, unitcert.fields.sqrt_exact, roots)
    # xi's one closed form
    _count_calls(monkeypatch, unitcert.fields._sqrt_mu_product, closed)
    for triple, options, xis in [
        ((7, 19, 3), {"oracle": True}, 1),
        ((1031, 1019, 1171), {}, 1),
        ((7, 19, 3), {"with_fsu": False}, 0),
    ]:
        roots.clear()
        closed.clear()
        cert = delta(*triple, **options)
        assert roots == [] and len(closed) == xis
        if cert.fsu:
            # xi comes from the closed form, and its square is mu*Theta
            octic = OcticField(*triple)
            mu = octic.from_quad_unit(fundamental_pell(triple[0] * triple[1])) if cert.delta else 1
            assert cert.fsu[6].element * cert.fsu[6].element == theta(*triple) * mu


def test_delta_roots_five_unit_products_with_the_fsu(monkeypatch):
    """Theta's two factors and three FSU roots; sqrt(eps_pq*eps_2pq) is
    Theta's first factor, lifted, and is not rooted a second time."""
    direct = unitcert.fields.sqrt_unit_product
    roots = []
    _count_calls(monkeypatch, direct, roots)
    for triple, options, count in [
        ((7, 19, 3), {}, 5),
        ((1031, 1019, 1171), {"oracle": True}, 5),
        ((7, 19, 3), {"with_fsu": False}, 2),
    ]:
        roots.clear()
        cert = delta(*triple, **options)
        assert len(roots) == count
        if cert.fsu:
            p, q, _ = triple
            octic = OcticField(*triple)
            units = [fundamental_pell(p * q), fundamental_pell(2 * p * q)]
            assert cert.fsu[5].name == "sqrt(eps_pq*eps_2pq)"
            assert cert.fsu[5].element == direct(octic, units)


def test_generator_exact_and_warning_follow_the_element():
    root = OcticField(7, 19, 3).one()
    found, missing = residual.Generator("g", root), residual.Generator("xi", None, "eps_pq")
    assert (found.exact, found.warning) == (True, None)
    assert missing.exact is False and "not a square" in missing.warning
    assert list(found.to_json_dict()) == ["name", "element", "exact"]
    assert list(missing.to_json_dict()) == ["name", "element", "exact", "mu", "warning"]
    with pytest.raises(TypeError):
        residual.Generator("g", None, exact=True)


def test_delta_validates_the_triple_once(monkeypatch):
    proofs = []
    _count_calls(monkeypatch, unitcert.arith.is_prime, proofs)
    for options in ({}, {"oracle": True}, {"with_fsu": False}):
        proofs.clear()
        delta(7, 19, 3, **options)
        assert sorted(n for (n,) in proofs) == [3, 7, 19]
    with pytest.raises(ValueError, match="must be distinct odd primes"):
        delta(7, 9, 3)


def test_oracle_rejects_a_flipped_bit(monkeypatch):
    decide = residual._place_decisions

    def flipped(*args):
        return [PlaceDecision(d.place, d.eps_residue, d.valid, d.theta_residue, -d.legendre_theta)
                if d.valid else d for d in decide(*args)]

    monkeypatch.setattr(residual, "_place_decisions", flipped)
    assert delta(7, 19, 3, with_fsu=False).delta == 1  # the scan alone is trusted
    with pytest.raises(OracleDisagreement, match=r"mu\*Theta has no exact root"):
        delta(7, 19, 3, oracle=True)


def test_oracle_rejects_a_place_where_eps_pq_is_a_local_square(monkeypatch):
    # every place above 47 has eps_21 a local square for (7, 3, 59); the true
    # bit is 1, so xi exists and only the local proof can fail
    place = enumerate_places(47, 7, 3, 59)[0]
    r_eps = residue_at(fundamental_pell(21), place)
    assert jacobi(r_eps, 47) == 1
    r_theta = residue_at(theta(7, 3, 59), place)
    forged = PlaceDecision(place, r_eps, True, r_theta, -1)
    monkeypatch.setattr(residual, "_place_decisions", lambda *args: [forged])
    assert delta(7, 3, 59, with_fsu=False).place.t == 47  # the scan alone is trusted
    with pytest.raises(OracleDisagreement, match="not a nonresidue at the place above t = 47"):
        delta(7, 3, 59, oracle=True, with_fsu=False)


def test_reduce_mod_refuses_a_value_that_is_no_unit_element_or_rational():
    with pytest.raises(TypeError) as refused:
        residual.reduce_mod("1", 41)
    assert str(refused.value) == "cannot reduce str at a place"
