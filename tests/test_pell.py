import random
from math import isqrt

import pytest

import oracles
from unitcert import QuadUnit, fundamental_pell, is_squarefree, pell

PRINTED_UNITS = {
    133: (2588599, 224460, 1),
    266: (685, 42, 1),
    21: (55, 12, 1),
    42: (13, 2, 1),
    77: (351, 40, 1),
    154: (21295, 1716, 1),
    301: (5883392537695, 339113108232, 1),
    602: (687, 28, 1),
    413: (113399, 5580, 1),
    826: (222239304685, 7732694382, 1),
}


def test_printed_units_reproduce_exactly():
    for d, (x, y, norm) in PRINTED_UNITS.items():
        u = fundamental_pell(d)
        assert (u.x, u.y, u.norm) == (x, y, norm)


def test_smallest_negative_norm_case():
    assert oracles.pell_scan(2, 10) == (1, 1, -1)
    u = fundamental_pell(2)
    assert (u.x, u.y, u.norm) == (1, 1, -1)


def _primes_above(n, count):
    out = []
    while len(out) < count:
        n += 1
        if oracles.trial_division_is_prime(n):
            out.append(n)
    return out


def test_rejects_bad_d():
    # 30011^2 and 2*30011^2 have no prime factor below their cube root
    for d in (1, 0, -5, 12, 50, 30011 ** 2, 2 * 30011 ** 2):
        with pytest.raises(ValueError):
            fundamental_pell(d)


def test_is_squarefree():
    assert is_squarefree(1) and is_squarefree(2) and is_squarefree(105)
    assert not is_squarefree(12) and not is_squarefree(49) and not is_squarefree(0)


def test_is_squarefree_matches_trial_division_below_1e5():
    for n in range(-5, 10 ** 5):
        assert is_squarefree(n) == oracles.trial_division_is_squarefree(n), n


def test_is_squarefree_at_the_cube_root_boundary():
    # forms whose smallest prime factors sit just above n^(1/3), where trial
    # division stops and the cofactor alone must decide
    cases = [30011 ** 2, 2 * 30011 ** 2, 30011 * 30013, 30011 ** 2 * 30013]
    for base in (100, 1000, 30000):
        p, q = _primes_above(base, 2)
        cases += [p * p, 2 * p * p, p * q, p * p * q, p * q * q, p * p * p]
        r = _primes_above(round((p * p) ** (1 / 3)), 1)[0]
        # r is the first prime above (p^2)^(1/3): trial division removes r
        # and stops with the cofactor p^2 or p*q left to decide
        cases += [r * p * p, r * p * q]
    for n in cases:
        assert is_squarefree(n) == oracles.trial_division_is_squarefree(n), n
    assert not is_squarefree(30011 ** 2)
    assert is_squarefree(30011 * 30013)


def test_quadunit_validates():
    with pytest.raises(ValueError):
        QuadUnit(5, 2, 1, 1)
    with pytest.raises(ValueError):
        QuadUnit(5, -9, 4, 1)


def test_minimality_all_squarefree_d_to_150():
    for d in oracles.squarefree_numbers(150):
        u = fundamental_pell(d)
        oracles.assert_fundamental(d, u.x, u.y, u.norm)


def test_half_period_matches_full_period_below_5000():
    norms = set()
    for d in oracles.squarefree_numbers(4999):
        u = fundamental_pell(d)
        assert (u.x, u.y, u.norm) == oracles.pell_by_convergents(d), d
        norms.add(u.norm)
    assert norms == {1, -1}  # both period parities


def test_half_period_matches_full_period_at_random_d_below_1e8():
    rng = random.Random(20091)
    checked = 0
    while checked < 200:
        d = rng.randrange(2, 10 ** 8)
        if not oracles.trial_division_is_squarefree(d):
            continue
        u = fundamental_pell(d)
        assert (u.x, u.y, u.norm) == oracles.pell_by_convergents(d), d
        checked += 1


def test_half_period_matches_full_period_on_the_ladder_radicands():
    ds = {
        m
        for p, q, s in oracles.LADDER_TRIPLES
        for m in (2, p * q, 2 * p * q, p * s, 2 * p * s, q * s, 2 * q * s)
    }
    assert len(ds) == 25
    for d in ds:
        u = fundamental_pell(d)
        assert (u.x, u.y, u.norm) == oracles.pell_by_convergents(d), d


def test_negative_norm_units_found():
    # 61 and 109 famously have negative-norm fundamental solutions much
    # smaller than the x^2 - d y^2 = 1 ones
    u61 = fundamental_pell(61)
    assert (u61.x, u61.y, u61.norm) == (29718, 3805, -1)
    u109 = fundamental_pell(109)
    assert (u109.x, u109.y, u109.norm) == (8890182, 851525, -1)


def test_proper_power_oracle_detects_powers():
    # the oracle used for large-y minimality must flag squares and cubes
    def mul(a, b, d):
        return (a[0] * b[0] + a[1] * b[1] * d, a[0] * b[1] + a[1] * b[0])

    for d in (61, 139):
        u = fundamental_pell(d)
        sq = mul((u.x, u.y), (u.x, u.y), d)
        cu = mul(sq, (u.x, u.y), d)
        assert oracles.is_proper_power_unit(d, *sq)
        assert oracles.is_proper_power_unit(d, *cu)
        assert not oracles.is_proper_power_unit(d, u.x, u.y)


def _corpus_radicands():
    return sorted({
        m
        for p, q, s in oracles.in_pattern_triples(400)
        for m in (2, p * q, 2 * p * q, p * s, 2 * p * s, q * s, 2 * q * s)
    })


def test_half_units_of_every_even_period_corpus_radicand():
    # eps = (h + k*sqrt d)^2/Q with Q | 2d: the walk's stopping point rebuilds
    # x and y; only d = 2 has an odd period, and then no half unit is kept
    odd = []
    for d in _corpus_radicands():
        u = fundamental_pell(d)
        if u.norm == -1:
            assert u.half is None
            odd.append(d)
            continue
        h, k, Q = u.half
        assert h > 0 and k > 0 and (2 * d) % Q == 0 and Q % 4 != 0
        assert h * h - d * k * k in (Q, -Q)
        assert (h * h + d * k * k, 2 * h * k) == (Q * u.x, Q * u.y)
    assert odd == [2]


def test_a_unit_built_by_hand_has_no_half_unit():
    u = QuadUnit(21, 55, 12, 1)
    assert u.half is None and u == fundamental_pell(21)
    assert fundamental_pell(21).half == (9, 2, 3)  # (9 + 2*sqrt21)^2 = 3*(55 + 12*sqrt21)


def _half_period_quotients(d, cap):
    """The partial quotients a_0, ... that the walk multiplies in: the first
    (L + 1) // 2 of the period of length L, found by the full-period
    recurrence with its division; None when the period is longer than cap."""
    a0 = isqrt(d)
    P, Q, a = 0, 1, a0
    quotients = [a0]
    while len(quotients) <= cap:
        P = a * Q - P
        Q = (d - P * P) // Q
        a = (a0 + P) // Q
        if Q == 1:
            return quotients[:(len(quotients) + 1) // 2]
        quotients.append(a)
    return None


def _block_matrix(quotients):
    h, h_prev, k, k_prev = 1, 0, 0, 1
    for a in quotients:
        h, h_prev, k, k_prev = a * h + h_prev, h, a * k + k_prev, k
    return h, h_prev, k, k_prev


def test_walk_blocks_at_the_block_boundaries(monkeypatch):
    # for each half-period length around the block size and each norm, the
    # first squarefree d: the unit matches the full-period oracle, and the
    # tree gets one matrix per block of consecutive quotients, the last block
    # partial (the identity when it is empty)
    size = pell._BLOCK
    lengths = {1, 2, size - 1, size, size + 1, 2 * size}
    found = {}
    for d in oracles.squarefree_numbers(10 ** 4):
        quotients = _half_period_quotients(d, 4 * size + 2)
        if quotients is not None and len(quotients) in lengths:
            found.setdefault((len(quotients), oracles.pell_by_convergents(d)[2]), d)
    assert len(found) == 2 * len(lengths)  # both period parities at each length
    tree, handed = pell._tree, []
    monkeypatch.setattr(pell, "_tree", lambda blocks, column: handed.append(list(blocks)) or tree(blocks, column))
    for (n, norm), d in found.items():
        handed.clear()
        u = fundamental_pell(d)
        assert (u.x, u.y, u.norm) == oracles.pell_by_convergents(d), d
        blocks, quotients = handed[0], _half_period_quotients(d, 4 * size + 2)
        assert (len(blocks) - 1) * size <= n <= len(blocks) * size, d
        assert blocks == [_block_matrix(quotients[i:i + size]) for i in range(0, len(blocks) * size, size)], d


def test_a_wrong_half_unit_from_the_tree_is_refused(monkeypatch):
    # x and y are built from (h, k, Q) and the norm is proved there: an h off
    # by one fails h^2 - d*k^2 = +-Q, with one block and with many
    tree = pell._tree

    def off_by_one(blocks, column):
        product = tree(blocks, column)
        return (product[0] + 1, product[1]) if column else product

    monkeypatch.setattr(pell, "_tree", off_by_one)
    for d in (21, 30047 * 30011):
        with pytest.raises(ArithmeticError, match=r"h\^2 - d\*k\^2 = \+-Q"):
            fundamental_pell(d)
