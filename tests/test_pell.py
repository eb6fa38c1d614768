import hashlib
import random
from math import isqrt

import pytest

import oracles
from unitcert import QuadUnit, SearchExhausted, fundamental_pell, is_squarefree, pell

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


def test_is_squarefree_decides_below_1e18_and_refuses_past_its_trial_bound():
    assert is_squarefree(10 ** 18 - 11)  # the largest prime below 10^18
    assert not is_squarefree(1000003 ** 2)  # a prime square past the bound, decided by the cofactor
    big = 99999999999999999999999999999999999999991
    with pytest.raises(ValueError, match=rf"^cannot decide whether {big} is squarefree: trial division "
                                         r"stops at 1000000, which decides every n below 10\^18$"):
        is_squarefree(big)
    assert not is_squarefree(9 * big)  # a square factor below the bound still decides


def test_the_walk_stops_at_its_bound_a_block_at_a_time(monkeypatch):
    # the bound is read once per block of _BLOCK = 128 partial quotients:
    # sqrt(48799), the first d whose walk needs three blocks, closes its half
    # period at quotient 272, in the third block, so a bound of three blocks
    # decides it and a bound of two stops it, naming d and the quotients walked
    assert pell._BLOCK == 128 and len(_complete_quotients(48799, 10 ** 4)) - 1 == 272
    unit = fundamental_pell(48799)
    monkeypatch.setattr(pell, "_WALK_BOUND", 3 * pell._BLOCK)
    assert fundamental_pell(48799) == unit
    monkeypatch.setattr(pell, "_WALK_BOUND", 2 * pell._BLOCK)
    with pytest.raises(SearchExhausted, match=r"^the continued fraction of sqrt\(48799\) did not close its "
                                              r"half period in 256 partial quotients, the walk's bound$"):
        fundamental_pell(48799)


def test_quadunit_validates():
    with pytest.raises(ValueError):
        QuadUnit(5, 2, 1, 1, None)
    with pytest.raises(ValueError):
        QuadUnit(5, -9, 4, 1, None)


@pytest.mark.parametrize("x, y, norm",
                         [(-9, 4, 1), (9, -4, 1), (-9, -4, 1), (1, 0, 1), (-2, 1, -1), (2, -1, -1)])
def test_quadunit_refuses_a_unit_that_is_not_positive(x, y, norm):
    # each is a unit of Z[sqrt5] of the given norm, but not the one > 1
    assert x * x - 5 * y * y == norm
    with pytest.raises(ValueError, match="^expected the positive fundamental solution$"):
        QuadUnit(5, x, y, norm, None)


def test_quadunit_proves_its_half_unit():
    assert QuadUnit(21, 55, 12, 1, (9, 2, 3)) == fundamental_pell(21)
    # (3 + sqrt2)^2 = 11 + 6*sqrt2 meets every conjunct but h^2 - d*k^2 = +-Q,
    # and 11^2 - 2*6^2 = 49; eps_21's true half with a wrong y fails 2hk = Q*y
    for unit in ((2, 11, 6, 1, (3, 1, 1)), (21, 55, 13, 1, (9, 2, 3))):
        with pytest.raises(ArithmeticError, match=r"does not square back.*h\^2 - d\*k\^2 = \+-Q"):
            QuadUnit(*unit)


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


def test_every_unit_and_half_unit_below_30000_is_pinned():
    # sha256 of one line "d x y norm half" per squarefree d in [2, 30000),
    # 3476 of them of norm -1, taken from a walk that multiplied 2x2 matrices
    # of convergents: every unit and half unit stays the same
    squarefree = [True] * 30000
    for p in range(2, isqrt(30000) + 1):
        squarefree[p * p::p * p] = [False] * len(squarefree[p * p::p * p])
    digest, negative = hashlib.sha256(), 0
    for d in range(2, 30000):
        if squarefree[d]:
            u = fundamental_pell(d)
            negative += u.norm == -1
            digest.update(f"{d} {u.x} {u.y} {u.norm} {u.half}\n".encode())
    assert negative == 3476
    assert digest.hexdigest() == "8215ed43f1f50078b518d627a47d97e37affdaa1a02c847f616c222139bc6f57"


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
    u = QuadUnit(21, 55, 12, 1, None)
    assert u.half is None and u == fundamental_pell(21)
    assert fundamental_pell(21).half == (9, 2, 3)  # (9 + 2*sqrt21)^2 = 3*(55 + 12*sqrt21)


def _complete_quotients(d, cap):
    """(P_i, Q_i, a_i) of the complete quotients (sqrt(d) + P_i)/Q_i for
    i = 0, ..., L // 2, L the period length, found by the full-period
    recurrence with its division; None when L is longer than cap. The walk
    multiplies in a_0, ..., a_(L//2 - 1) and closes at P_(L//2), Q_(L//2)."""
    a0 = isqrt(d)
    P, Q, a = 0, 1, a0
    out = [(P, Q, a)]
    while len(out) <= cap:
        P = a * Q - P
        Q = (d - P * P) // Q
        a = (a0 + P) // Q
        if Q == 1:
            return out[:len(out) // 2 + 1]
        out.append((P, Q, a))
    return None


def _leaves(quotients, size):
    """The leaves (k*P_v + k_prev*Q_v, k, Q_u) of the spans of at most size
    quotients from u to v, k and k_prev the bottom continuants of a_u, ...,
    a_(v-1); the last span partial, and empty when size divides their number."""
    n, leaves = len(quotients) - 1, []
    for u in range(0, n + 1, size):
        v, k, k_prev = min(u + size, n), 0, 1
        for _, _, a in quotients[u:v]:
            k, k_prev = a * k + k_prev, k
        P_v, Q_v, _ = quotients[v]
        leaves.append((k * P_v + k_prev * Q_v, k, quotients[u][1]))
    return leaves


def _leaves_handed_to_the_tree(monkeypatch):
    """A list that holds, after each walk, the leaves of its outermost _tree
    call first."""
    tree, handed = pell._tree, []
    monkeypatch.setattr(pell, "_tree", lambda leaves, d: handed.append(list(leaves)) or tree(leaves, d))
    return handed


def test_walk_blocks_at_the_block_boundaries(monkeypatch):
    # for each number of walked quotients around the block size and each
    # norm, the first squarefree d: the unit matches the full-period oracle,
    # and the tree gets one leaf per block of consecutive quotients, the last
    # one partial (the empty span, (Q_v, 0, Q_v), when the block size divides
    # the number of quotients)
    size = pell._BLOCK
    lengths = {1, 2, size - 1, size, size + 1, 2 * size}
    found = {}
    for d in oracles.squarefree_numbers(10 ** 5):  # the last of the twelve is 78121 at _BLOCK = 128
        quotients = _complete_quotients(d, 4 * size + 2)
        if quotients is not None and len(quotients) - 1 in lengths:
            found.setdefault((len(quotients) - 1, oracles.pell_by_convergents(d)[2]), d)
            if len(found) == 2 * len(lengths):
                break
    assert len(found) == 2 * len(lengths)  # both period parities at each length
    handed = _leaves_handed_to_the_tree(monkeypatch)
    for d in found.values():
        handed.clear()
        u = fundamental_pell(d)
        assert (u.x, u.y, u.norm) == oracles.pell_by_convergents(d), d
        assert handed[0] == _leaves(_complete_quotients(d, 4 * size + 2), size), d


def test_every_leaf_is_a_quotient_of_relative_generators(monkeypatch):
    # Q_u*theta_v = theta_u*(A + B*sqrt(d)) for the leaf (A, B, Q_u) of the
    # span from u to v, theta_n = h_(n-1) + k_(n-1)*sqrt(d) from the oracle's
    # convergents; short periods and long ones of many leaves, the longest
    # that of pq at the ladder's top rung, 28 leaves of _BLOCK = 128
    size = pell._BLOCK
    rng = random.Random(1972)
    ds = oracles.squarefree_numbers(1000) + [d for d in (rng.randrange(10 ** 6, 10 ** 7) for _ in range(30))
                                            if oracles.trial_division_is_squarefree(d)] + [30047 * 30011]
    handed = _leaves_handed_to_the_tree(monkeypatch)
    most = 0
    for d in ds:
        handed.clear()
        fundamental_pell(d)
        quotients = _complete_quotients(d, 10 ** 6)
        n = len(quotients) - 1
        theta = oracles.relative_generators(d, n)
        assert len(handed[0]) == n // size + 1, d
        for j, (A, B, Q_u) in enumerate(handed[0]):
            u, v = j * size, min(j * size + size, n)
            (hu, ku), (hv, kv) = theta[u], theta[v]
            assert Q_u == quotients[u][1], d
            assert (Q_u * hv, Q_u * kv) == (hu * A + d * ku * B, hu * B + ku * A), (d, j)
        most = max(most, len(handed[0]))
    assert most > 20


def test_a_tree_node_divides_by_the_inner_denominator():
    # sqrt(7) = [2; 1, 1, 1, 4]: theta_1 = 2 + sqrt(7) over Q_0 = 1 and
    # theta_2/theta_1 = (1 + sqrt(7))/Q_1, Q_1 = 3, multiply to theta_2 =
    # 3 + sqrt(7); a numerator that Q_1 does not divide is refused
    assert pell._tree([(2, 1, 1), (1, 1, 3)], 7) == (3, 1, 1)
    with pytest.raises(ArithmeticError, match="remainder mod Q_w"):
        pell._tree([(2, 1, 1), (2, 1, 3)], 7)


def test_a_wrong_half_unit_from_the_tree_is_refused(monkeypatch):
    # x and y are built from (h, k, Q) and the norm is proved there: an h off
    # by one at the root of the tree fails h^2 - d*k^2 = +-Q, with one leaf
    # and with many
    tree, calls = pell._tree, []

    def off_by_one(leaves, d):
        calls.append(len(leaves))
        top = len(calls) == 1
        A, B, Q = tree(leaves, d)
        return (A + 1, B, Q) if top else (A, B, Q)

    monkeypatch.setattr(pell, "_tree", off_by_one)
    for d, leaves in ((21, 1), (30047 * 30011, 28)):
        calls.clear()
        with pytest.raises(ArithmeticError, match=r"h\^2 - d\*k\^2 = \+-Q"):
            fundamental_pell(d)
        assert calls[0] == leaves, d


def test_quadunit_str_is_the_unit_and_its_norm():
    assert str(fundamental_pell(133)) == "2588599 + 224460*sqrt(133)  (norm +1)"
