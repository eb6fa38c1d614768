import random
from fractions import Fraction
from math import gcd

import pytest

import oracles
from unitcert import arith, hilbert_symbol, is_prime, jacobi, sqrt_mod


def test_jacobi_fixed_values():
    assert jacobi(10, 41) == 1
    assert jacobi(29, 41) == -1
    assert jacobi(17, 79) == -1
    assert jacobi(1, 15) == 1
    assert jacobi(15, 23) == -1
    assert jacobi(52, 79) == 1
    assert jacobi(6, 15) == 0  # shared factor


def test_jacobi_rejects_even_or_nonpositive_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 10)
    with pytest.raises(ValueError):
        jacobi(3, 0)
    with pytest.raises(ValueError):
        jacobi(3, -7)


def test_jacobi_matches_euler_criterion_on_primes():
    for t in (3, 5, 7, 11, 13, 41, 79, 101):
        for a in range(1, t):
            e = pow(a, (t - 1) // 2, t)
            assert jacobi(a, t) == (1 if e == 1 else -1)


def test_jacobi_multiplicative_in_both_arguments():
    rng = random.Random(7)
    for _ in range(300):
        a = rng.randrange(-80, 80)
        b = rng.randrange(-80, 80)
        n = rng.randrange(1, 120) * 2 + 1
        m = rng.randrange(1, 120) * 2 + 1
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)
        assert jacobi(a, n * m) == jacobi(a, n) * jacobi(a, m)
        if gcd(a, n) == 1:
            assert jacobi(a * a, n) == 1


def test_sqrt_mod_fixed_roots():
    assert sqrt_mod(2, 41) == 17
    assert sqrt_mod(133, 41) == 16
    assert sqrt_mod(21, 41) == 12
    assert sqrt_mod(2, 23) == 5
    assert sqrt_mod(77, 23) == 10
    assert sqrt_mod(301, 23) == 5
    assert sqrt_mod(2, 79) == 9
    assert sqrt_mod(21, 79) == 10
    assert sqrt_mod(413, 79) == 27
    assert sqrt_mod(0, 7) == 0
    assert sqrt_mod(3, 7) is None


def test_sqrt_mod_roundtrip_canonical():
    rng = random.Random(1)
    primes = [t for t in range(3, 3000, 2) if oracles.trial_division_is_prime(t)]
    done = 0
    while done < 1000:
        t = rng.choice(primes)
        a = rng.randrange(1, t)
        if jacobi(a, t) != 1:
            continue
        r = sqrt_mod(a, t)
        assert r * r % t == a
        assert r <= (t - 1) // 2
        done += 1


def test_sqrt_mod_rejects_composite_or_even():
    with pytest.raises(ValueError):
        sqrt_mod(3, 15)
    with pytest.raises(ValueError):
        sqrt_mod(3, 2)
    with pytest.raises(ValueError):
        sqrt_mod(1, 4)


def test_sqrt_mod_prime_roots_square_back_at_any_odd_t():
    # t is not proven prime there: at a composite t it may refuse or find no
    # root, but a root it returns squares back
    for t in range(3, 400, 2):
        for a in range(t):
            try:
                (r,) = arith._sqrt_mod_prime((a,), t)
            except ValueError:
                continue
            assert r is None or r * r % t == a, (t, a, r)


def test_is_prime_small_against_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == oracles.trial_division_is_prime(n)


def test_is_prime_fixed_values():
    assert is_prime(41)
    assert not is_prime(1)
    # around 41^2, where trial division by the primes up to 37 stops deciding
    assert is_prime(1669)
    assert not any(map(is_prime, (1681, 1763, 1849)))  # 41^2, 41 * 43, 43^2
    # 2588599 = 13 * 199123, found by the trial-division oracle
    assert oracles.trial_division_is_prime(2588599) is False
    assert not is_prime(2588599)


def test_is_prime_below_41_squared_runs_no_miller_rabin(monkeypatch):
    calls = []
    real = arith._miller_rabin
    monkeypatch.setattr(arith, "_miller_rabin", lambda n, b: calls.append(n) or real(n, b))
    for n in range(41 * 41):
        is_prime(n)
    assert calls == []
    assert not is_prime(41 * 41) and calls == [41 * 41]  # base 2 already witnesses it


def test_is_prime_beyond_64_bits():
    assert is_prime(2 ** 89 - 1)  # Mersenne prime
    assert not is_prime((2 ** 61 - 1) * (2 ** 31 - 1))


@pytest.mark.parametrize("function, args", [
    (is_prime, (7.5,)), (is_prime, (7.0,)), (jacobi, (3, 7.5)), (jacobi, (3.5, 7)), (sqrt_mod, (2.0, 7)),
], ids=["is_prime-7.5", "is_prime-7.0", "jacobi-n-7.5", "jacobi-a-3.5", "sqrt_mod-a-2.0"])
def test_integer_arguments_refuse_a_float(function, args):
    # a float would pass through `%` and `<` as if it were an integer:
    # is_prime(7.5) would read True and jacobi(3, 7.5) 0, and pow() in
    # sqrt_mod(2.0, 7) would refuse the float without naming it
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        function(*args)


def test_integer_arguments_take_ints_and_bools():
    assert (is_prime(7), is_prime(True), is_prime(False)) == (True, False, False)
    assert (jacobi(3, 7), jacobi(True, 7), jacobi(False, 7), jacobi(3, True)) == (-1, 1, 0, 1)


@pytest.mark.parametrize("a, b", [(0.1, 3), (3, 0.5)])
def test_hilbert_refuses_a_float(a, b):
    # 0.1 would be read as its binary value 3602879701896397/2^55
    with pytest.raises(TypeError) as refused:
        hilbert_symbol(a, b, 5)
    assert str(refused.value) == f"Hilbert symbol arguments must be exact rationals, got {a!r} and {b!r}"


def test_hilbert_takes_ints_bools_fractions_and_fraction_strings():
    assert [hilbert_symbol(a, 3, 5) for a in (Fraction(1, 10), "1/10", 10, True)] == [-1, -1, -1, 1]
    assert hilbert_symbol("3/4", 7, 7) == hilbert_symbol(3, 7, 7) == -1


def test_hilbert_trivial_cases():
    for p in (2, 3, 41, "real"):
        for b in (Fraction(5, 7), -3, 2):
            assert hilbert_symbol(1, b, p) == 1
    assert hilbert_symbol(-1, -1, "real") == -1
    assert hilbert_symbol(-1, 2, "real") == 1
    assert hilbert_symbol(3, 5, "real") == 1


def test_hilbert_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 5)
    with pytest.raises(ValueError):
        hilbert_symbol(3, 0, 5)
    with pytest.raises(ValueError):
        hilbert_symbol(2, 3, 6)
    with pytest.raises(ValueError):
        hilbert_symbol(2, 3, "imaginary")


def test_hilbert_minus_one_minus_one_at_2():
    assert oracles.hilbert_oracle_neg1_neg1_at_2() == -1
    assert hilbert_symbol(-1, -1, 2) == -1


def test_hilbert_odd_against_norm_solvability_oracle():
    # the worked case: 29 is a nonresidue mod 41
    assert oracles.hilbert_oracle_odd(29, 41, 41) == -1
    assert hilbert_symbol(29, 41, 41) == -1
    rng = random.Random(3)
    for p in (3, 5, 7, 11, 13):
        for _ in range(40):
            a = Fraction(rng.randrange(1, 50), rng.randrange(1, 30))
            b = Fraction(rng.randrange(1, 50), rng.randrange(1, 30))
            assert hilbert_symbol(a, b, p) == oracles.hilbert_oracle_odd(a, b, p)


def _squareclass_reps(p: int) -> list:
    if p == 2:
        return [1, -1, 2, -2, 5, -5, 10, -10]
    u = oracles.smallest_nonresidue_scan(p)
    return [1, u, p, u * p]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 41])
def test_hilbert_bilinear_and_symmetric(p):
    reps = _squareclass_reps(p)
    for a in reps:
        for b in reps:
            assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
            for a2 in reps:
                lhs = hilbert_symbol(a * a2, b, p)
                rhs = hilbert_symbol(a, b, p) * hilbert_symbol(a2, b, p)
                assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 41])
def test_hilbert_nondegenerate(p):
    reps = _squareclass_reps(p)
    basis = [2, -1, 5] if p == 2 else [p, oracles.smallest_nonresidue_scan(p)]
    for a in reps[1:]:
        assert any(hilbert_symbol(a, b, p) == -1 for b in basis), a


def _support_primes(x: Fraction) -> set[int]:
    out = set()
    for n in (abs(x.numerator), x.denominator):
        k = 2
        while k * k <= n:
            if n % k == 0:
                out.add(k)
                while n % k == 0:
                    n //= k
            k += 1
        if n > 1:
            out.add(n)
    return out


def test_hilbert_product_formula():
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 50), rng.randrange(1, 50))
        b = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 50), rng.randrange(1, 50))
        places = {2} | _support_primes(a) | _support_primes(b)
        prod = hilbert_symbol(a, b, "real")
        for p in places:
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)
