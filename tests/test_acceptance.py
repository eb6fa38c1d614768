"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime and asserting the stated budget."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles
from unitcert import (
    BiquadField,
    OcticField,
    delta,
    fsu,
    fundamental_pell,
    hilbert_symbol,
    jacobi,
    noncollapse_check,
    residue_at,
    separate_candidates,
    sqrt_exact,
    sqrt_octic,
    survey_places,
    theta,
    theta_factors,
)

SRC = Path(__file__).resolve().parents[1] / "src"

UNITS = {
    133: (2588599, 224460, 1), 266: (685, 42, 1), 21: (55, 12, 1), 42: (13, 2, 1),
    77: (351, 40, 1), 154: (21295, 1716, 1), 301: (5883392537695, 339113108232, 1),
    602: (687, 28, 1), 413: (113399, 5580, 1), 826: (222239304685, 7732694382, 1),
}


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"{self.name}: PASS ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded budget: {elapsed:.2f}s"
        else:
            print(f"{self.name}: FAIL after {elapsed:.2f}s")
        return False


def _units_ok(*ds):
    for d in ds:
        u = fundamental_pell(d)
        assert (u.x, u.y, u.norm) == UNITS[d], d


def test_criterion_1_golden_replay_first_triple():
    with Budget("criterion 1 (replay of the first worked triple)", 5.0):
        _units_ok(133, 266, 21, 42)
        f_pq, f_ps = theta_factors(7, 19, 3)
        assert tuple(map(int, f_pq.coords)) == (21070, 14877, 1827, 1290)
        assert tuple(map(int, f_ps.coords)) == (14, 9, 3, 2)
        cert = delta(7, 19, 3, with_fsu=False)
        assert cert.place.t == 41
        assert (cert.place.r2, cert.place.rpq, cert.place.rps) == (17, 16, 12)
        assert residue_at(f_pq, cert.place) == 18
        assert residue_at(f_ps, cert.place) == 37
        assert cert.theta_residue == 10
        assert jacobi(10, 41) == 1 and cert.legendre_theta == 1
        assert cert.eps_pq_residue == 29
        assert jacobi(29, 41) == -1 and cert.legendre_eps == -1
        assert cert.delta == 0 and cert.mu == "1"


def test_criterion_2_golden_replay_second_triple():
    with Budget("criterion 2 (replay of the second worked triple)", 5.0):
        _units_ok(77, 154, 301, 602)
        f_pq, f_ps = theta_factors(7, 11, 43)
        assert tuple(map(int, f_pq.coords)) == (1365, 968, 156, 110)
        assert tuple(map(int, f_ps.coords)) == (31764789, 22493816, 1830892, 1296522)
        cert = delta(7, 11, 43, with_fsu=False)
        assert cert.place.t == 23
        assert (cert.place.r2, cert.place.rpq, cert.place.rps) == (5, 10, 5)
        assert residue_at(f_pq, cert.place) == 17
        assert residue_at(f_ps, cert.place) == 19
        assert cert.theta_residue == 1
        assert cert.eps_pq_residue == 15 and jacobi(15, 23) == -1
        assert cert.delta == 0 and cert.mu == "1"


def test_criterion_3_golden_replay_third_triple():
    with Budget("criterion 3 (replay of the third worked triple)", 10.0):
        _units_ok(21, 42, 413, 826)
        f_pq, f_ps = theta_factors(7, 3, 59)
        assert tuple(map(int, f_pq.coords)) == (14, 9, 3, 2)
        assert tuple(map(int, f_ps.coords)) == (79375590, 56126523, 3905783, 2761830)
        cert = delta(7, 3, 59, with_fsu=False)
        assert cert.place.t == 79
        assert (cert.place.r2, cert.place.rpq, cert.place.rps) == (9, 10, 27)
        assert residue_at(f_pq, cert.place) == 68
        assert residue_at(f_ps, cert.place) == 20
        assert cert.theta_residue == 17 and jacobi(17, 79) == -1
        assert cert.eps_pq_residue == 17
        eps_theta = cert.eps_pq_residue * cert.theta_residue % 79
        assert cert.eps_pq_residue * cert.theta_residue == 289
        assert eps_theta == 52 and jacobi(52, 79) == 1
        assert cert.delta == 1 and cert.mu == "eps_pq"


def test_criterion_4_noncollapse():
    with Budget("criterion 4 (same classical datum, opposite bits)", 15.0):
        from unitcert import classical_datum

        d1 = classical_datum(7, 19, 3).as_tuple()
        d2 = classical_datum(7, 3, 59).as_tuple()
        assert d1 == d2 == (7, 3, 3, -1, -1, 1)
        ok, report = noncollapse_check((7, 19, 3), (7, 3, 59))
        assert ok
        assert report["triple1"]["delta"] == 0 and report["triple2"]["delta"] == 1


def test_criterion_5_oracle_cross_validation():
    with Budget("criterion 5 (exact square-root oracle on all triples)", 60.0):
        for (p, q, s), bit in [((7, 19, 3), 0), ((7, 11, 43), 0), ((7, 3, 59), 1)]:
            th = theta(p, q, s)
            octic = th.tower
            e_pq = octic.from_quad_unit(fundamental_pell(p * q))
            square = th if bit == 0 else e_pq * th
            other = e_pq * th if bit == 0 else th
            xi = sqrt_octic(square)
            assert xi is not None and xi * xi == square
            assert sqrt_octic(other) is None


def test_criterion_6_place_invariance():
    with Budget("criterion 6 (bit is independent of the chosen place)", 30.0):
        for triple, expected in [((7, 19, 3), 0), ((7, 11, 43), 0), ((7, 3, 59), 1)]:
            valid = [d for d in survey_places(*triple) if d.valid]
            assert len(valid) >= 3
            assert len({d.place.t for d in valid}) >= 2
            assert {d.delta for d in valid} == {expected}


def test_criterion_7_property_suites():
    with Budget("criterion 7 (property suites)", 120.0):
        # (a) Pell norm correctness and minimality for all squarefree d <= 150
        for d in oracles.squarefree_numbers(150):
            u = fundamental_pell(d)
            oracles.assert_fundamental(d, u.x, u.y, u.norm)

        # (b) Hilbert symbol bilinearity, symmetry, nondegeneracy per prime
        for p in (2, 3, 5, 7, 11, 41):
            if p == 2:
                reps, basis = [1, -1, 2, -2, 5, -5, 10, -10], [2, -1, 5]
            else:
                u = oracles.smallest_nonresidue_scan(p)
                reps, basis = [1, u, p, u * p], [p, u]
            for a in reps:
                for b in reps:
                    assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
                    for a2 in reps:
                        assert (hilbert_symbol(a * a2, b, p)
                                == hilbert_symbol(a, b, p) * hilbert_symbol(a2, b, p))
            for a in reps[1:]:
                assert any(hilbert_symbol(a, b, p) == -1 for b in basis)

        # (c) product formula on 200 random rational pairs
        rng = random.Random(41)
        for _ in range(200):
            a = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 60), rng.randrange(1, 60))
            b = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 60), rng.randrange(1, 60))
            places = {2}
            for val in (a.numerator, a.denominator, b.numerator, b.denominator):
                n, k = abs(val), 2
                while k * k <= n:
                    if n % k == 0:
                        places.add(k)
                        while n % k == 0:
                            n //= k
                    k += 1
                if n > 1:
                    places.add(n)
            prod = hilbert_symbol(a, b, "real")
            for p in places:
                prod *= hilbert_symbol(a, b, p)
            assert prod == 1

        # (d) square-root roundtrips: 100 biquadratic, 25 octic
        B = BiquadField(2, 21)
        done = 0
        while done < 100:
            g = B.element([Fraction(rng.randrange(-9, 10), rng.choice((1, 2)))
                           for _ in range(4)])
            if g.is_zero():
                continue
            root = sqrt_exact(g * g)
            assert root is not None and root * root == g * g
            assert root in (g, -g) and oracles.real_sign(root) == 1
            done += 1
        O = OcticField(7, 19, 3)
        done = 0
        while done < 25:
            g = O.element([Fraction(rng.randrange(-9, 10), rng.choice((1, 2)))
                           for _ in range(8)])
            if g.is_zero():
                continue
            root = sqrt_octic(g * g)
            assert root is not None and root * root == g * g
            assert root in (g, -g) and oracles.real_sign(root) == 1
            done += 1

        # (e) separation tables on 20 random families of unit products
        gens = [g.element for g in fsu(7, 19, 3)]
        tower = gens[0].tower
        for _ in range(20):
            masks = rng.sample(range(1 << len(gens)), rng.randrange(2, 9))
            family = []
            for mask in masks:
                elem = tower.one()
                for j, g in enumerate(gens):
                    if mask >> j & 1:
                        elem = elem * g
                family.append(elem)
            cert = separate_candidates(family)
            rows = [tuple(f.evaluate(c) for f in cert.functionals) for c in family]
            assert rows == cert.table
            assert len(set(rows)) == len(family)


def test_criterion_8_deterministic_json():
    with Budget("criterion 8 (byte-identical verification output)", 60.0):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "unitcert", "verify-paper", "--json"],
                capture_output=True,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.strip()
