"""Frozen reference values for the three worked triples, and the checklist
replaying every number: Pell units, biquadratic root expansions, split primes,
canonical roots, residues, Legendre bits, delta, mu, and the non-collapse pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import jacobi
from .fields import theta_factors
from .pell import QuadUnit, fundamental_pell
from .residual import classical_datum, delta, noncollapse_check, residue_at

# Pell units (x, y, norm) of Z[sqrt d] for every d entering the examples.
UNITS = {
    2: (1, 1, -1),
    21: (55, 12, 1),
    42: (13, 2, 1),
    77: (351, 40, 1),
    133: (2588599, 224460, 1),
    154: (21295, 1716, 1),
    266: (685, 42, 1),
    301: (5883392537695, 339113108232, 1),
    413: (113399, 5580, 1),
    602: (687, 28, 1),
    826: (222239304685, 7732694382, 1),
}

# Coordinates of the positive root of eps_d * eps_2d in Q(sqrt2, sqrt d).
ROOTS = {
    21: (14, 9, 3, 2),
    77: (1365, 968, 156, 110),
    133: (21070, 14877, 1827, 1290),
    301: (31764789, 22493816, 1830892, 1296522),
    413: (79375590, 56126523, 3905783, 2761830),
}


@dataclass(frozen=True)
class ExampleValues:
    label: str
    triple: tuple[int, int, int]
    datum: tuple[int, int, int, int, int, int]
    t: int
    place_roots: tuple[int, int, int]
    factor_pq_residue: int
    factor_ps_residue: int
    theta_residue: int
    legendre_theta: int
    eps_pq_residue: int
    delta: int
    mu: str
    # delta = 1 case only: residue of eps_pq * Theta and its Legendre symbol
    eps_theta_residue: int | None = None


EXAMPLES = (
    ExampleValues(
        "ex1", (7, 19, 3), (7, 3, 3, -1, -1, 1),
        t=41, place_roots=(17, 16, 12),
        factor_pq_residue=18, factor_ps_residue=37,
        theta_residue=10, legendre_theta=1,
        eps_pq_residue=29, delta=0, mu="1",
    ),
    ExampleValues(
        "ex2", (7, 11, 43), (7, 3, 3, 1, 1, 1),
        t=23, place_roots=(5, 10, 5),
        factor_pq_residue=17, factor_ps_residue=19,
        theta_residue=1, legendre_theta=1,
        eps_pq_residue=15, delta=0, mu="1",
    ),
    ExampleValues(
        "ex3", (7, 3, 59), (7, 3, 3, -1, -1, 1),
        t=79, place_roots=(9, 10, 27),
        factor_pq_residue=68, factor_ps_residue=20,
        theta_residue=17, legendre_theta=-1,
        eps_pq_residue=17, delta=1, mu="eps_pq",
        eps_theta_residue=52,
    ),
)

NONCOLLAPSE_PAIR = ((7, 19, 3), (7, 3, 59))


@dataclass
class CheckItem:
    name: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def to_json_dict(self) -> dict:
        return {"name": self.name, "expected": self.expected, "actual": self.actual, "ok": self.ok}


def _unit_str(u: QuadUnit) -> str:
    return f"({u.x}, {u.y}, {u.norm:+d})"


def run_checks(prime_bound: int) -> list[CheckItem]:
    """Recompute every reference value and compare; one item per number.

    Each check computes the Pell units it reads afresh. A computation failure
    is recorded as a failing item rather than aborting the remaining checks.
    """
    items: list[CheckItem] = []

    def add(name: str, expected, actual) -> None:
        items.append(CheckItem(name, str(expected), str(actual)))

    for ex in EXAMPLES:
        p, q, s = ex.triple
        for d in sorted({p * q, 2 * p * q, p * s, 2 * p * s}):
            x, y, norm = UNITS[d]
            try:
                actual = _unit_str(fundamental_pell(d))
            except Exception as exc:
                actual = f"error: {exc}"
            add(f"{ex.label}.unit_{d}", f"({x}, {y}, {norm:+d})", actual)
        try:
            f_pq, f_ps = theta_factors(p, q, s)
            add(f"{ex.label}.root_{p * q}", ROOTS[p * q], tuple(int(c) for c in f_pq.coords))
            add(f"{ex.label}.root_{p * s}", ROOTS[p * s], tuple(int(c) for c in f_ps.coords))
            cert = delta(p, q, s, prime_bound=prime_bound, with_fsu=False)
        except Exception as exc:
            add(f"{ex.label}.delta", ex.delta, f"error: {exc}")
            continue
        add(f"{ex.label}.datum", ex.datum, cert.datum.as_tuple())
        add(f"{ex.label}.split_prime", ex.t, cert.place.t)
        add(f"{ex.label}.place_roots", ex.place_roots,
            (cert.place.r2, cert.place.rpq, cert.place.rps))
        add(f"{ex.label}.residue_factor_pq", ex.factor_pq_residue, residue_at(f_pq, cert.place))
        add(f"{ex.label}.residue_factor_ps", ex.factor_ps_residue, residue_at(f_ps, cert.place))
        add(f"{ex.label}.theta_residue", ex.theta_residue, cert.theta_residue)
        add(f"{ex.label}.legendre_theta", ex.legendre_theta,
            jacobi(cert.theta_residue, cert.place.t))
        add(f"{ex.label}.eps_pq_residue", ex.eps_pq_residue, cert.eps_pq_residue)
        add(f"{ex.label}.legendre_eps_pq", -1, jacobi(cert.eps_pq_residue, cert.place.t))
        if ex.eps_theta_residue is not None:
            r = cert.eps_pq_residue * cert.theta_residue % cert.place.t
            add(f"{ex.label}.eps_theta_residue", ex.eps_theta_residue, r)
            add(f"{ex.label}.legendre_eps_theta", 1, jacobi(r, cert.place.t))
        add(f"{ex.label}.delta", ex.delta, cert.delta)
        add(f"{ex.label}.mu", ex.mu, cert.mu)

    t1, t2 = NONCOLLAPSE_PAIR
    add("noncollapse.datum_1", (7, 3, 3, -1, -1, 1), classical_datum(*t1).as_tuple())
    add("noncollapse.datum_2", (7, 3, 3, -1, -1, 1), classical_datum(*t2).as_tuple())
    try:
        ok, report = noncollapse_check(t1, t2, prime_bound=prime_bound)
        add("noncollapse.delta_pair", (0, 1),
            (report["triple1"]["delta"], report["triple2"]["delta"]))
        add("noncollapse.check", True, ok)
    except Exception as exc:
        add("noncollapse.delta_pair", (0, 1), f"error: {exc}")
        add("noncollapse.check", True, f"error: {exc}")
    return items
