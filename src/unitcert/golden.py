"""Frozen reference values for the three worked triples, and the checklist
replaying every number: Pell units, biquadratic root expansions, split primes,
canonical roots, residues, Legendre bits, delta, mu, and the non-collapse pair.
"""

from __future__ import annotations

from .arith import jacobi
from .pell import _Frozen, _Record, fundamental_pell
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


class ExampleValues(_Frozen):
    """One worked triple's reference values; eps_theta_residue, the residue
    of eps_pq * Theta, is given in the delta = 1 case only."""

    __slots__ = _key = ("label", "triple", "datum", "t", "place_roots", "factor_pq_residue",
                        "factor_ps_residue", "theta_residue", "legendre_theta", "eps_pq_residue",
                        "delta", "mu", "eps_theta_residue")

    def __init__(self, label: str, triple: tuple[int, int, int], datum: tuple[int, ...], t: int,
                 place_roots: tuple[int, int, int], factor_pq_residue: int, factor_ps_residue: int,
                 theta_residue: int, legendre_theta: int, eps_pq_residue: int, delta: int, mu: str,
                 eps_theta_residue: int | None = None):
        self._set(label, triple, datum, t, place_roots, factor_pq_residue, factor_ps_residue,
                  theta_residue, legendre_theta, eps_pq_residue, delta, mu, eps_theta_residue)


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


class CheckItem(_Record):
    """One replayed value: its name, the reference and the recomputed value, as text."""

    __slots__ = _key = ("name", "expected", "actual")

    def __init__(self, name: str, expected: str, actual: str):
        self.name, self.expected, self.actual = name, expected, actual

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def to_json_dict(self) -> dict:
        return {"name": self.name, "expected": self.expected, "actual": self.actual, "ok": self.ok}


def _expected(ex: ExampleValues) -> dict[str, object]:
    """The reference value of each of the example's items after its units,
    by name, in the order the checklist reports them."""
    p, q, s = ex.triple
    out = {
        f"root_{p * q}": ROOTS[p * q], f"root_{p * s}": ROOTS[p * s], "datum": ex.datum,
        "split_prime": ex.t, "place_roots": ex.place_roots,
        "residue_factor_pq": ex.factor_pq_residue, "residue_factor_ps": ex.factor_ps_residue,
        "theta_residue": ex.theta_residue, "legendre_theta": ex.legendre_theta,
        "eps_pq_residue": ex.eps_pq_residue, "legendre_eps_pq": -1,
    }
    if ex.eps_theta_residue is not None:
        out |= {"eps_theta_residue": ex.eps_theta_residue, "legendre_eps_theta": 1}
    return out | {"delta": ex.delta, "mu": ex.mu}


def _recompute(ex: ExampleValues, out: dict[str, object]) -> None:
    """Fill `out` with the recomputed value of each item of `_expected`, by
    name, from one certificate and the Theta factors it carries; a
    computation that raises leaves the items after it out."""
    p, q, s = ex.triple
    cert = delta(p, q, s, with_fsu=False)
    f_pq, f_ps = cert.theta_factors
    place = cert.place
    out |= {
        f"root_{p * q}": tuple(int(c) for c in f_pq.coords),
        f"root_{p * s}": tuple(int(c) for c in f_ps.coords),
        "datum": cert.datum.as_tuple(), "split_prime": place.t,
        "place_roots": (place.r2, place.rpq, place.rps),
        "residue_factor_pq": residue_at(f_pq, place), "residue_factor_ps": residue_at(f_ps, place),
        "theta_residue": cert.theta_residue, "legendre_theta": jacobi(cert.theta_residue, place.t),
        "eps_pq_residue": cert.eps_pq_residue, "legendre_eps_pq": jacobi(cert.eps_pq_residue, place.t),
    }
    if ex.eps_theta_residue is not None:
        r = cert.eps_pq_residue * cert.theta_residue % place.t
        out |= {"eps_theta_residue": r, "legendre_eps_theta": jacobi(r, place.t)}
    out |= {"delta": cert.delta, "mu": cert.mu}


def run_checks() -> list[CheckItem]:
    """Recompute every reference value and compare; one item per number.

    Each check computes the Pell units it reads afresh. A computation failure
    is recorded as a failing item rather than aborting the remaining checks:
    every item that the failed computation would have given reads
    "error: ...", so the checklist always has the same items.
    """
    items: list[CheckItem] = []

    def add(name: str, expected, actual) -> None:
        items.append(CheckItem(name, str(expected), str(actual)))

    for ex in EXAMPLES:
        p, q, s = ex.triple
        for d in sorted({p * q, 2 * p * q, p * s, 2 * p * s}):
            x, y, norm = UNITS[d]
            try:
                u = fundamental_pell(d)
                actual = f"({u.x}, {u.y}, {u.norm:+d})"
            except Exception as exc:
                actual = f"error: {exc}"
            add(f"{ex.label}.unit_{d}", f"({x}, {y}, {norm:+d})", actual)
        actuals, error = {}, None
        try:
            _recompute(ex, actuals)
        except Exception as exc:
            error = f"error: {exc}"
        for name, expected in _expected(ex).items():
            add(f"{ex.label}.{name}", expected, actuals.get(name, error))

    t1, t2 = NONCOLLAPSE_PAIR
    add("noncollapse.datum_1", (7, 3, 3, -1, -1, 1), classical_datum(*t1).as_tuple())
    add("noncollapse.datum_2", (7, 3, 3, -1, -1, 1), classical_datum(*t2).as_tuple())
    try:
        ok, report = noncollapse_check(t1, t2)
        add("noncollapse.delta_pair", (0, 1),
            (report["triple1"]["delta"], report["triple2"]["delta"]))
        add("noncollapse.check", True, ok)
    except Exception as exc:
        add("noncollapse.delta_pair", (0, 1), f"error: {exc}")
        add("noncollapse.check", True, f"error: {exc}")
    return items
