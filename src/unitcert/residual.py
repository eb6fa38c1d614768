"""The split-prime residue pipeline.

Validates the congruence hypotheses on (p, q, s), builds Theta's two factors,
finds the first split prime whose places are valid by (Q/t) alone, builds
that prime's record only, decides the residual bit delta by one Legendre
symbol and emits the rank-7 unit system with an auditable certificate. The
optional oracle confirms the bit with one exact square root, xi of
mu*Theta, and a local proof at the certificate's place that the other
candidate is no square. All seven unit generators, xi included, come from
closed forms checked exactly, so no relative-norm descent runs here.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import chain, islice, product
from math import prod
from operator import index

from .arith import _sqrt_mod_prime, hilbert_symbol, jacobi, odd_primes
from .errors import (
    DenominatorNotInvertible,
    HypothesisViolation,
    InvalidPlace,
    NotASquareInBiquad,
    OracleDisagreement,
    SearchExhausted,
)
from .fields import (
    OcticField,
    TowerElement,
    _check_triple,
    _sqrt_mu_product,
    _theta_parts,
    sqrt_octic,  # no longer called here; bench/tracer.py hooks this name as the oracle layer
    sqrt_unit_product,
)
from .pell import QuadUnit, _Frozen, _Record, fundamental_pell

# Pell-unit convention recorded in every certificate: the smallest unit > 1 of
# Z[sqrt(d)], from the continued fraction of sqrt(d). A maximal-order
# convention would differ for some d and could flip delta.
EPS_CONVENTION = "pell-unit-of-Z[sqrt d]"

ALLOWED_BRANCHES = ((1, 1, 1), (-1, -1, 1))

DEFAULT_PRIME_BOUND = 100_000
PRIME_COUNT = 50  # split primes a scan reads below the caller's bound
_SIGNS = tuple(product((1, -1), repeat=3))  # the eight places above t, in enumerate_places order


class ClassicalDatum(_Frozen):
    """Residues mod 8 and the three Legendre symbols attached to (p, q, s),
    named as the certificate's JSON names them, in its order."""

    __slots__ = _key = ("p_mod8", "q_mod8", "s_mod8", "legendre_q_p", "legendre_s_p", "legendre_q_s")

    def __init__(self, p_mod8: int, q_mod8: int, s_mod8: int,
                 legendre_q_p: int, legendre_s_p: int, legendre_q_s: int):
        self._set(p_mod8, q_mod8, s_mod8, legendre_q_p, legendre_s_p, legendre_q_s)

    def branch(self) -> tuple[int, int, int]:
        """The Legendre pattern of a supported triple; HypothesisViolation otherwise."""
        mods = (self.p_mod8, self.q_mod8, self.s_mod8)
        if mods != (7, 3, 3):
            raise HypothesisViolation(f"need p = 7 and q = s = 3 mod 8, got {mods}")
        br = (self.legendre_q_p, self.legendre_s_p, self.legendre_q_s)
        if br not in ALLOWED_BRANCHES:
            raise HypothesisViolation(
                f"Legendre pattern {br} is outside the supported branches {ALLOWED_BRANCHES}"
            )
        return br


def _datum(p: int, q: int, s: int) -> ClassicalDatum:
    return ClassicalDatum(p % 8, q % 8, s % 8, jacobi(q, p), jacobi(s, p), jacobi(q, s))


def classical_datum(p: int, q: int, s: int) -> ClassicalDatum:
    """The 6-tuple (p mod 8, q mod 8, s mod 8, (q/p), (s/p), (q/s))."""
    _check_triple(p, q, s)
    return _datum(p, q, s)


# -- split places ----------------------------------------------------------


class SplitPrime(_Record):
    """An odd prime t split completely in the octic field of (p, q, s), with
    its residue table: the residue mod t of the square root of each basis
    radicand at the all-canonical place, keyed in the order 1, 2, pq, 2pq, ps,
    2ps, qs, 2qs that `_residues_above` unpacks; at 2, pq and ps, the canonical
    roots c = min(r, t - r) that `sqrt_mod` gives. t >= 3 is taken to be prime,
    as `iter_split_primes` yields them; no root is checked, as
    `_sqrt_mod_prime`'s roots square back for any odd t."""

    __slots__ = _key = ("t", "p", "q", "s", "residues")

    def __init__(self, t: int, p: int, q: int, s: int):
        self.t, self.p, self.q, self.s = t, p, q, s
        if t < 3 or (2 * p * q * s) % t == 0:
            raise ValueError(f"t = {t} is below 3 or divides 2pqs")
        c2, cpq, cps = roots = _sqrt_mod_prime((2, p * q, p * s), t)
        if None in roots:
            raise ValueError(f"{t} does not split in the octic field for ({p}, {q}, {s})")
        cqs = cpq * cps * pow(p, -1, t) % t  # sqrt(qs) = sqrt(pq) * sqrt(ps) / p
        self.residues = {1: 1, 2: c2, p * q: cpq, 2 * p * q: c2 * cpq % t, p * s: cps,
                         2 * p * s: c2 * cps % t, q * s: cqs, 2 * q * s: c2 * cqs % t}


class SplitPlace(_Record):
    """A place above a split prime: an embedding of the tower into F_t, the
    view of its prime at `signs`, one sign per root of 2, pq and ps, +1 for
    the prime's canonical root c and -1 for t - c. Roots and residues are
    read off the prime's table: sqrt(m) has the canonical residue times
    chi_m(signs), the product of the signs of the generators in m (qs: pq
    and ps). `enumerate_places` gives the eight views."""

    __slots__ = _key = ("prime", "signs")

    def __init__(self, prime: SplitPrime, signs: tuple[int, int, int]):
        if signs not in _SIGNS:
            raise ValueError(f"signs must be a tuple of three of +-1, got {signs!r}")
        self.prime, self.signs = prime, signs

    t = property(lambda self: self.prime.t)
    r2 = property(lambda self: self.residues[2])
    rpq = property(lambda self: self.residues[self.prime.p * self.prime.q])
    rps = property(lambda self: self.residues[self.prime.p * self.prime.s])

    @property
    def residues(self) -> dict[int, int]:
        """The prime's table with each residue times its sign character."""
        table = self.prime.residues
        if self.signs == (1, 1, 1):
            return table
        t, (s2, spq, sps) = self.prime.t, self.signs
        chi = (1, s2, spq, s2 * spq, sps, s2 * sps, spq * sps, s2 * spq * sps)
        return {m: sign * r % t for sign, (m, r) in zip(chi, table.items())}


def iter_split_primes(p: int, q: int, s: int, bound: int = DEFAULT_PRIME_BOUND) -> Iterator[int]:
    """Odd primes t <= bound that split completely in Q(sqrt2, sqrt pq, sqrt ps),
    ascending: t = +-1 (mod 8), so that 2 is a square mod t, and
    (pq/t) = (ps/t) = 1, which also leaves out the t dividing pqs. The primes
    come from the sieve of `arith.odd_primes`; no t is tested for primality,
    and each symbol is Euler's criterion a^((t-1)/2) mod t, not `jacobi`. The
    triple is taken to be validated, as `OcticField` does, not validated again;
    it is read through `operator.index`, so a float raises TypeError.
    """
    pq, ps = index(p) * index(q), index(p) * index(s)
    for t in odd_primes(bound):
        if t % 8 in (1, 7) and pow(pq, t >> 1, t) == 1 and pow(ps, t >> 1, t) == 1:
            yield t


def enumerate_places(t: int, p: int, q: int, s: int) -> list[SplitPlace]:
    """The eight places above a split prime t, views of one `SplitPrime`,
    ordered lexicographically by their signs, all-canonical first. The
    prime's record takes the roots once; a view only signs them."""
    prime = SplitPrime(t, p, q, s)
    return [SplitPlace(prime, signs) for signs in _SIGNS]


def reduce_mod(x, t: int) -> tuple[tuple[int, int], ...]:
    """The nonzero coordinates of a unit, tower element or rational mod t, as
    (radicand, residue) pairs.

    An element is reduced once per prime: its residue at a place above t is
    the sum of residue * place.residues[radicand] (`residue_at`), and its
    residues at all eight come from the prime's table (`_residues_above`). Its one
    denominator, the lcm of its reduced coordinate denominators, is inverted
    once; for a prime t, t divides it, and DenominatorNotInvertible is
    raised, exactly when t divides the denominator of a nonzero coordinate.
    """
    if isinstance(x, QuadUnit):
        return ((1, x.x % t), (x.d, x.y % t))
    if isinstance(x, TowerElement):
        pairs, den = zip(x.tower.radicands, x.num), x.den
    elif isinstance(x, (int, Fraction)):
        c = Fraction(x)
        pairs, den = ((1, c.numerator),), c.denominator
    else:
        raise TypeError(f"cannot reduce {type(x).__name__} at a place")
    if den % t == 0:
        raise DenominatorNotInvertible(f"denominator {den} not invertible mod {t}")
    inv = pow(den, -1, t)
    return tuple((m, c * inv % t) for m, c in pairs if c)


def residue_at(x, place: SplitPlace) -> int:
    """Residue of a unit, biquadratic, or octic element at a split place."""
    residues = place.residues
    total = 0
    for m, c in reduce_mod(x, place.t):
        if m not in residues:
            raise ValueError(f"sqrt({m}) has no residue at this place")
        total += c * residues[m]
    return total % place.t


def _residues_above(reduced: tuple[tuple[int, int], ...], prime: SplitPrime) -> list[int]:
    """Residues at the eight places above prime.t, in `enumerate_places`
    order, of an element reduced by `reduce_mod`, from the prime's table
    alone: at signs sigma, sqrt(m) has chi_m(sigma) * prime.residues[m], so
    the eight are a Walsh-Hadamard transform, one butterfly per sign."""
    table, t = prime.residues, prime.t
    coeffs = dict.fromkeys(table, 0)
    for m, c in reduced:
        if m not in table:
            raise ValueError(f"sqrt({m}) has no residue at this place")
        coeffs[m] = c * table[m]
    a1, a2, apq, a2pq, aps, a2ps, aqs, a2qs = coeffs.values()
    b1, b2, bpq, b2pq = a1 + aps, a2 + a2ps, apq + aqs, a2pq + a2qs  # root of ps kept
    n1, n2, npq, n2pq = a1 - aps, a2 - a2ps, apq - aqs, a2pq - a2qs  # and negated
    bb1, bb2, bn1, bn2 = b1 + bpq, b2 + b2pq, n1 + npq, n2 + n2pq  # root of pq kept
    nb1, nb2, nn1, nn2 = b1 - bpq, b2 - b2pq, n1 - npq, n2 - n2pq  # and negated
    return [(bb1 + bb2) % t, (bn1 + bn2) % t, (nb1 + nb2) % t, (nn1 + nn2) % t,  # root of 2 kept
            (bb1 - bb2) % t, (bn1 - bn2) % t, (nb1 - nb2) % t, (nn1 - nn2) % t]  # and negated


# -- certificates ----------------------------------------------------------


class Generator(_Record):
    """One member of the unit system: a symbolic name plus the exact element
    when its square root was computed; `exact` and `warning` follow from
    whether there is one. Only a forced run keeps a generator with no root:
    on a triple inside the pattern `delta` raises OracleDisagreement."""

    __slots__ = _key = ("name", "element", "mu")

    def __init__(self, name: str, element: TowerElement | None, mu: str | None = None):
        self.name, self.element, self.mu = name, element, mu

    @property
    def exact(self) -> bool:
        return self.element is not None

    @property
    def warning(self) -> str | None:
        if self.exact:
            return None
        return "not a square in the octic field; hypothesis or convention mismatch"

    def to_json_dict(self) -> dict:
        d = {
            "name": self.name,
            "element": None if self.element is None else self.element.to_text(),
            "exact": self.exact,
        }
        if self.mu is not None:
            d["mu"] = self.mu
        if self.warning is not None:
            d["warning"] = self.warning
        return d


class Certificate(_Record):
    """Complete audit trail of one residual-bit decision. Its place is valid
    by construction: eps_pq is a local nonsquare there (`legendre_eps`), and
    delta and mu follow from the bit of Theta, kept as its factors (f1, f2).
    Theta's factors and eps_pq are kept for `survey`, and left out of the
    JSON, equality and the repr."""

    eps_convention = EPS_CONVENTION
    legendre_eps = -1

    _key = ("p", "q", "s", "datum", "hypotheses_verified", "place", "theta_residue",
            "eps_pq_residue", "legendre_theta", "fsu", "oracle_checked")
    __slots__ = (*_key, "theta_factors", "eps_pq")

    def __init__(self, p: int, q: int, s: int, datum: ClassicalDatum, hypotheses_verified: bool,
                 place: SplitPlace, theta_residue: int, eps_pq_residue: int, legendre_theta: int,
                 fsu: list[Generator] | None, oracle_checked: bool,
                 theta_factors: tuple[TowerElement, TowerElement], eps_pq: QuadUnit):
        self.p, self.q, self.s, self.datum = p, q, s, datum
        self.hypotheses_verified, self.place = hypotheses_verified, place
        self.theta_residue, self.eps_pq_residue = theta_residue, eps_pq_residue
        self.legendre_theta, self.fsu, self.oracle_checked = legendre_theta, fsu, oracle_checked
        self.theta_factors, self.eps_pq = theta_factors, eps_pq

    @property
    def delta(self) -> int:
        """0 exactly when Theta's residue is a square mod t."""
        return 0 if self.legendre_theta == 1 else 1

    @property
    def mu(self) -> str:
        """eps_pq^delta, the candidate whose product with Theta is a square."""
        return "1" if self.delta == 0 else "eps_pq"

    def to_json_dict(self) -> dict:
        place, datum = self.place, self.datum
        return {
            "triple": {"p": str(self.p), "q": str(self.q), "s": str(self.s)},
            "datum": dict(zip(datum._key, datum.as_tuple())),
            "eps_convention": self.eps_convention,
            "hypotheses_verified": self.hypotheses_verified,
            "place": {
                "t": str(place.t),
                "signs": list(place.signs),
                "r2": str(place.r2),
                "rpq": str(place.rpq),
                "rps": str(place.rps),
                "r2pq": str(place.residues[2 * self.p * self.q]),
                "r2ps": str(place.residues[2 * self.p * self.s]),
                "rqs": str(place.residues[self.q * self.s]),
                "r2qs": str(place.residues[2 * self.q * self.s]),
            },
            "theta_residue": str(self.theta_residue),
            "eps_pq_residue": str(self.eps_pq_residue),
            "legendre_theta": self.legendre_theta,
            "legendre_eps": self.legendre_eps,
            "delta": self.delta,
            "mu": self.mu,
            "fsu": None if self.fsu is None else [g.to_json_dict() for g in self.fsu],
            "oracle_checked": self.oracle_checked,
        }

    def survey(self, prime_bound: int) -> list[PlaceDecision]:
        """Every place that `survey_places` reads for this triple, from the
        Theta factors and eps_pq of this decision, so no unit is walked again."""
        return _scan_places(self.p, self.q, self.s, self.theta_factors, self.eps_pq, prime_bound)


class PlaceDecision(_Record):
    """Evaluation of one (t, place) pair: validity and, when valid, the bit."""

    __slots__ = _key = ("place", "eps_residue", "valid", "theta_residue", "legendre_theta")

    def __init__(self, place: SplitPlace, eps_residue: int, valid: bool,
                 theta_residue: int | None = None, legendre_theta: int | None = None):
        self.place, self.eps_residue, self.valid = place, eps_residue, valid
        self.theta_residue, self.legendre_theta = theta_residue, legendre_theta

    @property
    def legendre_eps(self) -> int:
        """eps_pq's Legendre symbol at the place: -1 exactly at a valid one."""
        return -1 if self.valid else 1

    @property
    def delta(self) -> int | None:
        """The bit Theta's Legendre symbol gives; None at an invalid place."""
        if self.legendre_theta is None:
            return None
        return 0 if self.legendre_theta == 1 else 1

    def to_json_dict(self) -> dict:
        return {
            "t": str(self.place.t),
            "signs": list(self.place.signs),
            "valid": self.valid,
            "eps_pq_residue": str(self.eps_residue),
            "theta_residue": None if self.theta_residue is None else str(self.theta_residue),
            "delta": self.delta,
        }


def _split_primes(p: int, q: int, s: int, Q: int, prime_bound: int) -> Iterator[tuple[int, bool]]:
    """The first PRIME_COUNT split primes t below prime_bound, ascending, with
    their validity, decided before any record of t is built: eps_pq =
    (h + k*sqrt(pq))^2/Q by its half unit has the Legendre symbol (Q/t) at
    every place above t, so the eight are valid exactly when (Q/t) = -1."""
    return ((t, pow(Q, t >> 1, t) != 1) for t in islice(iter_split_primes(p, q, s, prime_bound), PRIME_COUNT))


def _place_decisions(places: list[SplitPlace], valid: bool, factors: Sequence[TowerElement],
                     eps_pq: QuadUnit) -> list[PlaceDecision]:
    """The decisions at `places`, the eight views of one split prime t in
    `enumerate_places` order or the first, t's validity given. eps_pq's
    residue r is taken at the first place (`residue_at`); the places with the
    other root of pq have 1/r, as the norm is +1. At a valid t each factor of
    Theta, (f1, f2) or a caller's (Theta,), is reduced once, and Theta's
    residue is theirs (`_residues_above`) multiplied mod t. A factor's
    denominator that t divides, or a zero Theta residue, ends the places
    above t; the triple's own factors have neither, so these exits only
    validate a caller's Theta."""
    t, r = places[0].prime.t, residue_at(eps_pq, places[0])
    eps_res = {1: r, -1: pow(r, -1, t)}  # by the sign of pq's root
    if not valid:
        return [PlaceDecision(pl, eps_res[pl.signs[1]], False) for pl in places]
    try:
        reduced = [reduce_mod(f, t) for f in factors]
    except DenominatorNotInvertible:
        return []
    decisions = []
    for place, *rs in zip(places, *(_residues_above(v, places[0].prime) for v in reduced)):
        r_theta = prod(rs) % t
        if r_theta == 0:
            break
        legendre = 1 if pow(r_theta, t >> 1, t) == 1 else -1
        decisions.append(PlaceDecision(place, eps_res[place.signs[1]], True, r_theta, legendre))
    return decisions


def _scan_places(p: int, q: int, s: int, factors: Sequence[TowerElement], eps_pq: QuadUnit,
                 prime_bound: int) -> list[PlaceDecision]:
    """Decisions at the places above the first PRIME_COUNT split primes below
    prime_bound, in ascending (t, signs) order, so the first valid one is the
    paper's place."""
    return list(chain.from_iterable(_place_decisions(enumerate_places(t, p, q, s), valid, factors, eps_pq)
                                    for t, valid in _split_primes(p, q, s, eps_pq.half[2], prime_bound)))


def survey_places(
    p: int,
    q: int,
    s: int,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    theta_elem: TowerElement | None = None,
) -> list[PlaceDecision]:
    """Every place above the first PRIME_COUNT split primes below
    prime_bound, by the scan `delta` makes: the residue of eps_pq everywhere,
    and Theta's residue and delta at the valid places. A Theta built by the
    caller is used as given; `Certificate.survey` reuses a decision's. A
    triple whose eps_pq has norm -1 has no Theta and is refused."""
    if theta_elem is None:
        eps, *factors = _theta_parts(OcticField(p, q, s))
        eps_pq = eps[p * q]
    else:
        _check_triple(p, q, s)
        eps_pq, factors = fundamental_pell(p * q), (theta_elem,)
        if eps_pq.half is None:
            raise NotASquareInBiquad(f"eps_{p * q} has norm -1, so the triple has no Theta")
    return _scan_places(p, q, s, factors, eps_pq, prime_bound)


def _fsu_generators(
    octic: OcticField,
    mu: str,
    xi: TowerElement | None,
    root_pq: TowerElement,
    eps: dict[int, QuadUnit],
) -> list[Generator]:
    """The seven generators; sqrt(eps_pq*eps_2pq) is `root_pq`, Theta's first
    factor lifted to the octic field, and xi is the root of mu*Theta. `eps`
    holds the units of Theta's factors; the other three are walked here."""
    p, q, s = octic.p, octic.q, octic.s
    eps = eps | {d: fundamental_pell(d) for d in (2, q * s, 2 * q * s)}

    def rooted(name: str, *ds: int) -> Generator:
        return Generator(name, sqrt_unit_product(octic, [eps[d] for d in ds]))

    return [
        Generator("eps_2", octic.from_quad_unit(eps[2])),
        Generator("eps_pq", octic.from_quad_unit(eps[p * q])),
        rooted("sqrt(eps_pq*eps_ps)", p * q, p * s),
        rooted("sqrt(eps_pq*eps_qs)", p * q, q * s),
        rooted("sqrt(eps_2qs)", 2 * q * s),
        Generator("sqrt(eps_pq*eps_2pq)", root_pq),
        Generator("xi", xi, mu),
    ]


def _eps_is_local_nonsquare(eps_pq: QuadUnit, place: SplitPlace) -> bool:
    """Euler's criterion for the residue x + y*rpq of eps_pq = x + y*sqrt(pq)
    at the place, from the unit's coordinates and the place's root of pq,
    which is checked again; t is a prime of the sieve."""
    t = place.t
    if (place.rpq * place.rpq - eps_pq.d) % t:
        return False
    return pow((eps_pq.x + eps_pq.y * place.rpq) % t, (t - 1) // 2, t) == t - 1


def delta(
    p: int,
    q: int,
    s: int,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    force: bool = False,
    oracle: bool = False,
    with_fsu: bool = True,
) -> Certificate:
    """Decide the residual bit delta(p, q, s) and certify it.

    Reads the prime loop of `survey_places`, the first PRIME_COUNT split
    primes below prime_bound with their validity (Q/t), Q from eps_pq's half
    unit, builds the record of the first valid t alone, where eps_pq has a
    nonsquare residue at every place, and reads delta off the Legendre symbol
    of Theta's residue at its first place. With `force` a triple outside the
    congruence pattern is decided too, flagged `hypotheses_verified = False`
    and cross-checked exactly; on a triple inside it `force` has no effect.
    The cross-check recomputes the decision globally: mu*Theta must have an
    exact root xi. The other candidate is then eps_pq^(+-1)*xi^2, a square
    only if eps_pq is one, and eps_pq is a nonresidue at the certificate's
    place by Euler's criterion, recomputed from its coordinates. xi, for the
    oracle or the FSU, is (h + k*sqrt(pq))^delta*sqrt(Q^delta*f1*f2), with
    eps_pq = (h + k*sqrt(pq))^2/Q and Theta = f1*f2, its factors rooted and
    checked alone, without descent. Inside the pattern every generator of
    the FSU has its root, so one without, xi included, raises
    OracleDisagreement with the oracle off too. The triple is validated once,
    by building its octic field, and each Pell unit is walked once per call.
    """
    octic = OcticField(p, q, s)
    datum = _datum(p, q, s)
    hypotheses_verified = True
    try:
        datum.branch()
    except HypothesisViolation:
        if not force:
            raise
        hypotheses_verified = False
    oracle_on = oracle or not hypotheses_verified

    eps, f1, f2 = _theta_parts(octic)
    eps_pq = eps[p * q]

    t = next((t for t, valid in _split_primes(p, q, s, eps_pq.half[2], prime_bound) if valid), None)
    if t is None:
        raise SearchExhausted(f"no valid place below t = {prime_bound} (first {PRIME_COUNT} split primes)")
    chosen = _place_decisions(enumerate_places(t, p, q, s)[:1], True, (f1, f2), eps_pq)[0]
    cert = Certificate(
        p=p, q=q, s=s,
        datum=datum,
        hypotheses_verified=hypotheses_verified,
        place=chosen.place,
        theta_residue=chosen.theta_residue,
        eps_pq_residue=chosen.eps_residue,
        legendre_theta=chosen.legendre_theta,
        fsu=None,
        oracle_checked=oracle_on,
        theta_factors=(f1, f2),
        eps_pq=eps_pq,
    )

    xi = None
    if oracle_on or with_fsu:
        xi = _sqrt_mu_product(octic, f1, f2, *(eps_pq.half if cert.delta else (1, 0, 1)))
    if oracle_on:
        if xi is None:
            raise OracleDisagreement(
                f"residue criterion gives delta = {cert.delta} but mu*Theta has no exact root"
            )
        if not _eps_is_local_nonsquare(eps_pq, cert.place):
            raise OracleDisagreement(
                f"eps_pq is not a nonresidue at the place above t = {cert.place.t}, "
                "so the other candidate is not excluded"
            )
    if with_fsu:
        cert.fsu = _fsu_generators(octic, cert.mu, xi, octic.lift(f1), eps)
        missing = [g.name for g in cert.fsu if g.element is None]
        if missing and hypotheses_verified:  # with the oracle off, xi is checked here
            raise OracleDisagreement(
                f"{', '.join(missing)}: no exact root, though ({p}, {q}, {s}) is inside the pattern"
            )
    return cert


def fsu(p: int, q: int, s: int) -> list[Generator]:
    """The seven-generator unit system of the octic field, every generator exact."""
    return delta(p, q, s).fsu


def decide_mu_hilbert(p: int, q: int, s: int, place: SplitPlace) -> str:
    """Alternate decision path through the Hilbert symbol at one place.

    mu = "1" exactly when (Theta, t) is trivial at the valid place above t.
    Theta's factors are units over denominators prime to t, so its residue
    is a t-adic unit, never 0: its symbol against the local nonresidue u is
    trivial, and the uniformizer's is the only bit; it agrees with delta's.
    """
    t = place.t
    eps, f1, f2 = _theta_parts(OcticField(p, q, s))
    if jacobi(residue_at(eps[p * q], place), t) != -1:
        raise InvalidPlace(f"eps_pq is a square at the place above {t}")
    return "1" if hilbert_symbol(residue_at(f1, place) * residue_at(f2, place) % t, t, t) == 1 else "eps_pq"


def noncollapse_check(
    triple1: tuple[int, int, int],
    triple2: tuple[int, int, int],
    prime_bound: int = DEFAULT_PRIME_BOUND,
) -> tuple[bool, dict]:
    """True when the classical data agree but the residual bits differ."""
    c1 = delta(*triple1, prime_bound=prime_bound, with_fsu=False)
    c2 = delta(*triple2, prime_bound=prime_bound, with_fsu=False)
    same_datum = c1.datum == c2.datum
    differs = c1.delta != c2.delta
    report = {
        "triple1": {"triple": triple1, "datum": c1.datum.as_tuple(), "delta": c1.delta},
        "triple2": {"triple": triple2, "datum": c2.datum.as_tuple(), "delta": c2.delta},
        "datum_equal": same_datum,
        "delta_differs": differs,
        "certificates": (c1, c2),
    }
    return same_datum and differs, report
