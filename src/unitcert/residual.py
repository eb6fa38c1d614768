"""The split-prime residue pipeline.

Validates the congruence hypotheses on (p, q, s), builds the normalized Theta,
searches for a split prime with a valid place, decides the residual bit delta
by one Legendre symbol, and emits the complete rank-7 unit system together
with a fully auditable certificate. The optional oracle confirms the bit with
one exact square root, xi of mu*Theta, and a local proof at the certificate's
place that the other candidate is no square; six of the seven unit
generators come from closed forms, and only xi needs the descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .arith import _sqrt_mod_prime, hilbert_symbol, jacobi, local_basis, odd_primes
from .errors import (
    DenominatorNotInvertible,
    HypothesisViolation,
    InvalidPlace,
    NonUnitResidue,
    OracleDisagreement,
    SearchExhausted,
)
from .fields import (
    OcticField,
    TowerElement,
    _check_triple,
    sqrt_octic,
    sqrt_unit_product,
    theta,
)
from .pell import QuadUnit, fundamental_pell

# Pell-unit convention recorded in every certificate: the smallest unit > 1 of
# Z[sqrt(d)], from the continued fraction of sqrt(d). A maximal-order
# convention would differ for some d and could flip delta.
EPS_CONVENTION = "pell-unit-of-Z[sqrt d]"

ALLOWED_BRANCHES = ((1, 1, 1), (-1, -1, 1))

DEFAULT_PRIME_BOUND = 100_000
DEFAULT_PRIME_COUNT = 50


@dataclass(frozen=True)
class ClassicalDatum:
    """Residues mod 8 and the three Legendre symbols attached to (p, q, s)."""

    p_mod8: int
    q_mod8: int
    s_mod8: int
    leg_q_p: int
    leg_s_p: int
    leg_q_s: int

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.p_mod8, self.q_mod8, self.s_mod8, self.leg_q_p, self.leg_s_p, self.leg_q_s)

    def branch(self) -> tuple[int, int, int]:
        return (self.leg_q_p, self.leg_s_p, self.leg_q_s)


def _datum(p: int, q: int, s: int) -> ClassicalDatum:
    return ClassicalDatum(p % 8, q % 8, s % 8, jacobi(q, p), jacobi(s, p), jacobi(q, s))


def classical_datum(p: int, q: int, s: int) -> ClassicalDatum:
    """The 6-tuple (p mod 8, q mod 8, s mod 8, (q/p), (s/p), (q/s))."""
    _check_triple(p, q, s)
    return _datum(p, q, s)


def hypothesis_branch(p: int, q: int, s: int) -> tuple[int, int, int]:
    """Checks p = 7, q = s = 3 mod 8 and the Legendre pattern; returns the branch."""
    return _branch(classical_datum(p, q, s))


def _branch(datum: ClassicalDatum) -> tuple[int, int, int]:
    if datum.p_mod8 != 7 or datum.q_mod8 != 3 or datum.s_mod8 != 3:
        raise HypothesisViolation(
            f"need p = 7 and q = s = 3 mod 8, got ({datum.p_mod8}, {datum.q_mod8}, {datum.s_mod8})"
        )
    br = datum.branch()
    if br not in ALLOWED_BRANCHES:
        raise HypothesisViolation(
            f"Legendre pattern {br} is outside the supported branches {ALLOWED_BRANCHES}"
        )
    return br


# -- split places ----------------------------------------------------------


@dataclass
class SplitPlace:
    """A place above an odd prime t split in the octic field: an embedding of
    the tower into F_t given by compatible residues of the three radicals."""

    t: int
    p: int
    q: int
    s: int
    r2: int
    rpq: int
    rps: int
    signs: tuple[int, int, int] = (1, 1, 1)
    residues: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        t, p = self.t, self.p
        if (2 * self.p * self.q * self.s) % t == 0:
            raise ValueError(f"t = {t} divides 2pqs")
        for r, m in ((self.r2, 2), (self.rpq, p * self.q), (self.rps, p * self.s)):
            if r * r % t != m % t:
                raise ValueError(f"{r}^2 is not {m} mod {t}")
        pinv = pow(p, -1, t)
        self.residues = {
            1: 1,
            2: self.r2,
            p * self.q: self.rpq,
            2 * p * self.q: self.r2 * self.rpq % t,
            p * self.s: self.rps,
            2 * p * self.s: self.r2 * self.rps % t,
            self.q * self.s: self.rpq * self.rps * pinv % t,
            2 * self.q * self.s: self.r2 * self.rpq * self.rps * pinv % t,
        }

    def key(self) -> tuple[int, tuple[int, int, int]]:
        return (self.t, self.signs)


def iter_split_primes(p: int, q: int, s: int, bound: int = DEFAULT_PRIME_BOUND) -> Iterator[int]:
    """Odd primes t <= bound that split completely in Q(sqrt2, sqrt pq, sqrt ps),
    ascending: t = +-1 (mod 8), so that 2 is a square mod t, and
    (pq/t) = (ps/t) = 1, which also leaves out the t dividing pqs. The primes
    come from the sieve of `arith.odd_primes`; no t is tested for primality.
    The triple is taken to be validated, as `OcticField` and
    `classical_datum` do, and is not validated again.
    """
    pq, ps = p * q, p * s
    for t in odd_primes(bound):
        if t % 8 in (1, 7) and jacobi(pq, t) == 1 and jacobi(ps, t) == 1:
            yield t


def find_split_primes(p: int, q: int, s: int, count: int, bound: int = DEFAULT_PRIME_BOUND) -> list[int]:
    """The first `count` split primes below `bound`, ascending."""
    _check_triple(p, q, s)
    out = []
    for t in iter_split_primes(p, q, s, bound):
        out.append(t)
        if len(out) == count:
            return out
    raise SearchExhausted(f"only {len(out)} of {count} split primes below {bound}")


_SIGN_TRIPLES = tuple(
    (s2, spq, sps) for s2 in (1, -1) for spq in (1, -1) for sps in (1, -1)
)


def enumerate_places(t: int, p: int, q: int, s: int) -> list[SplitPlace]:
    """The eight places above a split prime t, ordered lexicographically by the
    sign choices on the canonical roots, all-canonical first.

    t is taken to be an odd prime, as `iter_split_primes` yields them, and is
    not proven prime again; every root is checked by `SplitPlace`."""
    c2 = _sqrt_mod_prime(2, t)
    cpq = _sqrt_mod_prime(p * q, t)
    cps = _sqrt_mod_prime(p * s, t)
    if not c2 or not cpq or not cps:
        raise ValueError(f"{t} does not split in the octic field for ({p}, {q}, {s})")
    places = []
    for s2, spq, sps in _SIGN_TRIPLES:
        places.append(
            SplitPlace(
                t, p, q, s,
                c2 if s2 > 0 else t - c2,
                cpq if spq > 0 else t - cpq,
                cps if sps > 0 else t - cps,
                signs=(s2, spq, sps),
            )
        )
    return places


def reduce_mod(x, t: int) -> tuple[tuple[int, int], ...]:
    """The nonzero coordinates of a unit, tower element or rational mod t, as
    (radicand, residue) pairs.

    An element is reduced once per prime: its residue at each of the places
    above t is then the sum of residue * place.residues[radicand], read off by
    `residue_from`. Raises DenominatorNotInvertible when t divides the
    denominator of a nonzero coordinate.
    """
    if isinstance(x, QuadUnit):
        return ((1, x.x % t), (x.d, x.y % t))
    if isinstance(x, TowerElement):
        pairs = zip(x.tower.radicands, x.coords)
    elif isinstance(x, (int, Fraction)):
        pairs = ((1, Fraction(x)),)
    else:
        raise TypeError(f"cannot reduce {type(x).__name__} at a place")
    out = []
    for m, c in pairs:
        if c == 0:
            continue
        if c.denominator % t == 0:
            raise DenominatorNotInvertible(f"denominator {c.denominator} not invertible mod {t}")
        out.append((m, c.numerator * pow(c.denominator, -1, t) % t))
    return tuple(out)


def residue_from(reduced: tuple[tuple[int, int], ...], place: SplitPlace) -> int:
    """Residue at a place of an element reduced mod place.t by `reduce_mod`."""
    residues = place.residues
    total = 0
    for m, c in reduced:
        if m not in residues:
            raise ValueError(f"sqrt({m}) has no residue at this place")
        total += c * residues[m]
    return total % place.t


def residue_at(x, place: SplitPlace) -> int:
    """Residue of a unit, biquadratic, or octic element at a split place."""
    return residue_from(reduce_mod(x, place.t), place)


# -- certificates ----------------------------------------------------------


@dataclass
class Generator:
    """One member of the unit system: a symbolic name plus the exact element
    when its square root was computed, with a flag and optional warning."""

    name: str
    element: TowerElement | None
    exact: bool
    mu: str | None = None
    warning: str | None = None

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


@dataclass
class Certificate:
    """Complete audit trail of one residual-bit decision."""

    p: int
    q: int
    s: int
    datum: ClassicalDatum
    eps_convention: str
    hypotheses_verified: bool
    place: SplitPlace
    theta_residue: int
    eps_pq_residue: int
    legendre_theta: int
    legendre_eps: int
    delta: int
    mu: str
    fsu: list[Generator] | None
    oracle_checked: bool
    # the Theta of the decision, kept for a survey of the same triple; not in the JSON
    theta: TowerElement | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.legendre_eps != -1:
            raise InvalidPlace("certificate place must have eps_pq a local nonsquare")
        if self.delta != (0 if self.legendre_theta == 1 else 1):
            raise ValueError("delta is inconsistent with the Legendre bit")
        if self.mu != ("1" if self.delta == 0 else "eps_pq"):
            raise ValueError("mu is inconsistent with delta")

    def to_json_dict(self) -> dict:
        place = self.place
        return {
            "triple": {"p": str(self.p), "q": str(self.q), "s": str(self.s)},
            "datum": {
                "p_mod8": self.datum.p_mod8,
                "q_mod8": self.datum.q_mod8,
                "s_mod8": self.datum.s_mod8,
                "legendre_q_p": self.datum.leg_q_p,
                "legendre_s_p": self.datum.leg_s_p,
                "legendre_q_s": self.datum.leg_q_s,
            },
            "eps_convention": self.eps_convention,
            "hypotheses_verified": self.hypotheses_verified,
            "place": {
                "t": str(place.t),
                "signs": list(place.signs),
                "r2": str(place.r2),
                "rpq": str(place.rpq),
                "rps": str(place.rps),
                "r2pq": str(place.residues[2 * place.p * place.q]),
                "r2ps": str(place.residues[2 * place.p * place.s]),
                "rqs": str(place.residues[place.q * place.s]),
                "r2qs": str(place.residues[2 * place.q * place.s]),
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


@dataclass
class PlaceDecision:
    """Evaluation of one (t, place) pair: validity and, when valid, the bit."""

    place: SplitPlace
    eps_residue: int
    legendre_eps: int
    valid: bool
    theta_residue: int | None = None
    legendre_theta: int | None = None
    delta: int | None = None


def _scan_places(
    p: int,
    q: int,
    s: int,
    theta_elem: TowerElement,
    eps_pq: QuadUnit,
    prime_bound: int,
    prime_count: int,
) -> Iterator[PlaceDecision]:
    """Decisions at the places above the first prime_count split primes, in
    ascending (t, signs) order, so the first valid one is the paper's place.

    Theta is reduced once per prime, at the first valid place above it; a
    denominator of Theta that t divides, or a zero Theta residue, ends the
    places above t and the scan moves on to the next t. The unit eps_pq has
    integer coordinates and no inverse to share, so `residue_at` takes its
    residue at each place.
    """
    for t in islice(iter_split_primes(p, q, s, prime_bound), prime_count):
        theta_mod = None
        for place in enumerate_places(t, p, q, s):
            r_eps = residue_at(eps_pq, place)
            leg_eps = jacobi(r_eps, t)
            if leg_eps != -1:
                yield PlaceDecision(place, r_eps, leg_eps, valid=False)
                continue
            if theta_mod is None:
                try:
                    theta_mod = reduce_mod(theta_elem, t)
                except DenominatorNotInvertible:
                    break
            r_theta = residue_from(theta_mod, place)
            if r_theta == 0:
                break  # cannot happen for a unit; defend against bad inputs
            leg_theta = jacobi(r_theta, t)
            yield PlaceDecision(
                place, r_eps, leg_eps, True, r_theta, leg_theta, 0 if leg_theta == 1 else 1
            )


def survey_places(
    p: int,
    q: int,
    s: int,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    prime_count: int = DEFAULT_PRIME_COUNT,
    cache: dict[int, QuadUnit] | None = None,
    theta_elem: TowerElement | None = None,
) -> list[PlaceDecision]:
    """Every place above the first split primes, by the scan `delta` makes:
    the residue of eps_pq everywhere, and Theta's residue and delta at the
    valid places. A Theta built by the caller (`Certificate.theta`) is used
    as given."""
    if cache is None:
        cache = {}  # each Pell unit once per call
    if theta_elem is None:
        theta_elem = theta(p, q, s, cache)
    else:
        _check_triple(p, q, s)
    eps_pq = fundamental_pell(p * q, cache)
    return list(_scan_places(p, q, s, theta_elem, eps_pq, prime_bound, prime_count))


def _fsu_generators(
    octic: OcticField,
    mu: str,
    xi: TowerElement | None,
    cache: dict[int, QuadUnit] | None,
) -> list[Generator]:
    p, q, s = octic.p, octic.q, octic.s
    eps = {d: fundamental_pell(d, cache) for d in (2, p * q, p * s, q * s, 2 * q * s, 2 * p * q)}

    def generator(name: str, root: TowerElement | None, mu_tag: str | None = None) -> Generator:
        if root is None:
            return Generator(
                name, None, False, mu_tag,
                "not a square in the octic field; hypothesis or convention mismatch",
            )
        return Generator(name, root, True, mu_tag)

    def rooted(name: str, *ds: int) -> Generator:
        return generator(name, sqrt_unit_product(octic, [eps[d] for d in ds]))

    return [
        Generator("eps_2", octic.from_quad_unit(eps[2]), True),
        Generator("eps_pq", octic.from_quad_unit(eps[p * q]), True),
        rooted("sqrt(eps_pq*eps_ps)", p * q, p * s),
        rooted("sqrt(eps_pq*eps_qs)", p * q, q * s),
        rooted("sqrt(eps_2qs)", 2 * q * s),
        rooted("sqrt(eps_pq*eps_2pq)", p * q, 2 * p * q),
        generator("xi", xi, mu),
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
    prime_count: int = DEFAULT_PRIME_COUNT,
    force: bool = False,
    oracle: bool | None = None,
    with_fsu: bool = True,
    cache: dict[int, QuadUnit] | None = None,
) -> Certificate:
    """Decide the residual bit delta(p, q, s) and certify it.

    Iterates (split prime, place) pairs in deterministic order, selects the
    first place where eps_pq has nonsquare residue, and reads delta off the
    Legendre symbol of the Theta residue; `survey_places` makes the same scan
    through all the places. With `force` the congruence check is
    downgraded to a certificate flag and the exact cross-check is switched on.
    The cross-check recomputes the decision globally: mu*Theta must have an
    exact root xi. The other candidate is then eps_pq^(+-1)*xi^2, a square
    only if eps_pq is one, and eps_pq is a nonresidue at the certificate's
    place by Euler's criterion, recomputed from its coordinates. xi is the
    one relative-norm descent of a call, made for the oracle or the FSU; the
    other FSU roots have closed forms. The triple is validated once, by
    building its octic field.
    """
    octic = OcticField(p, q, s)
    datum = _datum(p, q, s)
    hypotheses_verified = True
    try:
        _branch(datum)
    except HypothesisViolation:
        if not force:
            raise
        hypotheses_verified = False
    oracle_on = bool(oracle)
    if not hypotheses_verified:
        oracle_on = True

    if cache is None:
        cache = {}  # each of the seven Pell units once per call
    theta_elem = theta(p, q, s, cache, octic)
    eps_pq = fundamental_pell(p * q, cache)

    chosen = next(
        (d for d in _scan_places(p, q, s, theta_elem, eps_pq, prime_bound, prime_count) if d.valid),
        None,
    )
    if chosen is None:
        raise SearchExhausted(
            f"no valid place below t = {prime_bound} (first {prime_count} split primes)"
        )
    place, bit, mu = chosen.place, chosen.delta, "1" if chosen.delta == 0 else "eps_pq"

    xi = None
    if oracle_on or with_fsu:
        xi = sqrt_octic(theta_elem if bit == 0 else octic.from_quad_unit(eps_pq) * theta_elem)
    if oracle_on:
        if xi is None:
            raise OracleDisagreement(
                f"residue criterion gives delta = {bit} but mu*Theta has no exact root"
            )
        if not _eps_is_local_nonsquare(eps_pq, place):
            raise OracleDisagreement(
                f"eps_pq is not a nonresidue at the place above t = {place.t}, "
                "so the other candidate is not excluded"
            )

    return Certificate(
        p=p, q=q, s=s,
        datum=datum,
        eps_convention=EPS_CONVENTION,
        hypotheses_verified=hypotheses_verified,
        place=place,
        theta_residue=chosen.theta_residue,
        eps_pq_residue=chosen.eps_residue,
        legendre_theta=chosen.legendre_theta,
        legendre_eps=-1,
        delta=bit,
        mu=mu,
        fsu=_fsu_generators(octic, mu, xi, cache) if with_fsu else None,
        oracle_checked=oracle_on,
        theta=theta_elem,
    )


def fsu(p: int, q: int, s: int, **options) -> list[Generator]:
    """The seven-generator unit system of the octic field, exact where possible."""
    return delta(p, q, s, with_fsu=True, **options).fsu


def decide_mu_hilbert(
    p: int,
    q: int,
    s: int,
    place: SplitPlace,
    cache: dict[int, QuadUnit] | None = None,
) -> tuple[str, tuple[int, int], int]:
    """Alternate decision path through Hilbert symbols at one place.

    Evaluates the local test vector of Theta against the basis (t, u) of the
    completion at the place; mu = "1" exactly when every symbol is trivial.
    Also returns the single basis element b with (eps_pq, b) = -1, which
    realizes the one-functional certification of the pair of candidates.
    Agreement with the Legendre path is an invariant, since the residue of
    Theta is a unit and only the uniformizer component can be nontrivial.
    """
    t, u = local_basis(place.t)
    if cache is None:
        cache = {}  # each Pell unit once per call
    eps_pq = fundamental_pell(p * q, cache)
    r_eps = residue_at(eps_pq, place)
    if jacobi(r_eps, t) != -1:
        raise InvalidPlace(f"eps_pq is a square at the place above {t}")
    theta_elem = theta(p, q, s, cache)
    r_theta = residue_at(theta_elem, place)
    if r_theta == 0:
        raise NonUnitResidue("Theta has zero residue at the place")
    vector = (
        0 if hilbert_symbol(r_theta, t, t) == 1 else 1,
        0 if hilbert_symbol(r_theta, u, t) == 1 else 1,
    )
    mu = "1" if vector == (0, 0) else "eps_pq"
    b = t if hilbert_symbol(r_eps, t, t) == -1 else u
    return mu, vector, b


def noncollapse_check(
    triple1: tuple[int, int, int],
    triple2: tuple[int, int, int],
    **options,
) -> tuple[bool, dict]:
    """True when the classical data agree but the residual bits differ."""
    c1 = delta(*triple1, with_fsu=False, **options)
    c2 = delta(*triple2, with_fsu=False, **options)
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
