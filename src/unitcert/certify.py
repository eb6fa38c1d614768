"""Local certification machinery over F2.

Hilbert test functionals at split places, rank-based search for functionals
resolving an affine coset of squareclasses, and separation of arbitrary
finite candidate families by finitely many local bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .arith import hilbert_symbol, jacobi, local_basis
from .errors import (
    DenominatorNotInvertible,
    Inseparable,
    NonUnitResidue,
    RankDeficient,
    SearchExhausted,
)
from .fields import TowerElement, sqrt_exact
from .residual import (
    SplitPlace,
    enumerate_places,
    iter_split_primes,
    reduce_mod,
    residue_at,
    residue_from,
)

DEFAULT_FUNCTIONAL_BOUND = 100_000
DEFAULT_FUNCTIONAL_PRIMES = 64


@dataclass(frozen=True)
class TestFunctional:
    """F2-valued functional x -> bit of the Hilbert symbol (x, b) at a place.

    The basis element b is either the smallest local nonresidue ("u") or the
    uniformizer t itself ("t"). On a t-adic unit r, (r, t)_t is the Legendre
    symbol (r/t) and (r, u)_t = 1, so a "u" functional is 0 on every unit
    residue: the searches below stream only "t" functionals, and `test_vector`
    alone still evaluates "u".
    """

    place: SplitPlace
    basis: str  # "u" or "t"
    value: int

    def evaluate(self, x) -> int:
        t = self.place.t
        try:
            r = residue_at(x, self.place)
        except DenominatorNotInvertible as exc:
            raise NonUnitResidue(str(exc)) from exc
        if r == 0:
            raise NonUnitResidue(f"zero residue at the place above {t}")
        return 0 if hilbert_symbol(r, self.value, t) == 1 else 1

    def to_json_dict(self) -> dict:
        return {
            "t": str(self.place.t),
            "signs": list(self.place.signs),
            "basis": self.basis,
            "value": str(self.value),
        }


def test_vector(x, place: SplitPlace) -> tuple[int, int]:
    """Local Hilbert test vector of x against the basis (t, u) at a place."""
    t, u = local_basis(place.t)
    return (
        TestFunctional(place, "t", t).evaluate(x),
        TestFunctional(place, "u", u).evaluate(x),
    )


def _field_of(elements: list[TowerElement]):
    towers = {e.tower for e in elements}
    if len(towers) != 1:
        raise ValueError("all elements must live in one octic field")
    tower = towers.pop()
    if not hasattr(tower, "p"):
        raise ValueError("local certification requires octic-field elements")
    return tower


def _iter_functionals(tower, elements: list[TowerElement], bound: int, max_primes: int):
    """Deterministic functional stream: ascending split primes, places in
    `enumerate_places` order, one "t" functional per place, each with its bits
    on `elements`. A place where one of them has a zero or non-invertible
    residue is left out.

    The elements are reduced once per prime and their residues read off at
    the eight places; a bit is the Legendre symbol of the residue, which is
    the functional's Hilbert symbol on a unit.
    """
    p, q, s = tower.p, tower.q, tower.s
    for t in islice(iter_split_primes(p, q, s, bound), max_primes):
        try:
            reduced = [reduce_mod(x, t) for x in elements]
        except DenominatorNotInvertible:
            continue
        for place in enumerate_places(t, p, q, s):
            residues = [residue_from(v, place) for v in reduced]
            if 0 not in residues:
                yield TestFunctional(place, "t", t), [0 if jacobi(r, t) == 1 else 1 for r in residues]


def _gf2_rank(rows: list[int]) -> int:
    work = [r for r in rows if r]
    rank = 0
    while work:
        pivot = work[0]
        low = pivot & -pivot
        rank += 1
        work = [r ^ pivot if r & low else r for r in work[1:] if (r ^ pivot if r & low else r)]
    return rank


def _gf2_solve(matrix_rows: list[int], rhs_bits: list[int], r: int) -> tuple[int, ...]:
    """Solve M e = v over F2 for an invertible r x r bit matrix (rows as ints)."""
    aug = [(matrix_rows[i] << 1) | rhs_bits[i] for i in range(r)]
    for col in range(r):
        colbit = 1 << (col + 1)
        pivot = next(i for i in range(col, r) if aug[i] & colbit)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for i in range(r):
            if i != col and aug[i] & colbit:
                aug[i] ^= aug[col]
    return tuple(aug[i] & 1 for i in range(r))


@dataclass
class AffineCertificate:
    """Functionals whose bit matrix on the generators is invertible over F2,
    plus the image of the base point: every coset member decodes from r bits."""

    functionals: list[TestFunctional]
    matrix: list[list[int]]  # matrix[i][j] = functional i on generator j
    base_bits: list[int]

    def encode(self, exponents: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            (self.base_bits[i] + sum(m * e for m, e in zip(row, exponents))) % 2
            for i, row in enumerate(self.matrix)
        )

    def decode(self, bits: tuple[int, ...]) -> tuple[int, ...]:
        r = len(self.functionals)
        rows = [sum(self.matrix[i][j] << j for j in range(r)) for i in range(r)]
        rhs = [(bits[i] ^ self.base_bits[i]) for i in range(r)]
        return _gf2_solve(rows, rhs, r)


def certify_affine(
    u0: TowerElement,
    generators: list[TowerElement],
    bound: int = DEFAULT_FUNCTIONAL_BOUND,
    max_primes: int = DEFAULT_FUNCTIONAL_PRIMES,
) -> AffineCertificate:
    """Search for functionals of full rank on the span of the generators.

    The returned functionals decode any class u0 * prod(g_i^e_i) from its bit
    vector. Places where any involved element has non-unit residue are skipped.
    """
    r = len(generators)
    if r == 0:
        return AffineCertificate([], [], [])
    tower = _field_of([u0, *generators])
    chosen: list[TestFunctional] = []
    matrix: list[list[int]] = []
    base_bits: list[int] = []
    row_masks: list[int] = []
    detected = [False] * r
    for functional, bits in _iter_functionals(tower, [*generators, u0], bound, max_primes):
        col, base = bits[:-1], bits[-1]
        for j, bit in enumerate(col):
            if bit:
                detected[j] = True
        mask = sum(bit << j for j, bit in enumerate(col))
        if mask == 0:
            continue
        if _gf2_rank(row_masks + [mask]) <= len(row_masks):
            continue
        chosen.append(functional)
        matrix.append(col)
        base_bits.append(base)
        row_masks.append(mask)
        if len(chosen) == r:
            return AffineCertificate(chosen, matrix, base_bits)
    for j, hit in enumerate(detected):
        if not hit:
            raise RankDeficient(
                f"generator {j} was not detected by any functional below {bound}; "
                "dependence suspected"
            )
    raise SearchExhausted(
        f"rank {len(chosen)} of {r} reached with split primes below {bound}"
    )


@dataclass
class SeparationCertificate:
    """Functionals whose combined bit rows are pairwise distinct on the family."""

    candidates: list[TowerElement]
    functionals: list[TestFunctional]
    table: list[tuple[int, ...]]

    def __post_init__(self):
        if len(set(self.table)) != len(self.table):
            raise ValueError("separation table has duplicate rows")

    def to_json_dict(self) -> dict:
        return {
            "candidates": [c.to_text() for c in self.candidates],
            "functionals": [f.to_json_dict() for f in self.functionals],
            "table": [list(row) for row in self.table],
        }


def separate_candidates(
    candidates: list[TowerElement],
    bound: int = DEFAULT_FUNCTIONAL_BOUND,
    max_primes: int = DEFAULT_FUNCTIONAL_PRIMES,
) -> SeparationCertificate:
    """Separate a finite family of squareclasses by local Legendre bits.

    Greedy over the deterministic functional stream, keeping a functional when
    it raises the rank of the value matrix on the difference classes from the
    first candidate; stops once the candidate rows are pairwise distinct.
    Identical squareclasses are detected on exhaustion by the exact square-root
    oracle and reported with the offending pair.
    """
    if not candidates:
        raise ValueError("at least one candidate is required")
    if len(candidates) == 1:
        return SeparationCertificate(list(candidates), [], [()])
    tower = _field_of(candidates)
    # difference of squareclasses = product; dividing by u0 differs by a square
    diffs = [c * candidates[0] for c in candidates[1:]]
    chosen: list[TestFunctional] = []
    rows: list[tuple[int, ...]] = [() for _ in candidates]
    row_masks: list[int] = []
    for functional, values in _iter_functionals(tower, [*diffs, *candidates], bound, max_primes):
        col, bits = values[:len(diffs)], values[len(diffs):]
        mask = sum(bit << j for j, bit in enumerate(col))
        if mask == 0 or _gf2_rank(row_masks + [mask]) <= len(row_masks):
            continue
        chosen.append(functional)
        row_masks.append(mask)
        rows = [rows[i] + (bits[i],) for i in range(len(candidates))]
        if len(set(rows)) == len(rows):
            return SeparationCertificate(list(candidates), chosen, rows)
    collisions = [
        (i, j)
        for i in range(len(candidates))
        for j in range(i + 1, len(candidates))
        if rows[i] == rows[j]
    ]
    for i, j in collisions:
        if sqrt_exact(candidates[i] * candidates[j]) is not None:
            raise Inseparable(i, j)
    raise SearchExhausted(
        f"rows still collide after scanning split primes below {bound}: {collisions}"
    )
