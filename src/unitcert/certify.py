"""Local certification machinery over F2.

Legendre test functionals at split places (the Hilbert symbol against the
uniformizer), a search for functionals resolving an affine coset of
squareclasses, and separation of arbitrary finite candidate families by
finitely many local bits. Both searches read one deterministic functional
stream and keep a functional exactly when its row raises the F2 rank, which
one incremental echelon basis decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .arith import jacobi
from .errors import (
    DenominatorNotInvertible,
    Inseparable,
    NonUnitResidue,
    RankDeficient,
    SearchExhausted,
)
from .fields import TowerElement, sqrt_exact
from .residual import (
    DEFAULT_PRIME_BOUND,
    SplitPlace,
    enumerate_places,
    iter_split_primes,
    reduce_mod,
    residue_at,
    residue_from,
)

FUNCTIONAL_PRIMES = 64  # split primes the functional stream reads below the caller's bound


@dataclass(frozen=True)
class TestFunctional:
    """F2-valued functional x -> Legendre bit of x's residue at a place above t.

    This is the Hilbert symbol (x, t) at the place: on a t-adic unit r,
    (r, t)_t is the Legendre symbol (r/t), and (r, u)_t = 1 for the local
    nonresidue u, so the uniformizer is the one basis element with a bit to
    give. The JSON names it as basis "t" with value t.
    """

    place: SplitPlace

    def evaluate(self, x) -> int:
        t = self.place.t
        try:
            r = residue_at(x, self.place)
        except DenominatorNotInvertible as exc:
            raise NonUnitResidue(str(exc)) from exc
        if r == 0:
            raise NonUnitResidue(f"zero residue at the place above {t}")
        return 0 if jacobi(r, t) == 1 else 1

    def to_json_dict(self) -> dict:
        return {
            "t": str(self.place.t),
            "signs": list(self.place.signs),
            "basis": "t",
            "value": str(self.place.t),
        }


def _field_of(elements: list[TowerElement], names: list[str]):
    for e, name in zip(elements, names):
        if e.is_zero():
            raise ValueError(f"{name} is zero, which has no squareclass")
    towers = {e.tower for e in elements}
    if len(towers) != 1:
        raise ValueError("all elements must live in one octic field")
    tower = towers.pop()
    if not hasattr(tower, "p"):
        raise ValueError("local certification requires octic-field elements")
    return tower


def _iter_functionals(tower, elements: list[TowerElement], bound: int):
    """Deterministic functional stream: the first FUNCTIONAL_PRIMES split
    primes below bound, ascending, places in `enumerate_places` order, one
    functional per place, each with its bits on `elements`. A place where
    one of them has a zero or non-invertible residue is left out.

    The elements are reduced once per prime and their residues read off at
    the eight places, as `TestFunctional.evaluate` would read them one by one.
    """
    p, q, s = tower.p, tower.q, tower.s
    for t in islice(iter_split_primes(p, q, s, bound), FUNCTIONAL_PRIMES):
        try:
            reduced = [reduce_mod(x, t) for x in elements]
        except DenominatorNotInvertible:
            continue
        for place in enumerate_places(t, p, q, s):
            residues = [residue_from(v, place) for v in reduced]
            if 0 not in residues:
                yield TestFunctional(place), [0 if jacobi(r, t) == 1 else 1 for r in residues]


def _independent(stream, width: int):
    """The (functional, bits) items of `stream` whose first `width` bits, as a
    row over F2, raise the rank of the rows yielded before. Those are kept as
    an echelon basis, each reduced against the earlier ones with its lowest
    bit as pivot; reducing a new row by them in order leaves it nonzero
    exactly when it is independent of them."""
    basis: list[tuple[int, int]] = []  # (pivot bit, reduced row)
    for functional, bits in stream:
        row = sum(bit << j for j, bit in enumerate(bits[:width]))
        for pivot, kept in basis:
            if row & pivot:
                row ^= kept
        if row:
            basis.append((row & -row, row))
            yield functional, bits


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

    def _check_length(self, vector: tuple[int, ...], what: str) -> int:
        r = len(self.functionals)
        if len(vector) != r:
            raise ValueError(f"{what} has {len(vector)} entries, need r = {r}")
        return r

    def encode(self, exponents: tuple[int, ...]) -> tuple[int, ...]:
        self._check_length(exponents, "exponent vector")
        return tuple(
            (self.base_bits[i] + sum(m * e for m, e in zip(row, exponents))) % 2
            for i, row in enumerate(self.matrix)
        )

    def decode(self, bits: tuple[int, ...]) -> tuple[int, ...]:
        r = self._check_length(bits, "bit vector")
        if any(bit not in (0, 1) for bit in bits):
            raise ValueError(f"bits to decode must be 0 or 1, got {tuple(bits)} (r = {r})")
        rows = [sum(self.matrix[i][j] << j for j in range(r)) for i in range(r)]
        rhs = [(bits[i] ^ self.base_bits[i]) for i in range(r)]
        return _gf2_solve(rows, rhs, r)


def certify_affine(
    u0: TowerElement,
    generators: list[TowerElement],
    bound: int = DEFAULT_PRIME_BOUND,
) -> AffineCertificate:
    """Search for functionals of full rank on the span of the generators.

    The returned functionals decode any class u0 * prod(g_i^e_i) from its bit
    vector. The search reads the places above the first FUNCTIONAL_PRIMES
    split primes below bound. Places where any involved element has non-unit
    residue are skipped.
    """
    r = len(generators)
    tower = _field_of([u0, *generators], ["u0", *(f"generator {j}" for j in range(r))])
    if r == 0:
        return AffineCertificate([], [], [])
    chosen: list[TestFunctional] = []
    matrix: list[list[int]] = []
    base_bits: list[int] = []
    stream = _iter_functionals(tower, [*generators, u0], bound)
    for functional, bits in _independent(stream, r):
        chosen.append(functional)
        matrix.append(bits[:-1])
        base_bits.append(bits[-1])
        if len(chosen) == r:
            return AffineCertificate(chosen, matrix, base_bits)
    # the kept rows span the streamed ones: a bit that none has, no functional gave
    for j in range(r):
        if not any(row[j] for row in matrix):
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
    bound: int = DEFAULT_PRIME_BOUND,
) -> SeparationCertificate:
    """Separate a finite family of squareclasses by local Legendre bits.

    Greedy over the deterministic functional stream (the places above the
    first FUNCTIONAL_PRIMES split primes below bound), keeping a functional when
    it raises the rank of the value matrix on the difference classes from the
    first candidate; stops once the candidate rows are pairwise distinct.
    Identical squareclasses are detected on exhaustion by the exact square-root
    oracle and reported with the offending pair.
    """
    if not candidates:
        raise ValueError("at least one candidate is required")
    tower = _field_of(candidates, [f"candidate {i}" for i in range(len(candidates))])
    if len(candidates) == 1:
        return SeparationCertificate(list(candidates), [], [()])
    # difference of squareclasses = product; dividing by u0 differs by a square
    diffs = [c * candidates[0] for c in candidates[1:]]
    chosen: list[TestFunctional] = []
    rows: list[tuple[int, ...]] = [() for _ in candidates]
    stream = _iter_functionals(tower, [*diffs, *candidates], bound)
    for functional, values in _independent(stream, len(diffs)):
        chosen.append(functional)
        rows = [row + (bit,) for row, bit in zip(rows, values[len(diffs):])]
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
