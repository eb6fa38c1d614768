"""Local certification machinery over F2.

Legendre test functionals at split places (the Hilbert symbol against the
uniformizer), a search for functionals resolving an affine coset of
squareclasses, and separation of arbitrary finite candidate families by
finitely many local bits. Both searches read one deterministic functional
stream and keep a functional exactly when its row raises the F2 rank, which
one incremental echelon basis decides.
"""

from __future__ import annotations

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
from .pell import _Frozen, _Record
from .residual import (
    DEFAULT_PRIME_BOUND,
    SplitPlace,
    _residues_above,
    enumerate_places,
    iter_split_primes,
    reduce_mod,
    residue_at,
)

FUNCTIONAL_PRIMES = 64  # split primes the functional stream reads


class TestFunctional(_Frozen):
    """F2-valued functional x -> Legendre bit of x's residue at a place above t.

    This is the Hilbert symbol (x, t) at the place: on a t-adic unit r,
    (r, t)_t is the Legendre symbol (r/t), and (r, u)_t = 1 for the local
    nonresidue u, so the uniformizer is the one basis element with a bit to
    give. The JSON names it as basis "t" with value t.
    """

    __slots__ = _key = ("place",)

    def __init__(self, place: SplitPlace):
        self._set(place)

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


def _iter_functionals(tower, elements: list[TowerElement]):
    """Deterministic functional stream: the first FUNCTIONAL_PRIMES split
    primes, ascending, places in `enumerate_places` order, one functional
    per place, each with its bits on `elements`. A place where one of them
    has a zero or non-invertible residue is left out.

    The elements are reduced once per prime and `_residues_above` gives their
    residues at the eight places, which `TestFunctional.evaluate` reads one by
    one; a bit is Euler's criterion on the sieved t where `evaluate` takes `jacobi`.
    """
    p, q, s = tower.p, tower.q, tower.s
    for t in islice(iter_split_primes(p, q, s), FUNCTIONAL_PRIMES):
        try:
            reduced = [reduce_mod(x, t) for x in elements]
        except DenominatorNotInvertible:
            continue
        places = enumerate_places(t, p, q, s)
        for place, *residues in zip(places, *(_residues_above(v, places[0].prime) for v in reduced)):
            if 0 not in residues:
                yield TestFunctional(place), [0 if pow(r, t >> 1, t) == 1 else 1 for r in residues]


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
    """Solve M e = v over F2 for an r x r bit matrix (rows as ints); ValueError if M is singular."""
    aug = [(matrix_rows[i] << 1) | rhs_bits[i] for i in range(r)]
    for col in range(r):
        colbit = 1 << (col + 1)
        pivot = next((i for i in range(col, r) if aug[i] & colbit), None)
        if pivot is None:
            raise ValueError(f"the {r} x {r} bit matrix is singular over F2")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for i in range(r):
            if i != col and aug[i] & colbit:
                aug[i] ^= aug[col]
    return tuple(aug[i] & 1 for i in range(r))


class AffineCertificate(_Record):
    """Functionals whose bit matrix on the generators is invertible over F2,
    plus the image of the base point: every coset member decodes from r bits.
    matrix[i][j] is functional i on generator j."""

    __slots__ = _key = ("functionals", "matrix", "base_bits")

    def __init__(self, functionals: list[TestFunctional], matrix: list[list[int]], base_bits: list[int]):
        r = len(functionals)
        if len(matrix) != r or any(len(row) != r for row in matrix) or len(base_bits) != r:
            raise ValueError(f"need an r x r bit matrix and r base bits, r = {r}")
        if not {*base_bits, *(m for row in matrix for m in row)} <= {0, 1}:
            raise ValueError(f"matrix entries and base bits must be 0 or 1, r = {r}")
        self.functionals, self.matrix, self.base_bits = functionals, matrix, base_bits

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


def certify_affine(u0: TowerElement, generators: list[TowerElement]) -> AffineCertificate:
    """Search for functionals of full rank on the span of the generators.

    The returned functionals decode any class u0 * prod(g_i^e_i) from its bit
    vector. The search reads the places above the first FUNCTIONAL_PRIMES
    split primes. Places where any involved element has non-unit residue are
    skipped.
    """
    r = len(generators)
    tower = _field_of([u0, *generators], ["u0", *(f"generator {j}" for j in range(r))])
    if r == 0:
        return AffineCertificate([], [], [])
    chosen: list[TestFunctional] = []
    matrix: list[list[int]] = []
    base_bits: list[int] = []
    stream = _iter_functionals(tower, [*generators, u0])
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
                f"generator {j} was not detected by any functional below {DEFAULT_PRIME_BOUND}; "
                "dependence suspected"
            )
    raise SearchExhausted(
        f"rank {len(chosen)} of {r} reached with split primes below {DEFAULT_PRIME_BOUND}"
    )


class SeparationCertificate(_Record):
    """Functionals whose combined bit rows are pairwise distinct on the family."""

    __slots__ = _key = ("candidates", "functionals", "table")

    def __init__(self, candidates: list[TowerElement], functionals: list[TestFunctional],
                 table: list[tuple[int, ...]]):
        if len(set(table)) != len(table):
            raise ValueError("separation table has duplicate rows")
        self.candidates, self.functionals, self.table = candidates, functionals, table

    def to_json_dict(self) -> dict:
        return {
            "candidates": [c.to_text() for c in self.candidates],
            "functionals": [f.to_json_dict() for f in self.functionals],
            "table": [list(row) for row in self.table],
        }


def separate_candidates(candidates: list[TowerElement]) -> SeparationCertificate:
    """Separate a finite family of squareclasses by local Legendre bits.

    Greedy over the deterministic functional stream (the places above the
    first FUNCTIONAL_PRIMES split primes), keeping a functional when
    it raises the rank of the value matrix on the difference classes c_i*c_0;
    their bits are XORs of candidate bits, so only the candidates are reduced.
    Stops once the candidate rows are pairwise distinct.
    Identical squareclasses are detected on exhaustion by the exact square-root
    oracle and reported with the offending pair.
    """
    if not candidates:
        raise ValueError("at least one candidate is required")
    tower = _field_of(candidates, [f"candidate {i}" for i in range(len(candidates))])
    if len(candidates) == 1:
        return SeparationCertificate(list(candidates), [], [()])
    chosen: list[TestFunctional] = []
    rows: list[tuple[int, ...]] = [() for _ in candidates]
    functionals = _iter_functionals(tower, candidates)
    stream = ((f, [bit ^ bits[0] for bit in bits[1:]] + bits) for f, bits in functionals)
    for functional, values in _independent(stream, len(candidates) - 1):
        chosen.append(functional)
        rows = [row + (bit,) for row, bit in zip(rows, values[len(candidates) - 1:])]
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
        f"rows still collide after scanning split primes below {DEFAULT_PRIME_BOUND}: {collisions}"
    )
