"""Rule-defined benchmark inputs: the in-pattern corpus and the size ladder.

The rules are implemented here with their own arithmetic, so the inputs do not
change when the program under test changes. A triple (p, q, s) is in pattern
when p, q, s are distinct primes with p = 7 and q = s = 3 (mod 8) and the
Legendre symbols ((q/p), (s/p), (q/s)) are (1, 1, 1) or (-1, -1, 1).
"""

from __future__ import annotations

import random
from math import isqrt

CORPUS_LIMIT = 400
CORPUS_RULE = (
    "every triple (p, q, s) of primes below 400 with q < s, p = 7 and "
    "q = s = 3 (mod 8), and ((q/p), (s/p), (q/s)) in {(1, 1, 1), (-1, -1, 1)}"
)
LADDER_RUNGS = (("1e3", 1_000), ("3e3", 3_000), ("1e4", 10_000), ("3e4", 30_000))
LADDER_RULE = (
    "p is the least prime = 7 (mod 8) that is >= N; (q, s) is the seed-th "
    "in-pattern pair, in lexicographic order, of primes = 3 (mod 8) that are "
    ">= N, with q < s"
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % k for k in range(3, isqrt(n) + 1, 2))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p not dividing a."""
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def in_pattern(p: int, q: int, s: int) -> bool:
    if len({p, q, s}) != 3 or not all(map(is_prime, (p, q, s))):
        return False
    if (p % 8, q % 8, s % 8) != (7, 3, 3):
        return False
    return (legendre(q, p), legendre(s, p), legendre(q, s)) in ((1, 1, 1), (-1, -1, 1))


def corpus() -> list[tuple[int, int, int]]:
    """The rule-defined corpus, sorted lexicographically."""
    ps = [n for n in range(7, CORPUS_LIMIT, 8) if is_prime(n)]
    qs = [n for n in range(3, CORPUS_LIMIT, 8) if is_prime(n)]
    return [
        (p, q, s)
        for p in ps
        for i, q in enumerate(qs)
        for s in qs[i + 1:]
        if in_pattern(p, q, s)
    ]


def corpus_order(seed: int, block: int, size) -> list[tuple[int, int, int]]:
    """The corpus in a seed-drawn order whose prefixes are stratified by size.

    The corpus, sorted by `size(triple)` (then lexicographically), is cut into
    blocks of `block` consecutive triples. Round r takes one not yet used
    triple from every block, and the rounds follow each other, each in
    shuffled order. So any prefix of whole rounds draws evenly from every
    size, which keeps sample figures close from one seed to the next.
    """
    triples = sorted(corpus(), key=lambda t: (size(t), t))
    rng = random.Random(seed)
    blocks = [triples[i:i + block] for i in range(0, len(triples), block)]
    for b in blocks:
        rng.shuffle(b)
    order = []
    for r in range(block):
        batch = [b[r] for b in blocks if r < len(b)]
        rng.shuffle(batch)
        order.extend(batch)
    return order


def ladder_triple(n: int, seed: int) -> tuple[int, int, int]:
    """The rung triple at size n for a seed, by LADDER_RULE.

    In lexicographic order every pair starting with the least prime q = 3
    (mod 8) that is >= n comes first, so the seed-th pair is (q, s) with s
    the seed-th prime above q that completes an in-pattern triple.
    """
    p = next(m for m in range(n, 2 * n) if m % 8 == 7 and is_prime(m))
    q = next(m for m in range(n, 2 * n) if m % 8 == 3 and is_prime(m))
    found = -1
    s = q
    while found < seed:
        s += 8
        if in_pattern(p, q, s):
            found += 1
    return (p, q, s)


def ladder(seed: int) -> list[tuple[str, tuple[int, int, int]]]:
    return [(name, ladder_triple(n, seed)) for name, n in LADDER_RUNGS]
