"""Regenerate the frozen reference table of the benchmark corpus.

Run from the repository root:

    PYTHONPATH=src python3 bench/make_reference.py

Every corpus triple and every rung of the seed-0 size ladder is decided with
the exact octic oracle switched on, and the answers are written to
bench/reference.json with the rules and the corpus delta histogram. A rung
that raises is stored with its error type and no answer.

Each corpus triple also gets sizes that the benchmark sorts by before it
draws stratified samples: `unit_bits`, the total bit length of the Pell units
eps_pq, eps_2pq, eps_ps and eps_2ps that Theta is built from; `affine_t`, the
split prime at which certify_affine(1, [-1, g1..g7]) reaches full rank in the
fixed functional order (the local workload's cost depends on it); and
`cost_rank`, the triple's rank by the time of its corpus operation, the median
of three machine-speed-scaled runs when the table was made. The corpus tail
follows the cost rank much more closely than any size of the triple, so
samples stratified by it keep the tail steady from seed to seed.

The table is frozen: the benchmark checks every answer against it, so
regenerate it only when a rule itself changes.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import inputs  # noqa: E402
import unitcert  # noqa: E402

REFERENCE = HERE / "reference.json"
COLUMNS = ["p", "q", "s", "delta", "mu", "t", "signs", "unit_bits", "affine_t", "cost_rank"]
LADDER_SEED = 0
RANK_REPEATS = 3  # timed runs of each corpus triple behind its cost rank


def decide(p: int, q: int, s: int) -> list:
    cert = unitcert.delta(p, q, s, oracle=True, with_fsu=False)
    return [p, q, s, cert.delta, cert.mu, cert.place.t, list(cert.place.signs)]


def sizes(p: int, q: int, s: int) -> list:
    units = [unitcert.fundamental_pell(d) for d in (p * q, 2 * p * q, p * s, 2 * p * s)]
    bits = sum(u.x.bit_length() for u in units)
    octic = unitcert.OcticField(p, q, s)
    gens = [octic.from_rational(-1)] + [g.element for g in unitcert.fsu(p, q, s)]
    affine = unitcert.certify_affine(octic.one(), gens)
    return [bits, affine.functionals[-1].place.t]


def cost_ranks(triples: list) -> dict:
    """Each triple's rank by the median scaled time of its corpus operation."""
    times: dict = {t: [] for t in triples}
    for _ in range(RANK_REPEATS):
        for t in triples:
            elapsed, _ = clock.scaled_call(lambda: unitcert.delta(*t, oracle=True))
            times[t].append(elapsed)
    order = sorted(triples, key=lambda t: (sorted(times[t])[RANK_REPEATS // 2], t))
    return {t: rank for rank, t in enumerate(order)}


def main() -> int:
    triples = inputs.corpus()
    ranks = cost_ranks(triples)
    rows = [decide(*t) + sizes(*t) + [ranks[t]] for t in triples]
    hist = Counter(r[3] for r in rows)
    rungs = []
    for name, triple in inputs.ladder(LADDER_SEED):
        try:
            rungs.append({"rung": name, "answer": decide(*triple) + [None] * 3,
                          "error": None})
        except unitcert.UnitCertError as exc:
            rungs.append({"rung": name, "answer": [*triple] + [None] * (len(COLUMNS) - 3),
                          "error": type(exc).__name__})
    doc = {
        "rule": inputs.CORPUS_RULE,
        "generated_with": "unitcert.delta(p, q, s, oracle=True, with_fsu=False)",
        "columns": COLUMNS,
        "count": len(rows),
        "delta_histogram": {str(k): hist[k] for k in sorted(hist)},
        "ladder": {"rule": inputs.LADDER_RULE, "seed": LADDER_SEED, "rungs": rungs},
    }
    body = ",\n".join("    " + json.dumps(r) for r in rows)
    head = json.dumps(doc, indent=2)[:-2]
    REFERENCE.write_text(head + ',\n  "triples": [\n' + body + "\n  ]\n}\n")
    print(f"wrote {len(rows)} triples, delta histogram {dict(hist)}; ladder {rungs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
