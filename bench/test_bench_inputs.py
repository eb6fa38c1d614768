"""Tests of the benchmark's input generators, frozen reference and tracer."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_corpus_is_the_rule_defined_986_triples():
    triples = inputs.corpus()
    assert len(triples) == 986
    assert triples == sorted(set(triples))
    for p, q, s in triples:
        assert max(p, q, s) < 400 and q < s
        assert inputs.in_pattern(p, q, s)


def test_corpus_order_is_a_stratified_permutation():
    triples = inputs.corpus()
    order = inputs.corpus_order(3, 8, sum)
    assert order == inputs.corpus_order(3, 8, sum)
    assert order != inputs.corpus_order(4, 8, sum)
    assert sorted(order) == triples
    by_sum = sorted(triples, key=lambda t: (sum(t), t))
    assert sorted(by_sum.index(t) // 8 for t in order[:124]) == list(range(124))


def test_ladder_seed_0_reproduces_the_baseline_triples():
    assert inputs.ladder(0) == [
        ("1e3", (1031, 1019, 1171)),
        ("3e3", (3023, 3011, 3019)),
        ("1e4", (10007, 10067, 10091)),
        ("3e4", (30047, 30011, 30139)),
    ]
    for _, triple in inputs.ladder(1):
        assert inputs.in_pattern(*triple)


def test_reference_table_covers_the_corpus():
    doc = json.loads((HERE / "reference.json").read_text())
    assert [tuple(r[:3]) for r in doc["triples"]] == inputs.corpus()
    assert doc["delta_histogram"] == {"0": 483, "1": 503}
    for p, q, s, bit, mu, t, signs, unit_bits, affine_t, _ in doc["triples"]:
        assert mu == ("1" if bit == 0 else "eps_pq")
        assert inputs.is_prime(t) and len(signs) == 3
        assert unit_bits > 0 and inputs.is_prime(affine_t)
    assert sorted(r[-1] for r in doc["triples"]) == list(range(986))
    rungs = [(r["rung"], tuple(r["answer"][:3])) for r in doc["ladder"]["rungs"]]
    assert rungs == inputs.ladder(doc["ladder"]["seed"])


def test_tracer_skips_a_missing_hook(monkeypatch):
    unitcert = pytest.importorskip("unitcert")
    import unitcert.residual

    monkeypatch.delattr(unitcert.residual, "sqrt_octic")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        cert = unitcert.delta(7, 3, 59, with_fsu=False)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert cert.delta == 1
    assert tracer.missing == ["residual.sqrt_octic"]
    metrics = tracer.metrics()
    assert "fields.oracle.ms" not in metrics
    assert metrics["pell.fundamental_pell.calls"][0] > 0
    assert metrics["residual.delta.self_ms"][0] > 0
    assert metrics["residual.places.evaluated"][0] >= 1
    assert unitcert.delta.__module__ == "unitcert.residual"
    assert not hasattr(unitcert.delta, "__wrapped__")
