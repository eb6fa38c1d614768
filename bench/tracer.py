"""In-memory span tracer that wraps the unitcert layer boundaries from outside.

`Tracer.install()` replaces the module-level names through which the layers of
`unitcert` call each other with timing wrappers, in the benchmark's own
process only; `uninstall()` puts the originals back. Every binding of the same
function object in any loaded `unitcert` module is replaced, because layers
import names with `from .x import y`. A hook whose name no longer exists is
skipped and listed in `missing`, so the metrics built on it are left out.

A span is (name, start_ns, end_ns, parent index, op id). Spans of one
operation are folded into per-name totals when the operation ends; the raw
spans of the first KEEP_OPS operations are kept for the trace file. The run
is single-threaded, so no layer waits on another and no wait time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (module, attribute, span name, kind, modules whose binding is replaced).
# kind: "span" times each call, "gen" times each next() of a generator,
# "count" only counts calls. None means every unitcert module.
HOOKS = (
    ("pell", "fundamental_pell", "pell.fundamental_pell", "span", None),
    ("fields", "theta", "fields.theta", "span", None),
    ("fields", "theta_factors", "fields.theta", "span", None),
    ("residual", "sqrt_octic", "fields.oracle", "span", ("residual",)),
    ("fields", "sqrt_preferring_subfield", "fields.fsu_roots", "span", None),
    ("fields", "sqrt_exact", "fields.sqrt_exact", "span", None),
    ("residual", "delta", "residual.delta", "span", None),
    ("residual", "iter_split_primes", "residual.split_primes", "gen", None),
    ("residual", "residue_at", "residual.residue_at", "span", None),
    ("residual", "survey_places", "residual.survey_places", "span", None),
    ("certify", "certify_affine", "certify.certify_affine", "span", None),
    ("certify", "separate_candidates", "certify.separate_candidates", "span", None),
    ("certify", "_iter_functionals", "certify.functionals", "gen", None),
    ("arith", "jacobi", "arith.jacobi", "count", None),
    ("arith", "is_prime", "arith.is_prime", "count", None),
    ("arith", "sqrt_mod", "arith.sqrt_mod", "count", None),
    ("arith", "hilbert_symbol", "arith.hilbert_symbol", "count", None),
    ("cli", "main", "cli.main", "span", None),
    ("golden", "run_checks", "golden.run_checks", "span", None),
)


KEEP_OPS = 3  # operations whose raw spans are kept for the trace file


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    op: int


class Tracer:
    def __init__(self):
        self.op = -1
        self.ops = 0
        self.spans: list[Span] = []
        self.kept: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.total_ns: Counter = Counter()  # outermost spans of each name
        self.self_ns: Counter = Counter()
        self.theta_pell_ns = 0  # Pell time nested inside fields.theta
        self.maxima: dict[str, int] = defaultdict(int)
        self.pell_ds: set[int] = set()
        self.hooked: set[str] = set()
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.op))
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter_ns()
        self.stack.pop()

    def begin_op(self) -> None:
        self.op += 1

    def end_op(self) -> None:
        """Fold the finished operation's spans into the per-name totals."""
        spans = self.spans
        child_ns = [0] * len(spans)
        pell_ns = [0] * len(spans)
        for i in range(len(spans) - 1, -1, -1):
            sp = spans[i]
            dur = sp.end - sp.start
            self.self_ns[sp.name] += dur - child_ns[i]
            if sp.name == "pell.fundamental_pell":
                pell_ns[i] += dur
            if sp.parent >= 0:
                child_ns[sp.parent] += dur
                pell_ns[sp.parent] += pell_ns[i]
        for i, sp in enumerate(spans):
            parent = sp.parent
            while parent >= 0 and spans[parent].name != sp.name:
                parent = spans[parent].parent
            if parent < 0:
                self.total_ns[sp.name] += sp.end - sp.start
                if sp.name == "fields.theta":
                    self.theta_pell_ns += pell_ns[i]
        if self.ops < KEEP_OPS:
            self.kept.extend(spans)
        self.ops += 1
        self.spans = []

    # -- hooks -------------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str):
        if kind == "count":
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        if kind == "gen":
            tracer = self

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.counts[name] += 1
                    yield item

            return generator

        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[name + ".errors." + type(exc).__name__] += 1
                raise
            finally:
                tracer._close(idx)
            tracer.counts[name] += 1
            if observe is not None:
                observe(args, result, idx)
            return result

        return timed

    def install(self) -> None:
        for mod_name in {hook[0] for hook in HOOKS}:
            try:
                importlib.import_module("unitcert." + mod_name)
            except ImportError:
                pass  # its hooks are reported missing below
        modules = {
            key[len("unitcert."):]: mod
            for key, mod in list(sys.modules.items())
            if key.startswith("unitcert.") and mod is not None
        }
        modules["__init__"] = sys.modules["unitcert"]
        for mod_name, attr, name, kind, scope in HOOKS:
            home = modules.get(mod_name)
            fn = getattr(home, attr, None) if home is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(fn, name, kind)
            targets = modules.values() if scope is None else [modules[m] for m in scope]
            for mod in targets:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)
            self.hooked.add(name)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    # -- observers of results ------------------------------------------------

    def _observe_pell_fundamental_pell(self, args, unit, idx) -> None:
        self.pell_ds.add(unit.d)
        self.maxima["pell.unit_bits"] = max(self.maxima["pell.unit_bits"], unit.x.bit_length())

    def _observe_fields_sqrt_exact(self, args, root, idx) -> None:
        sp = self.spans[idx]
        degree = args[0].tower.degree
        self.counts[f"fields.sqrt_exact.deg{degree}"] += 1
        self.counts[f"fields.sqrt_exact.deg{degree}_ns"] += sp.end - sp.start
        if root is not None:
            self.counts["fields.sqrt_exact.squares"] += 1

    def _observe_residual_delta(self, args, cert, idx) -> None:
        self.maxima["residual.first_valid_t"] = max(
            self.maxima["residual.first_valid_t"], cert.place.t
        )

    def _observe_residual_residue_at(self, args, residue, idx) -> None:
        # In the residual module's own place scans the unit eps_pq is reduced
        # at every place evaluated, and an octic element only at valid ones.
        parent = self.spans[idx].parent
        if parent >= 0 and self.spans[parent].name in ("residual.delta", "residual.survey_places"):
            kind = type(args[0]).__name__
            if kind == "QuadUnit":
                self.counts["residual.places.evaluated"] += 1
            elif kind == "TowerElement":
                self.counts["residual.places.valid"] += 1

    def _observe_residual_survey_places(self, args, decisions, idx) -> None:
        valid = [d.place.t for d in decisions if d.valid]
        if valid:
            self.maxima["residual.first_valid_t"] = max(
                self.maxima["residual.first_valid_t"], min(valid)
            )

    def _observe_certify_certify_affine(self, args, cert, idx) -> None:
        self.counts["certify.functionals.kept"] += len(cert.functionals)

    _observe_certify_separate_candidates = _observe_certify_certify_affine

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self, ms_scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced operation, with times multiplied by
        ms_scale; a metric whose hook is missing is left out."""
        n = max(self.ops, 1)
        c, tot = self.counts, self.total_ns
        have = self.hooked

        def ms(ns: float) -> float:
            return ns / 1e6 / n * ms_scale

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: dict[str, tuple[float, str]] = {}

        def put(name: str, needs: tuple[str, ...], value: float, unit: str) -> None:
            if all(h in have for h in needs):
                out[name] = (value, unit)

        pell = ("pell.fundamental_pell",)
        put("pell.fundamental_pell.calls", pell, c["pell.fundamental_pell"] / n, "calls/op")
        put("pell.fundamental_pell.ms", pell, ms(tot["pell.fundamental_pell"]), "ms/op")
        put("pell.distinct_d_ratio", pell,
            ratio(len(self.pell_ds), c["pell.fundamental_pell"]), "ratio")
        put("pell.unit_bits_max", pell, self.maxima["pell.unit_bits"], "bits")

        put("fields.theta.ms", ("fields.theta", *pell),
            ms(tot["fields.theta"] - self.theta_pell_ns), "ms/op")
        put("fields.oracle.ms", ("fields.oracle",), ms(tot["fields.oracle"]), "ms/op")
        put("fields.fsu_roots.ms", ("fields.fsu_roots",), ms(tot["fields.fsu_roots"]), "ms/op")
        sq = ("fields.sqrt_exact",)
        put("fields.sqrt_exact.calls", sq, c["fields.sqrt_exact"] / n, "calls/op")
        put("fields.sqrt_exact.deg4_ms", sq, ms(c["fields.sqrt_exact.deg4_ns"]), "ms/op")
        put("fields.sqrt_exact.deg8_ms", sq, ms(c["fields.sqrt_exact.deg8_ns"]), "ms/op")
        put("fields.sqrt_exact.square_ratio", sq,
            ratio(c["fields.sqrt_exact.squares"], c["fields.sqrt_exact"]), "ratio")
        put("fields.sqrt_exact.errors", sq,
            sum(v for k, v in c.items() if k.startswith("fields.sqrt_exact.errors.")) / n,
            "errors/op")

        put("residual.delta.self_ms", ("residual.delta",),
            ms(self.self_ns["residual.delta"]), "ms/op")
        sp = ("residual.split_primes",)
        put("residual.split_primes.scanned", sp, c["residual.split_primes"] / n, "primes/op")
        put("residual.split_primes.ms", sp, ms(tot["residual.split_primes"]), "ms/op")
        ra = ("residual.residue_at",)
        put("residual.places.evaluated", ra, c["residual.places.evaluated"] / n, "places/op")
        put("residual.residue_at.calls", ra, c["residual.residue_at"] / n, "calls/op")
        put("residual.residue_at.ms", ra, ms(tot["residual.residue_at"]), "ms/op")
        put("residual.valid_place_ratio", ra,
            ratio(c["residual.places.valid"], c["residual.places.evaluated"]), "ratio")
        put("residual.first_valid_t_max", ("residual.delta", "residual.survey_places"),
            self.maxima["residual.first_valid_t"], "prime")
        put("residual.survey_places.ms", ("residual.survey_places",),
            ms(tot["residual.survey_places"]), "ms/op")

        put("certify.certify_affine.ms", ("certify.certify_affine",),
            ms(tot["certify.certify_affine"]), "ms/op")
        put("certify.separate_candidates.ms", ("certify.separate_candidates",),
            ms(tot["certify.separate_candidates"]), "ms/op")
        fn = ("certify.functionals", "certify.certify_affine", "certify.separate_candidates")
        put("certify.functionals.evaluated", fn, c["certify.functionals"] / n, "count/op")
        put("certify.functionals.kept", fn, c["certify.functionals.kept"] / n, "count/op")
        put("certify.keep_ratio", fn,
            ratio(c["certify.functionals.kept"], c["certify.functionals"]), "ratio")

        for name in ("jacobi", "is_prime", "sqrt_mod", "hilbert_symbol"):
            key = "arith." + name
            put(key + ".calls", (key,), c[key] / n, "calls/op")

        put("cli.main.self_ms", ("cli.main",), ms(self.self_ns["cli.main"]), "ms/op")
        put("golden.run_checks.ms", ("golden.run_checks",),
            ms(tot["golden.run_checks"]), "ms/op")
        return out

    def span_records(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.op] for s in self.kept]
