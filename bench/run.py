"""unitcert benchmark: four closed-loop workloads with one client each.

Run from the repository root (standard library only, one thread):

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (a caller waits for each certificate, so every loop is closed):

- cli:    the `unitcert` CLI as a subprocess, `python -m unitcert` with
          PYTHONPATH=src. One cycle runs `delta p q s --json` on the three
          golden triples and on seed-drawn corpus triples, one
          `delta 7 11 43 --places all --json` and one `verify-paper --json`.
- corpus: `delta(p, q, s, oracle=True)` in process, FSU on, no Pell cache,
          over the rule-defined corpus in a seed-drawn order.
- ladder: `delta(..., oracle=True)` on one triple per size rung 10^3, 3*10^3,
          10^4 and 3*10^4. The rung triples are those of ladder seed 0 for
          every benchmark seed: across ladder seeds the rung costs differ by
          up to 2x and a different number of rungs fail, so seed-drawn rungs
          would not give figures that compare across runs.
- local:  set-up precomputes Theta, eps_pq and the exact FSU for a seed-drawn
          corpus sample; the timed operation is `survey_places` with that
          Theta, `certify_affine(1, [-1, g1..g7])` and
          `separate_candidates([Theta, eps_pq*Theta])`.

Every answer is checked against bench/reference.json (and the CLI golden
triples against `unitcert.golden`); a wrong answer aborts with exit code 1.
An operation whose reference has an answer must give it: an error there, or a
CLI command that exits non-zero, is a wrong answer too. Only a ladder rung
whose reference is an error may fail, and only with one of FAILURE_TYPES;
such failures are counted by type against the operations attempted.

Times are scaled to the machine's current speed by bench/clock.py: each
operation is preceded by a fixed calibration kernel, and a scaled time reads
as milliseconds at the kernel's nominal speed.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones, which are the same five on every workload:

    setup_s      median of seven set-ups: importing unitcert in a fresh
                 interpreter, loading the reference, preparing the inputs
    op_p50_ms    cli: delta_p50_ms; corpus, local: triple_p50_ms;
                 ladder: rung_1e3_ms
    op_tail_ms   cli: delta_tail_ms; corpus, local: triple_tail_ms;
                 ladder: rung_3e3_ms (the largest rung solved at seed)
    ops_per_s    cli: commands per second; corpus, local: triples_per_s;
                 ladder: solved rungs per second
    peak_rss_mb  peak resident set of this process, or of the largest CLI
                 child on cli (with --workload all, the peak so far)

The workload's own metrics (for example verify_paper_p50_ms, rungs_solved,
failed_ratio) are printed by name and unit above the last line. With
`--trace 1` the first half of the run is untraced and the second half replays
the same operations with the layer hooks of bench/tracer.py installed; the
metrics are the per-layer ones, per traced operation, plus the tracing
overhead. Results, run settings and the kept spans are written to
.bench_out/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import clock  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("cli", "corpus", "ladder", "local")
SETUP_REPEATS = 7
# Calibration kernel runs before each timed step of a set-up (see set_up).
SETUP_CALIBRATIONS = 3
PROBE_REPEATS = 5  # interpreter starts timed for each cli start-up probe
# The only ways an operation may fail, and only where its reference is an
# error: the square-root precision cap or a bounded search ran out.
FAILURE_TYPES = ("PrecisionExhausted", "SearchExhausted")
# Highest percentile with at least ten samples beyond it at a 20-second run:
# about 120 delta commands on cli, 450 triples on corpus, and on local the
# per-triple medians of its 110-triple sample.
TAIL_PERCENTILE = {"cli": 90, "corpus": 97, "local": 90}
CLI_CORPUS_PER_CYCLE = 5
CORPUS_BLOCK = 8
# local set-up costs about 30 ms a triple, so its sample is one round of
# corpus_order: one triple from each block of nine.
LOCAL_BLOCK = 9

unitcert = None  # imported in main(), from the checkout's src/


class WrongAnswer(Exception):
    """An output disagrees with the frozen reference: the run is void."""


def expect(what: str, expected, actual) -> None:
    if expected != actual:
        raise WrongAnswer(f"{what}: expected {expected!r}, got {actual!r}")


def load_reference() -> dict:
    doc = json.loads((BENCH / "reference.json").read_text())
    cols = doc["columns"]
    doc["by_triple"] = {tuple(r[:3]): dict(zip(cols, r)) for r in doc["triples"]}
    return doc


def check_cert(ref: dict, cert_delta, cert_mu, t, signs, label) -> None:
    got = (cert_delta, cert_mu, int(t), list(signs))
    expect(label, (ref["delta"], ref["mu"], ref["t"], ref["signs"]), got)


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- workloads --------------------------------------------------------------


class Workload:
    """A closed loop: `ops()` yields (op, at_boundary) forever; the run may
    stop only before an op at a boundary, so cycles are measured whole."""

    name = ""
    calibrations = 1  # calibration kernel runs before each operation
    kernel = "mixed"  # see bench/clock.py

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.ref = reference
        self.in_process = False
        self.settings: dict = {}

    def setup(self) -> list:
        """Prepare the inputs. Return the calls that finish the preparation,
        each timed on its own so that a long set-up is scaled piece by piece."""
        return []

    def size(self, column: str):
        """A corpus triple's size from the reference, to stratify samples by."""
        return lambda triple: self.ref["by_triple"][triple][column]

    def ops(self):
        raise NotImplementedError

    def do(self, op) -> str | None:
        """Run and check one operation; return a failure type or None."""
        raise NotImplementedError

    def summary(self, records: list) -> tuple[dict, dict]:
        """(named workload metrics, end-to-end metrics), both name -> (value, unit),
        from (op, scaled ms, failure) records."""
        raise NotImplementedError


def _per_s(records) -> float:
    """Successful operations per second of time spent in all operations."""
    solved = sum(fail is None for _, _, fail in records)
    return solved * 1000 / sum(ms for _, ms, _ in records)


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _triple_metrics(name: str, costs: list[float], rate: float) -> tuple[dict, dict]:
    tail = TAIL_PERCENTILE[name]
    p50, ptail = statistics.median(costs), percentile(costs, tail)
    named = {
        "triples_per_s": (rate, "1/s"),
        "triple_p50_ms": (p50, "ms"),
        f"triple_tail_ms(p{tail})": (ptail, "ms"),
    }
    e2e = {"op_p50_ms": (p50, "ms"), "op_tail_ms": (ptail, "ms"), "ops_per_s": (rate, "1/s"),
           "peak_rss_mb": (_rss_mb(resource.RUSAGE_SELF), "MB")}
    return named, e2e


class Corpus(Workload):
    name = "corpus"

    def setup(self) -> list:
        self.order = inputs.corpus_order(self.seed, CORPUS_BLOCK, self.size("cost_rank"))
        for triple in self.order:
            if triple not in self.ref["by_triple"]:
                raise WrongAnswer(f"corpus triple {triple} has no reference")
        self.settings["corpus_size"] = len(self.order)
        return []

    def ops(self):
        while True:
            for triple in self.order:
                yield triple, True

    def do(self, triple) -> str | None:
        cert = unitcert.delta(*triple, oracle=True)
        check_cert(self.ref["by_triple"][triple], cert.delta, cert.mu,
                   cert.place.t, cert.place.signs, f"delta{triple}")
        expect(f"fsu size of {triple}", 7, len(cert.fsu))
        return None

    def summary(self, records):
        return _triple_metrics(self.name, [ms for _, ms, _ in records], _per_s(records))


class Local(Corpus):
    name = "local"

    def setup(self) -> list:
        self.items = []
        order = inputs.corpus_order(self.seed, LOCAL_BLOCK, self.size("affine_t"))
        sample = order[:-(-len(order) // LOCAL_BLOCK)]
        self.settings["local_sample"] = len(sample)
        return [functools.partial(self.prepare, triple) for triple in sample]

    def prepare(self, triple) -> None:
        ref = self.ref["by_triple"][triple]
        octic = unitcert.OcticField(*triple)
        theta = unitcert.theta(*triple)
        eps_pq = octic.from_quad_unit(unitcert.fundamental_pell(triple[0] * triple[1]))
        gens = unitcert.fsu(*triple)
        if not all(g.exact for g in gens):
            raise WrongAnswer(f"FSU of {triple} is not exact")
        self.items.append((
            triple, ref, theta,
            [octic.from_rational(-1)] + [g.element for g in gens],
            [theta, eps_pq * theta],
        ))

    def ops(self):
        while True:
            for item in self.items:
                yield item, True

    def do(self, item) -> str | None:
        triple, ref, theta, gens, candidates = item
        decisions = unitcert.survey_places(*triple, theta_elem=theta)
        affine = unitcert.certify_affine(candidates[0].tower.one(), gens)
        separation = unitcert.separate_candidates(candidates)
        valid = [d for d in decisions if d.valid]
        if not valid:
            raise WrongAnswer(f"no valid place surveyed for {triple}")
        first = valid[0].place
        expect(f"first valid place of {triple}", (ref["t"], ref["signs"]),
               (first.t, list(first.signs)))
        for d in valid:
            expect(f"delta at t={d.place.t} {d.place.signs} for {triple}", ref["delta"], d.delta)
        expect(f"certify_affine rank for {triple}", 8, len(affine.functionals))
        row = separation.table[ref["delta"]]
        expect(f"separation row of the square candidate of {triple}", (0,) * len(row), row)
        return None

    def summary(self, records):
        # Each sample triple runs several times in a run; its median time
        # filters out machine noise, and the sample's figures are taken over
        # these per-triple medians.
        by_triple: dict[tuple, list[float]] = {}
        for item, ms, _ in records:
            by_triple.setdefault(item[0], []).append(ms)
        costs = [statistics.median(v) for v in by_triple.values()]
        return _triple_metrics(self.name, costs, 1000 / statistics.mean(costs))


class Ladder(Workload):
    name = "ladder"
    # A rung runs for up to a second on Pell units of thousands of bits: its
    # speed comes from calibrations on big integers just before and after it.
    calibrations = 5
    kernel = "bigint"

    def setup(self) -> list:
        ladder = self.ref["ladder"]
        self.rungs = []
        for (name, triple), entry in zip(inputs.ladder(ladder["seed"]), ladder["rungs"]):
            answer = dict(zip(self.ref["columns"], entry["answer"]))
            expect(f"ladder rung {name}", tuple(entry["answer"][:3]), triple)
            self.rungs.append((name, triple, answer))
        self.settings["ladder_seed"] = ladder["seed"]
        self.settings["ladder_triples"] = {n: list(t) for n, t, _ in self.rungs}
        return []

    def ops(self):
        while True:
            for i, rung in enumerate(self.rungs):
                yield rung, i == 0

    def do(self, rung) -> str | None:
        name, triple, ref = rung
        try:
            cert = unitcert.delta(*triple, oracle=True)
        except unitcert.UnitCertError as exc:
            failure = type(exc).__name__
            if ref["delta"] is not None or failure not in FAILURE_TYPES:
                raise WrongAnswer(f"ladder rung {name} {triple} raised {failure}: {exc}") from exc
            return failure
        # A rung with no frozen answer is accepted on the oracle cross-check
        # that delta(oracle=True) performs itself.
        if ref["delta"] is not None:
            check_cert(ref, cert.delta, cert.mu, cert.place.t, cert.place.signs,
                       f"ladder rung {name} {triple}")
        return None

    def summary(self, records):
        solved = {name: [] for name, _, _ in self.rungs}
        for (name, _, _), ms, fail in records:
            if fail is None:
                solved[name].append(ms)
        # A rung that fails reports no time of its own, so that a later fix
        # turning a quick failure into a slower success does not read as a
        # regression; it counts in rungs_solved and failed_ratio.
        named = {f"rung_{name}_ms": (statistics.median(ms), "ms")
                 for name, ms in solved.items() if ms}
        passes = len(records) / len(self.rungs)
        named["rungs_solved"] = (sum(map(len, solved.values())) / passes, "rungs/pass")

        # The gated rungs have frozen answers, so each pass solves them.
        e2e = {"op_p50_ms": (statistics.median(solved["1e3"]), "ms"),
               "op_tail_ms": (statistics.median(solved["3e3"]), "ms"),
               "ops_per_s": (_per_s(records), "1/s"),
               "peak_rss_mb": (_rss_mb(resource.RUSAGE_SELF), "MB")}
        return named, e2e


class Cli(Workload):
    name = "cli"
    calibrations = 2

    def setup(self) -> list:
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.golden = {ex.triple: ex for ex in unitcert.golden.EXAMPLES}
        self.stdout_seen: dict[tuple, str] = {}
        draws = inputs.corpus_order(self.seed, CORPUS_BLOCK, self.size("cost_rank"))
        self.cycles = [
            draws[i:i + CLI_CORPUS_PER_CYCLE]
            for i in range(0, len(draws), CLI_CORPUS_PER_CYCLE)
        ]
        self.settings["cli_corpus_per_cycle"] = CLI_CORPUS_PER_CYCLE
        return []

    def ops(self):
        while True:
            for corpus_triples in self.cycles:
                argvs = [("delta", t) for t in self.golden]
                argvs += [("delta", t) for t in corpus_triples]
                argvs += [("places_all", (7, 11, 43)), ("verify_paper", None)]
                for i, op in enumerate(argvs):
                    yield op, i == 0

    @staticmethod
    def argv(op) -> list[str]:
        kind, triple = op
        if kind == "verify_paper":
            return ["verify-paper", "--json"]
        args = ["delta", *map(str, triple), "--json"]
        return args + ["--places", "all"] if kind == "places_all" else args

    def invoke(self, argv: list[str]) -> tuple[int, str, str]:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = unitcert.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "unitcert", *argv],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def do(self, op) -> str | None:
        argv = self.argv(op)
        code, stdout, stderr = self.invoke(argv)
        # every command has a frozen answer, so a non-zero exit is a wrong one
        if code != 0:
            raise WrongAnswer(f"unitcert {' '.join(argv)} failed with exit_{code}: "
                              f"{stderr.strip()[-500:]}")
        key = tuple(argv)
        first = self.stdout_seen.setdefault(key, stdout)
        expect(f"byte-identical stdout of {' '.join(argv)}", first, stdout)
        doc = json.loads(stdout)
        kind, triple = op
        if kind == "verify_paper":
            expect("verify-paper ok", (True, 0), (doc["ok"], doc["failed"]))
            return None
        place = doc["place"]
        label = f"unitcert {' '.join(argv)}"
        if triple in self.golden:
            ex = self.golden[triple]
            expect(label, (ex.delta, ex.mu, ex.t, ex.place_roots, ex.theta_residue,
                           ex.eps_pq_residue),
                   (doc["delta"], doc["mu"], int(place["t"]),
                    (int(place["r2"]), int(place["rpq"]), int(place["rps"])),
                    int(doc["theta_residue"]), int(doc["eps_pq_residue"])))
        else:
            check_cert(self.ref["by_triple"][triple], doc["delta"], doc["mu"],
                       place["t"], place["signs"], label)
        expect(f"fsu size in {label}", 7, len(doc["fsu"]))
        if kind == "places_all":
            bits = {row["delta"] for row in doc["all_places"] if row["valid"]}
            expect(f"bits at valid places in {label}", {doc["delta"]}, bits)
        return None

    def summary(self, records):
        ms = {"delta": [], "places_all": [], "verify_paper": []}
        for (kind, _), elapsed, _ in records:
            ms[kind].append(elapsed)
        tail = TAIL_PERCENTILE[self.name]
        p50, ptail = statistics.median(ms["delta"]), percentile(ms["delta"], tail)
        rate = _per_s(records)
        named = {
            "delta_p50_ms": (p50, "ms"),
            f"delta_tail_ms(p{tail})": (ptail, "ms"),
            "verify_paper_p50_ms": (statistics.median(ms["verify_paper"]), "ms"),
            "delta_places_all_p50_ms": (statistics.median(ms["places_all"]), "ms"),
            "commands_per_s": (rate, "1/s"),
        }
        e2e = {"op_p50_ms": (p50, "ms"), "op_tail_ms": (ptail, "ms"),
               "ops_per_s": (rate, "1/s"),
               "peak_rss_mb": (_rss_mb(resource.RUSAGE_CHILDREN), "MB")}
        return named, e2e

    def probe_ms(self, code: str) -> float:
        """Median scaled time of `python -c code` with the CLI's environment."""
        def probe():
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                           check=True, timeout=60)
        return statistics.median(clock.scaled_call(probe)[0] * 1000 for _ in range(PROBE_REPEATS))


CLASSES = {w.name: w for w in (Cli, Corpus, Ladder, Local)}


# -- measurement --------------------------------------------------------------


def measure(workload: Workload, seconds: float, limit: int | None = None,
            tracer: Tracer | None = None) -> tuple[list, list[float]]:
    """Closed loop until `seconds` pass (checked at boundaries) or `limit` ops.

    Returns (op, scaled ms, failure) records and the slowness readings."""
    ops, raw, fails, cals = [], [], [], []
    start = time.perf_counter()
    for op, boundary in workload.ops():
        if limit is not None and len(ops) == limit:
            break
        if limit is None and boundary and time.perf_counter() - start >= seconds:
            break
        cals.append([clock.slowness(workload.kernel) for _ in range(workload.calibrations)])
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        fails.append(workload.do(op))
        raw.append((time.perf_counter() - t0) * 1000)
        if tracer is not None:
            tracer.end_op()
        ops.append(op)
    cals.append([clock.slowness(workload.kernel) for _ in range(workload.calibrations)])
    return list(zip(ops, clock.scaled(raw, cals), fails)), [x for g in cals for x in g]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def failures(records) -> dict[str, int]:
    out: dict[str, int] = {}
    for _, _, fail in records:
        if fail is not None:
            out[fail] = out.get(fail, 0) + 1
    return out


def set_up(name: str, seed: int) -> tuple[float, Workload]:
    """Scaled seconds of what runs before the first operation, and the
    workload: a fresh interpreter importing the program (so import-time work
    shows), loading the frozen reference and the workload's own preparation.

    Each step is preceded by calibrations and scaled by those around it, as
    operations are, so a set-up of seconds follows the machine's speed."""
    raw, cals = [], []

    def timed(step):
        cals.append([clock.slowness() for _ in range(SETUP_CALIBRATIONS)])
        t0 = time.perf_counter()
        out = step()
        raw.append(time.perf_counter() - t0)
        return out

    timed(lambda: subprocess.run(
        [sys.executable, "-c", "import unitcert, unitcert.cli"], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=60))
    workload = timed(lambda: CLASSES[name](seed, load_reference()))
    for step in timed(workload.setup):
        timed(step)
    cals.append([clock.slowness() for _ in range(SETUP_CALIBRATIONS)])
    return sum(clock.scaled(raw, cals)), workload


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = None  # so one set-up's inputs are freed before the next
        elapsed, workload = set_up(name, seed)
        setups.append(elapsed)
    setup_s = statistics.median(setups)

    result: dict = {"workload": name}
    if not trace:
        records, cals = measure(workload, seconds)
        named, e2e = workload.summary(records)
        e2e["setup_s"] = (setup_s, "s")
        metrics = e2e
    else:
        # Hooks can only wrap calls made in this process, so the traced cli
        # workload calls cli.main in process, untraced baseline included.
        workload.in_process = name == "cli"
        plain, _ = measure(workload, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            records, cals = measure(workload, 0, limit=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(ms_scale=clock.scale_factor(cals))
        overhead = sum(ms for _, ms, _ in records) / sum(ms for _, ms, _ in plain)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        if name == "cli":
            interp = workload.probe_ms("pass")
            metrics["cli.interpreter_ms"] = (interp, "ms")
            metrics["cli.import_ms"] = (workload.probe_ms("import unitcert.cli") - interp, "ms")
        else:
            metrics["cli.interpreter_ms"] = (0.0, "ms")
            metrics["cli.import_ms"] = (0.0, "ms")
        named = {}
        result["missing_hooks"] = tracer.missing
        result["spans"] = {"columns": ["name", "start_ns", "end_ns", "parent", "op"],
                           "note": "parent indexes the spans of the same op",
                           "records": tracer.span_records()}
    fails = failures(records)
    attempted = len(records)
    named["failed_ratio"] = (sum(fails.values()) / attempted, "ratio")
    result.update(
        attempted=attempted,
        failed=sum(fails.values()),
        failures_by_type=fails,
        named_metrics={k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        settings={**workload.settings, "setup_runs_s": setups,
                  "slowness": {"median": statistics.median(cals),
                                     "min": min(cals), "max": max(cals)}},
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for this process and its children: the calibrations then run
    # where the operations do, and nothing runs beside the single client.
    nproc = os.cpu_count()
    if hasattr(os, "sched_setaffinity"):
        cpus = os.sched_getaffinity(0)
        nproc = len(cpus)
        os.sched_setaffinity(0, {min(cpus)})

    # Every run decides from scratch: no Pell cache for in-process calls,
    # CLI children or the set-up's fresh interpreter.
    os.environ.pop("UNITCERT_CACHE", None)

    global unitcert
    sys.path.insert(0, str(SRC))
    try:
        import unitcert as _unitcert
        import unitcert.cli  # noqa: F401
        import unitcert.golden  # noqa: F401
    except ImportError as exc:
        print(f"bench: cannot import unitcert from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(_unitcert.__file__).resolve().is_relative_to(SRC):
        print(f"bench: unitcert was imported from {_unitcert.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    unitcert = _unitcert

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (WrongAnswer, unitcert.UnitCertError) as exc:
            print(f"bench: wrong answer in workload {name}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 1
        results.append(res)
        print(f"# workload {name}: {res['attempted']} attempted, {res['failed']} failed"
              f" {res['failures_by_type']}")
        for key in ("named_metrics", "metrics"):
            for metric, m in res[key].items():
                print(f"{name}.{metric} = {m['value']:.6g} {m['unit']}")

    settings = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "pinned_to_one_cpu": hasattr(os, "sched_setaffinity"),
        "src_lines": src_lines(),
        "corpus_delta_histogram": load_reference()["delta_histogram"],
        "tail_percentiles": TAIL_PERCENTILE,
        "setup_repeats": SETUP_REPEATS,
    }
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"settings": settings, "results": results}, indent=1) + "\n")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
