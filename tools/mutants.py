"""Mutation gate: every mutant in MUTANTS must make tier-1 fail.

Run from the repository root (standard library and pytest only):

    python3 tools/mutants.py

Each mutant is one exact text edit of one file under `src/`. The runner
copies the repository (without `.git` and caches) to one temporary directory
per worker, at most `os.cpu_count()` of them, runs tier-1 once unmutated,
then, for each mutant, takes a free copy, applies its edit to a fresh copy
of `src/` and runs the whole tier-1 there with `-x`, in file order. The
workers run mutants side by side; the results print in MUTANTS order. A
mutant is killed when the suite fails or runs past TIMEOUT_S, and survives
when it passes; a survivor is a missing test.

Exit 0 when every mutant is killed, 1 when one survives, 2 when an entry is
stale (its text does not occur exactly once in its file, so the source has
moved on and the entry needs updating) or the unmutated copy fails. The
staleness check reads this tree, not the copy: a test that read the copy
would fail under every mutant and so kill them all.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600
PYTEST = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".bench_out", ".bench_build", ".benchmarks")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


MUTANTS = (
    # sqrt_unit_product's root is proved by the half-unit identities alone;
    # these once fell only to its closing check root * root == product
    Mutant("radicals-product-drops-gcd", "src/unitcert/fields.py",
           "num[i] += c * e * f", "num[i] += c * e"),
    Mutant("binomial-drops-g", "src/unitcert/fields.py",
           "((h, Q), (k * g, u.d", "((h, Q), (k, u.d"),
    Mutant("root-denominator-drops-Q", "src/unitcert/fields.py",
           "        den *= Q\n", ""),
    Mutant("binomial-doubles-h", "src/unitcert/fields.py",
           "((h, Q), (k * g, u.d", "((2 * h, Q), (k * g, u.d"),
    # QuadUnit's constructor is the one proof of a half unit: the forged halves
    # of test_closed_form_root_checks_the_half_units reach its guards, and the
    # units of test_quadunit_proves_its_half_unit its norm and y conjuncts
    Mutant("half-unit-Q-guard-removed", "src/unitcert/pell.py",
           "Q > 0 and 2 * d % Q == 0 and Q % 4\n", "Q > 0\n"),
    Mutant("half-unit-sign-guard-removed", "src/unitcert/pell.py",
           "if not (norm == 1 and h > 0 < k and Q > 0", "if not (norm == 1 and Q > 0"),
    Mutant("half-unit-norm-conjunct-dropped", "src/unitcert/pell.py",
           " and abs(hh - dkk) == Q):", "):"),
    Mutant("half-unit-2hk-conjunct-dropped", "src/unitcert/pell.py",
           " and 2 * h * k == Q * y", ""),
    # the octic field proves its triple once, and a tower its generators
    Mutant("octic-skips-check-triple", "src/unitcert/fields.py",
           "        _check_triple(p, q, s)\n", ""),
    Mutant("tower-skips-independence", "src/unitcert/fields.py",
           "if len(self._index) != self.degree:", "if False:"),
    # the basis table keeps only gcd(m_i, m_j); the product's index i xor j
    # and the squaring diagonal's index 0 come from the product loops
    Mutant("table-drops-gcd", "src/unitcert/fields.py",
           "tuple(gcd(mi, mj) for mj in radicands)", "tuple(1 for mj in radicands)"),
    Mutant("product-index-or", "src/unitcert/fields.py",
           "out[i ^ j] += row[j] * ai * bj", "out[i | j] += row[j] * ai * bj"),
    Mutant("square-diagonal-off-index-0", "src/unitcert/fields.py",
           "out[0] += row[i] * (ai * ai)", "out[i] += row[i] * (ai * ai)"),
    # Theta travels as its two factors: its residue is the product of theirs,
    # and a difference class's bit the XOR of two candidate bits
    Mutant("scan-theta-reads-first-factor", "src/unitcert/residual.py",
           "r_theta = prod(rs) % t", "r_theta = rs[0]"),
    Mutant("hilbert-theta-reads-f1", "src/unitcert/residual.py",
           "residue_at(f1, place) * residue_at(f2, place) % t", "residue_at(f1, place)"),
    Mutant("separation-drops-xor", "src/unitcert/certify.py",
           "[bit ^ bits[0] for bit in bits[1:]]", "bits[1:]"),
    # the Pell walk on relative generators: its leaves, its tree's inner
    # denominator, the odd period's closing and the complete quotients
    Mutant("leaf-drops-kprev-Q", "src/unitcert/pell.py",
           "leaves.append((k * P + k_prev * Q, k, Q_u))", "leaves.append((k * P, k, Q_u))"),
    Mutant("tree-divides-by-left-denominator", "src/unitcert/pell.py",
           "divmod(AA + d * BB, Q_w), divmod((A1 + B1) * (A2 + B2) - AA - BB, Q_w)",
           "divmod(AA + d * BB, Q_u), divmod((A1 + B1) * (A2 + B2) - AA - BB, Q_u)"),
    Mutant("odd-closing-reads-P_n", "src/unitcert/pell.py",
           "(hh + dkk) * P_next + hk2 * d, hh + dkk + hk2 * P_next", "(hh + dkk) * P + hk2 * d, hh + dkk + hk2 * P"),
    Mutant("last-partial-leaf-dropped", "src/unitcert/pell.py",
           "        leaves.append((k * P + k_prev * Q, k, Q_u))", "        closed or leaves.append((k * P + k_prev * Q, k, Q_u))"),
    # the supported-pattern check, the split-prime filter and the
    # functional stream's Legendre bit
    Mutant("branch-admits-a-third-pattern", "src/unitcert/residual.py",
           "if br not in ALLOWED_BRANCHES:", "if br not in ALLOWED_BRANCHES + ((-1, 1, 1),):"),
    Mutant("split-primes-admit-3-mod-8", "src/unitcert/residual.py",
           "t % 8 in (1, 7)", "t % 8 in (1, 3, 7)"),
    Mutant("functional-bit-flipped", "src/unitcert/certify.py",
           "[0 if pow(r, t >> 1, t) == 1 else 1", "[1 if pow(r, t >> 1, t) == 1 else 0"),
    Mutant("functional-euler-exponent-quartered", "src/unitcert/certify.py",
           "[0 if pow(r, t >> 1, t) == 1", "[0 if pow(r, t >> 2, t) == 1"),
    # the eight residues above t from the canonical table: qs's sign
    # character, one butterfly, and the roots each place is built from
    Mutant("qs-character-is-pq-alone", "src/unitcert/residual.py",
           "a2 - a2ps, apq - aqs,", "a2 - a2ps, apq + aqs,"),
    Mutant("butterfly-subtracts-backwards", "src/unitcert/residual.py",
           "(nn1 - nn2) % t]", "(nn2 - nn1) % t]"),
    # a root mod t takes Euler's criterion for its Legendre symbol; trial
    # division decides n < 41^2; one record per split prime, t >= 3, its
    # places views (prime, signs) that read their roots off its signed table
    Mutant("sqrt-mod-euler-test-flipped", "src/unitcert/arith.py",
           "if a == 0 or pow(a, t >> 1, t) != 1:", "if a == 0 or pow(a, t >> 1, t) == 1:"),
    Mutant("trial-division-decides-below-43-squared", "src/unitcert/arith.py",
           "if n < 41 * 41:", "if n < 43 * 43:"),
    Mutant("split-prime-admits-t-below-3", "src/unitcert/residual.py",
           "if t < 3 or (2 * p * q * s) % t == 0:", "if (2 * p * q * s) % t == 0:"),
    Mutant("view-drops-sign-character-of-2", "src/unitcert/residual.py",
           "chi = (1, s2, spq,", "chi = (1, 1, spq,"),
    Mutant("view-root-of-ps-left-c", "src/unitcert/residual.py",
           "rps = property(lambda self: self.residues[self.prime.p * self.prime.s])",
           "rps = property(lambda self: self.prime.residues[self.prime.p * self.prime.s])"),
    # the kept prime table: a read stops at its bound, and a later range
    # strikes each kept prime from its first odd multiple
    Mutant("prime-table-yields-past-bound", "src/unitcert/arith.py",
           "j = bisect_right(_primes, bound, i)", "j = bisect_right(_primes, bound + 2, i)"),
    Mutant("sieve-strike-drops-odd-start", "src/unitcert/arith.py",
           "        if first % 2 == 0:\n            first += p\n", ""),
    # one single-place reader signs the prime's table by the place; the
    # datum's entries are named once, in the certificate's order
    Mutant("residue-at-reads-the-prime-table", "src/unitcert/residual.py",
           "    residues = place.residues\n    total = 0\n", "    residues = place.prime.residues\n    total = 0\n"),
    Mutant("datum-legendre-fields-swapped", "src/unitcert/residual.py",
           "legendre_q_p: int, legendre_s_p: int, legendre_q_s: int):",
           "legendre_s_p: int, legendre_q_p: int, legendre_q_s: int):"),
    # the paper's place, the first valid one; a quadratic root's content 2,
    # removed by parity; the exact sign of a tower element; the content
    # division that makes equal elements equal
    Mutant("certify-at-second-valid-place", "src/unitcert/residual.py",
           "[SplitPlace(SplitPrime(t, p, q, s), (1, 1, 1))], True,",
           "[SplitPlace(SplitPrime(t, p, q, s), (1, 1, -1))], True,"),
    Mutant("root-quadratic-parity-flipped", "src/unitcert/fields.py",
           "if r % 2 == r2 % 2 == 0 else", "if r % 2 == r2 % 2 == 1 else"),
    Mutant("sign-of-mixed-halves-negated", "src/unitcert/fields.py",
           "return sx * _sign(_rel_norm(z, table), table)", "return -sx * _sign(_rel_norm(z, table), table)"),
    Mutant("reduced-drops-content-division", "src/unitcert/fields.py",
           "g, out = abs(den), []", "g, out = 1, []"),
    # xi's closed form: its r, read off the parities of q's and s's
    # valuations, the norm-sign test and its modulus, the relative
    # half-root's gcd; eps_pq's residue by the sign of pq's root; the Q of the
    # half unit that delta hands to xi
    Mutant("xi-searches-r-1-only", "src/unitcert/fields.py",
           "    r = _kappa_r(g, p, q, s)\n", "    r = 1\n"),
    Mutant("kappa-r-drops-s-parity", "src/unitcert/fields.py",
           "[2 * odd[q] + odd[s]]", "[2 * odd[q]]"),
    # xi on Z[sqrt2] pairs: the relative sign of x + y*sqrt(m), the factor
    # check's cross term, sqrt(qs) = sqrt(pq)*sqrt(ps)/p, and kappa's root of
    # a g1 = 0 that is twice a square, through `_sqrt` on Q(sqrt2)
    Mutant("xi-relative-sign-mixed-negated", "src/unitcert/fields.py",
           "return sx * _sqrt2_sign(norm)", "return -sx * _sqrt2_sign(norm)"),
    Mutant("xi-factor-check-halves-cross-term", "src/unitcert/fields.py",
           "2 * D * xy[0], 2 * D * xy[1]", "D * xy[0], D * xy[1]"),
    Mutant("xi-qs-drops-p-denominator", "src/unitcert/fields.py",
           "    if r == q * s:\n        den *= p\n", ""),
    Mutant("sqrt-drops-twice-a-square", "src/unitcert/fields.py",
           "        root = _sqrt([b * c for c in x], table)\n", "        root = None\n"),
    Mutant("xi-drops-norm-sign-test", "src/unitcert/fields.py",
           "    if _norm_sign(a) < 0 or _norm_sign(b) < 0:\n        return None\n", ""),
    Mutant("norm-sign-modulus-2D2", "src/unitcert/fields.py",
           "M = 2 * D2 + 1", "M = 2 * D2"),
    Mutant("half-root-gcd-drops-m", "src/unitcert/fields.py",
           "_sqrt2_gcd(T, 2 * D * m)", "_sqrt2_gcd(T, 2 * D)"),
    Mutant("eps-residue-ignores-pq-sign", "src/unitcert/residual.py",
           "eps_res = {1: r, -1: pow(r, -1, t)}", "eps_res = {1: r, -1: r}"),
    Mutant("delta-hands-xi-Q-1", "src/unitcert/residual.py",
           "*(eps_pq.half if cert.delta else (1, 0, 1))", "*((*eps_pq.half[:2], 1) if cert.delta else (1, 0, 1))"),
    # one mutant for each public decision function: the datum's (q/s) and
    # its Euler exponent, the pair check's same-datum conjunct, the Hilbert
    # symbol's (-1)^(alpha*beta*(p-1)/2), jacobi's (2/n), the squarefree
    # cofactor and trial bound, the F2 back-substitution, the index search's
    # exponent order and the Tonelli-Shanks update
    Mutant("datum-reads-s-over-q", "src/unitcert/residual.py",
           "((q, p), (s, p), (q, s))]", "((q, p), (s, p), (s, q))]"),
    Mutant("datum-euler-exponent-off", "src/unitcert/residual.py",
           "pow(a, n >> 1, n) == 1 else -1", "pow(a, n >> 2, n) == 1 else -1"),
    Mutant("noncollapse-ignores-the-datum", "src/unitcert/residual.py",
           "return same_datum and differs, report", "return differs, report"),
    Mutant("hilbert-drops-the-uniformizer-sign", "src/unitcert/arith.py",
           "if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:", "if alpha % 2 and beta % 2:"),
    Mutant("jacobi-two-flips-at-3-mod-8-only", "src/unitcert/arith.py",
           "if n % 8 in (3, 5):", "if n % 8 == 3:"),
    Mutant("squarefree-accepts-a-square-cofactor", "src/unitcert/pell.py",
           "return m == 1 or isqrt(m) ** 2 != m", "return True"),
    Mutant("squarefree-bound-below-a-rung", "src/unitcert/pell.py",
           "_TRIAL_BOUND = 10 ** 6", "_TRIAL_BOUND = 10 ** 3"),
    Mutant("gf2-solve-skips-back-substitution", "src/unitcert/certify.py",
           "if i != col and aug[i] & colbit:", "if i > col and aug[i] & colbit:"),
    Mutant("unit-index-reverses-exponents", "src/unitcert/fields.py",
           "zip(units, exps) if e)", "zip(units, exps[::-1]) if e)"),
    Mutant("tonelli-shanks-update-squares-once-more", "src/unitcert/arith.py",
           "b = pow(c, 1 << (m - i - 1), t)", "b = pow(c, 1 << (m - i), t)"),
    # a wrong bit at the chosen place fails the exact xi of the FSU with the
    # oracle off, and a usage error has its own exit code
    Mutant("chosen-bit-flipped", "src/unitcert/residual.py",
           "legendre = 1 if pow(r_theta, t >> 1, t) == 1 else -1",
           "legendre = -1 if pow(r_theta, t >> 1, t) == 1 else 1"),
    Mutant("usage-exits-2", "src/unitcert/cli.py",
           "EXIT_USAGE = 64", "EXIT_USAGE = 2"),
    # delta decides a split prime's validity, (Q/t), before it builds the
    # prime, and reads the first PRIME_COUNT split primes whatever their size;
    # Theta's factor towers come from the octic field's proven triple
    Mutant("scan-ignores-Q-symbol", "src/unitcert/residual.py",
           "eps_pq.half[2]) if valid), None)", "eps_pq.half[2])), None)"),
    Mutant("scan-caps-t-at-30", "src/unitcert/residual.py",
           "islice(iter_split_primes(p, q, s), PRIME_COUNT)", "islice(iter_split_primes(p, q, s, 30), PRIME_COUNT)"),
    Mutant("theta-tower-on-wrong-generator", "src/unitcert/fields.py",
           "_FactorField(2, d)", "_FactorField(2, p * q)"),
    # a library integer is an integer, and no float becomes a binary fraction
    Mutant("is-prime-takes-a-float", "src/unitcert/arith.py",
           "    n = index(n)\n", ""),
    Mutant("element-takes-a-float", "src/unitcert/fields.py",
           "            if isinstance(c, float):\n"
           "                raise TypeError(f\"coordinate {i} ({c!r}) is a float, not an exact rational\")\n", ""),
    # the walk never meets its stopping condition: the conftest watchdog
    # stops the hung test, or the walk's bound ends it
    Mutant("Q_minus_1-zero", "src/unitcert/pell.py",
           "P, Q, Q_prev = 0, 1, d", "P, Q, Q_prev = 0, 1, 0"),
    # the walk's bound is read once per block, before the block is walked
    Mutant("walk-bound-one-block-late", "src/unitcert/pell.py",
           "for _ in range(_WALK_BOUND // _BLOCK):", "for _ in range(_WALK_BOUND // _BLOCK + 1):"),
    # the package resolves each export from the module that defines it, its
    # one list of exports is pinned, and a record's equality compares every
    # field it names
    Mutant("export-read-from-an-importing-module", "src/unitcert/__init__.py",
           '("pell", "QuadUnit fundamental_pell is_squarefree"),',
           '("residual", "QuadUnit"), ("pell", "fundamental_pell is_squarefree"),'),
    Mutant("export-dropped", "src/unitcert/__init__.py",
           '"DenominatorNotInvertible HypothesisViolation Inseparable InvalidPlace "',
           '"DenominatorNotInvertible HypothesisViolation InvalidPlace "'),
    Mutant("quadunit-equality-drops-norm", "src/unitcert/pell.py",
           '_key = ("d", "x", "y", "norm")', '_key = ("d", "x", "y")'),
)


def _tier1(tree: Path) -> tuple[bool, str]:
    """(passed, summary) for tier-1 run in `tree`: pytest's last line, after
    the first failing test when there is one."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(tree / "src"), os.environ.get("PYTHONPATH"))))
    try:
        run = subprocess.run((sys.executable, *PYTEST), cwd=tree, env=env, capture_output=True,
                             text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = run.stdout.strip().splitlines() or [f"exit {run.returncode}"]
    failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode == 0, "; ".join(failed[:1] + lines[-1:])


def _stale(mutants: tuple[Mutant, ...]) -> list[str]:
    """Names of the entries that would not edit exactly one place in `src/`."""
    names = [m.name for m in mutants]
    return [m.name for m in mutants
            if names.count(m.name) != 1 or not m.path.startswith("src/") or m.old == m.new
            or (ROOT / m.path).read_text().count(m.old) != 1]


def _run(m: Mutant, trees: queue.SimpleQueue) -> tuple[bool, str, float]:
    """Tier-1 on a free copy with the mutant's edit applied to a fresh `src/`;
    the copy goes back to the pool afterwards."""
    tree = trees.get()
    try:
        shutil.rmtree(tree / "src")
        shutil.copytree(ROOT / "src", tree / "src", ignore=SKIP)
        target = tree / m.path
        target.write_text(target.read_text().replace(m.old, m.new))
        start = time.perf_counter()
        passed, last = _tier1(tree)
        return passed, last, time.perf_counter() - start
    finally:
        trees.put(tree)


def main() -> int:
    stale = _stale(MUTANTS)
    if stale:
        print(f"stale entries: {', '.join(stale)}")
        return 2
    workers = min(os.cpu_count() or 1, len(MUTANTS))
    with tempfile.TemporaryDirectory(prefix="unitcert-mutants-") as tmp:
        trees: queue.SimpleQueue = queue.SimpleQueue()
        for i in range(workers):
            tree = Path(tmp) / f"repo{i}"
            shutil.copytree(ROOT, tree, ignore=SKIP)
            trees.put(tree)
        start = time.perf_counter()
        passed, last = _tier1(tree)
        print(f"unmutated: {last} ({time.perf_counter() - start:.1f} s)", flush=True)
        if not passed:
            return 2
        survivors = []
        with ThreadPoolExecutor(workers) as pool:
            # map yields in MUTANTS order, whichever copy finishes first
            for m, (passed, last, seconds) in zip(MUTANTS, pool.map(lambda m: _run(m, trees), MUTANTS)):
                verdict = "SURVIVED" if passed else "killed"
                print(f"{m.name}: {verdict}: {last} ({seconds:.1f} s)", flush=True)
                if passed:
                    survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed on {workers} workers")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
