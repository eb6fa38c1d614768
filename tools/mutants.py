"""Mutation gate: every mutant in MUTANTS must make tier-1 fail.

Run from the repository root (standard library and pytest only):

    python3 tools/mutants.py

Each mutant is one exact text edit of one file under `src/`. The runner
copies the repository (without `.git` and caches) to a temporary directory,
runs tier-1 there once unmutated, then, for each mutant, applies its edit to
a fresh copy of `src/` and runs tier-1 with `-x`. A mutant is killed when
the suite fails or runs past TIMEOUT_S, and survives when it passes; a
survivor is a missing test.

Exit 0 when every mutant is killed, 1 when one survives, 2 when an entry is
stale (its text does not occur exactly once in its file, so the source has
moved on and the entry needs updating) or the unmutated copy fails. The
staleness check reads this tree, not the copy: a test that read the copy
would fail under every mutant and so kill them all.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
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
           "out[k] = out.get(k, 0) + e * c * g", "out[k] = out.get(k, 0) + e * c"),
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
    # a root mod t is checked only where it can fail, the power a^((t+1)/4);
    # trial division decides n < 41^2; one record per split prime, t >= 3,
    # its places views (prime, signs) that sign its roots and table, and the
    # sieve's kept first segment
    Mutant("power-root-check-dropped", "src/unitcert/arith.py",
           "            if r * r % t != a:\n", "            if False:\n"),
    Mutant("trial-division-decides-below-43-squared", "src/unitcert/arith.py",
           "if n < 41 * 41:", "if n < 43 * 43:"),
    Mutant("split-prime-admits-t-below-3", "src/unitcert/residual.py",
           "if t < 3 or (2 * p * q * s) % t == 0:", "if (2 * p * q * s) % t == 0:"),
    Mutant("view-drops-sign-character-of-2", "src/unitcert/residual.py",
           "chi = (1, s2, spq,", "chi = (1, 1, spq,"),
    Mutant("view-root-of-ps-left-c", "src/unitcert/residual.py",
           "rps = property(lambda self: self._root(2))", "rps = property(lambda self: self.prime.roots[2])"),
    Mutant("prime-table-yields-past-bound", "src/unitcert/arith.py",
           "primes[:bisect_right(primes, bound)]", "primes[:bisect_right(primes, bound) + 1]"),
    # the paper's place, the first valid one; the exact sign of a tower
    # element; the content division that makes equal elements equal
    Mutant("certify-at-second-valid-place", "src/unitcert/residual.py",
           "(d for d in _scan_places(p, q, s, (f1, f2), eps_pq, prime_bound) if d.valid),",
           "islice((d for d in _scan_places(p, q, s, (f1, f2), eps_pq, prime_bound) if d.valid), 1, None),"),
    Mutant("sign-of-mixed-halves-negated", "src/unitcert/fields.py",
           "return sx * _sign(_rel_norm(z, table), table)", "return -sx * _sign(_rel_norm(z, table), table)"),
    Mutant("reduced-drops-content-division", "src/unitcert/fields.py",
           "g, out = abs(den), []", "g, out = 1, []"),
    # xi's closed form: the four r, the norm-sign test and its modulus, the
    # relative half-root's gcd; eps_pq's residue by the sign of pq's root; the
    # Q of the half unit that delta hands to xi
    Mutant("xi-searches-r-1-only", "src/unitcert/fields.py",
           "for r in (1, q * s, p * q, p * s):", "for r in (1,):"),
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
    # the walk never meets its stopping condition: the conftest watchdog
    # stops the hung test
    Mutant("Q_minus_1-zero", "src/unitcert/pell.py",
           "P, Q, Q_prev = 0, 1, d", "P, Q, Q_prev = 0, 1, 0"),
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


def main() -> int:
    stale = _stale(MUTANTS)
    if stale:
        print(f"stale entries: {', '.join(stale)}")
        return 2
    with tempfile.TemporaryDirectory(prefix="unitcert-mutants-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        start = time.perf_counter()
        passed, last = _tier1(tree)
        print(f"unmutated: {last} ({time.perf_counter() - start:.1f} s)", flush=True)
        if not passed:
            return 2
        survivors = []
        for m in MUTANTS:
            shutil.rmtree(tree / "src")
            shutil.copytree(ROOT / "src", tree / "src", ignore=SKIP)
            target = tree / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            start = time.perf_counter()
            passed, last = _tier1(tree)
            verdict = "SURVIVED" if passed else "killed"
            print(f"{m.name}: {verdict}: {last} ({time.perf_counter() - start:.1f} s)", flush=True)
            if passed:
                survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
