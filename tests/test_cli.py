import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import oracles
import pytest
from test_scan import _count_calls

from unitcert import QuadUnit, cli, delta, fields, golden, pell, residual
from unitcert.errors import SearchExhausted

DATA = Path(__file__).resolve().parent / "data"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "unitcert", *args],
        capture_output=True, text=True, env=env,
    )


def test_delta_text_report():
    r = run_cli("delta", "7", "19", "3")
    assert r.returncode == 0
    assert "t = 41" in r.stdout
    assert "delta = 0" in r.stdout
    assert "mu = 1" in r.stdout


def test_delta_json():
    r = run_cli("delta", "7", "3", "59", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["delta"] == 1
    assert doc["mu"] == "eps_pq"
    assert doc["place"]["t"] == "79"
    assert doc["theta_residue"] == "17"
    assert len(doc["fsu"]) == 7


def test_delta_hypothesis_exit_code():
    r = run_cli("delta", "5", "7", "11")
    assert r.returncode == 2
    assert "hypothesis" in r.stderr.lower()


def test_delta_search_exhausted_exit_code():
    r = run_cli("delta", "7", "19", "3", "--prime-bound", "30")
    assert r.returncode == 3


def test_delta_forced_dichotomy_failure_exit_code():
    # (7, 3, 11) is outside both Legendre branches; the forced run enables the
    # exact oracle, which detects that neither candidate is a global square
    r = run_cli("delta", "7", "3", "11", "--force")
    assert r.returncode == 4


@pytest.mark.parametrize("args", [("verify-paper",), ("delta", "7", "11", "43", "--places", "all", "--json")])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(args):
    # the reader of stdout closes it before the command writes, as `| head -1`
    # does after its line: that is no error, so nothing is printed on stderr,
    # and the exit code is 128 + SIGPIPE, as a shell reports such a writer
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.Popen([sys.executable, "-m", "unitcert", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (cli.EXIT_PIPE, b"") == (141, b"")


def test_delta_places_all():
    r = run_cli("delta", "7", "19", "3", "--places", "all", "--json")
    doc = json.loads(r.stdout)
    rows = doc["all_places"]
    assert any(row["t"] == "41" and row["valid"] for row in rows)
    assert {row["delta"] for row in rows if row["valid"]} == {0}


def test_fsu_json():
    r = run_cli("fsu", "7", "19", "3", "--json")
    doc = json.loads(r.stdout)
    names = [g["name"] for g in doc["fsu"]]
    assert names == [
        "eps_2", "eps_pq", "sqrt(eps_pq*eps_ps)", "sqrt(eps_pq*eps_qs)",
        "sqrt(eps_2qs)", "sqrt(eps_pq*eps_2pq)", "xi",
    ]
    assert doc["fsu"][6]["mu"] == "1"
    assert doc["fsu"][5]["element"].startswith("21070 + 14877*r2")


def test_fsu_invalid_triple_exit_code():
    assert run_cli("fsu", "5", "7", "11").returncode == 2


def test_datum():
    r = run_cli("datum", "7", "11", "43")
    assert r.returncode == 0
    assert r.stdout.strip() == "(7, 3, 3, 1, 1, 1)"


@pytest.mark.parametrize("argv, code, message", [
    (["fsu", "7", "19", "3", "--places", "all"], 64, "unrecognized arguments: --places all"),
    (["datum", "7", "19", "3", "--prime-bound", "5"], 64, "unrecognized arguments: --prime-bound 5"),
    (["delta", "7", "19", "3", "--prime-bound", "0"], 1, "error: bounds must be positive"),
    (["separate", str(DATA / "separate_7_19_3.json"), "--prime-bound", "0"], 1,
     "error: bounds must be positive"),
    (["delta", "5", "7", "11", "--json"], 2,
     "hypothesis violation: need p = 7 and q = s = 3 mod 8, got (5, 7, 3)"),
])
def test_flags_only_on_the_subcommands_that_read_them(argv, code, message):
    r = run_cli(*argv)
    assert (r.returncode, r.stdout) == (code, "")
    assert r.stderr.strip().endswith(message)


def test_pell():
    r = run_cli("pell", "826")
    assert "222239304685 + 7732694382*sqrt(826)" in r.stdout
    r = run_cli("pell", "826", "--json")
    doc = json.loads(r.stdout)
    assert doc == {"d": "826", "x": "222239304685", "y": "7732694382", "norm": "1"}


def test_pell_invalid_d():
    assert run_cli("pell", "12").returncode == 1


OUT_OF_REACH = "99999999999999999999999999999999999999991"  # 41 digits, no square factor below 10^6


@pytest.mark.parametrize("argv", [("pell", OUT_OF_REACH), ("sqrt", f"biquad:{OUT_OF_REACH},2", "1,0,0,0")])
def test_an_out_of_reach_squarefree_test_exits_1_naming_the_bound(argv):
    # is_squarefree's trial division stops at 10^6 instead of running on
    start = time.perf_counter()
    r = run_cli(*argv)
    assert time.perf_counter() - start < 2
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == (f"error: cannot decide whether {OUT_OF_REACH} is squarefree: trial division "
                        "stops at 1000000, which decides every n below 10^18\n")


@pytest.mark.parametrize("argv, d", [
    (("pell", "999999999999999989"), "999999999999999989"),  # 10^18 - 11, a prime
    # primes near 10^8, out of the pattern: the walk of eps_pq stops first
    (("delta", "100000007", "100000123", "100000259", "--force"), "10000013000000861"),
])
def test_a_walk_past_its_bound_exits_3_naming_d(argv, d):
    # the continued fraction stops after 2^20 partial quotients instead of running on
    start = time.perf_counter()
    r = run_cli(*argv)
    assert time.perf_counter() - start < 5
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == (f"search exhausted: the continued fraction of sqrt({d}) did not close its half "
                        "period in 1048576 partial quotients, the walk's bound\n")


def test_sqrt_biquad_and_octic():
    r = run_cli("sqrt", "biquad:2,21", "715,504,156,110")
    assert r.stdout.strip() == "14 + 9*r2 + 3*r21 + 2*r42"
    r = run_cli("sqrt", "octic:7,19,3", "--", "-1,0,0,0,0,0,0,0")
    assert r.stdout.strip() == "NOT_A_SQUARE"
    r = run_cli("sqrt", "biquad:2,21", "9/16,0,0,0", "--json")
    doc = json.loads(r.stdout)
    assert doc["is_square"] and doc["root"].startswith("3/4")


def test_sqrt_roots_with_denominators_5_and_7():
    r = run_cli("sqrt", "biquad:2,21", "1/25,0,0,0")
    assert r.stdout.strip() == "1/5 + 0*r2 + 0*r21 + 0*r42"
    r = run_cli("sqrt", "octic:7,19,3", "--", "1/49,0,0,0,0,0,0,0")
    assert r.stdout.strip().startswith("1/7 + 0*r2 + ")


def test_delta_json_at_size_1e4():
    # exact FSU coordinates here run past the default int-to-str digit limit
    r = run_cli("delta", "10007", "10067", "10091", "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["delta"] == 0 and doc["place"]["t"] == "17"
    assert [g["exact"] for g in doc["fsu"]] == [True] * 7
    assert max(len(g["element"]) for g in doc["fsu"]) > 4300


def test_separate_singleton_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "p": 7, "q": 19, "s": 3,
        "candidates": [["1", "0", "0", "0", "0", "0", "0", "0"]],
    }))
    r = run_cli("separate", str(path), "--json")
    doc = json.loads(r.stdout)
    assert doc["functionals"] == [] and doc["table"] == [[]]


def test_separate_pair_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "p": 7, "q": 19, "s": 3,
        "candidates": [
            ["1", "0", "0", "0", "0", "0", "0", "0"],
            ["2588599", "0", "224460", "0", "0", "0", "0", "0"],
        ],
    }))
    r = run_cli("separate", str(path), "--json")
    doc = json.loads(r.stdout)
    assert doc["table"] == [[0], [1]]
    assert doc["functionals"][0]["t"] == "41"


FAMILY = json.loads((DATA / "separate_7_19_3.json").read_text())


@pytest.mark.parametrize("payload, message", [
    ({**FAMILY, "bound": 0}, "bounds must be positive"),
    ({**FAMILY, "bound": -41}, "bounds must be positive"),
    ({"q": 19, "s": 3, "candidates": []}, "a family file is a JSON object"),
    ({"p": 7, "q": 19, "s": 3}, "a family file is a JSON object"),
    ([1, 2], "a family file is a JSON object"),
    ({**FAMILY, "candidates": 5}, "a family file is a JSON object"),
    ({**FAMILY, "candidates": [[0.1] + [0] * 7, ["1/10"] + ["0"] * 7]}, "0.1 is not a JSON integer"),
    ({**FAMILY, "candidates": [[True] + [0] * 7, ["1"] + ["0"] * 7]}, "True is not a JSON integer"),
    ({**FAMILY, "p": 7.9}, "7.9 is not a JSON integer"),
], ids=["bound-0", "bound-negative", "no-p", "no-candidates", "array", "candidates-int",
        "coordinate-float", "coordinate-bool", "p-float"])
def test_separate_rejects_a_malformed_family_file(tmp_path, payload, message):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(payload))
    r = run_cli("separate", str(path))
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr.startswith("error: ") and message in r.stderr
    assert "Traceback" not in r.stderr


def test_a_zero_denominator_is_an_error_line(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({**FAMILY, "candidates": [["1"] + ["0"] * 7, ["1/0"] + ["0"] * 7]}))
    for r in (run_cli("sqrt", "biquad:2,21", "1/0,0,0,0"), run_cli("separate", str(path))):
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == "error: coordinate 0 ('1/0') has a zero denominator\n"


def test_separate_refuses_an_all_zero_candidate(tmp_path):
    # one error line naming the candidate, not a failed square root of zero
    path = tmp_path / "family.json"
    first, *rest = FAMILY["candidates"]
    path.write_text(json.dumps({**FAMILY, "candidates": [first, ["0"] * 8, *rest]}))
    r = run_cli("separate", str(path))
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "error: candidate 1 is zero, which has no squareclass\n"


def test_verify_paper_text_and_exit():
    r = run_cli("verify-paper")
    assert r.returncode == 0
    assert "57/57 checks passed" in r.stdout


def test_verify_paper_json_deterministic():
    r1 = run_cli("verify-paper", "--json")
    r2 = run_cli("verify-paper", "--json")
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    doc = json.loads(r1.stdout)
    assert doc["ok"] and doc["failed"] == 0


def test_verify_paper_reports_a_wrong_unit_and_exits_1(monkeypatch):
    # (55 + 12 sqrt21)^2 satisfies the norm identity without being the
    # fundamental unit; the replay shows it as a diff on the printed unit
    walk = golden.fundamental_pell
    squared = QuadUnit(21, 6049, 1320, 1, None)
    monkeypatch.setattr(golden, "fundamental_pell", lambda d: squared if d == 21 else walk(d))
    code, out = _main_in_process(monkeypatch, ["verify-paper"])
    assert code == 1
    assert "FAIL" in out
    assert "expected (55, 12, +1)" in out


def test_verify_paper_records_a_computation_that_raises_and_exits_1(monkeypatch):
    # a raising computation becomes a failing `error:` item; the other
    # examples' checks still run and pass
    decide, walk = golden.delta, golden.fundamental_pell

    def delta_exhausted_for_ex3(p, q, s, **options):
        if (p, q, s) == (7, 3, 59):
            raise SearchExhausted("no valid place below t = 100000")
        return decide(p, q, s, **options)

    def walk_failing_at_413(d):
        if d == 413:
            raise ArithmeticError("continued fraction cut short")
        return walk(d)

    def noncollapse_raises(*args, **options):
        raise RuntimeError("pair not decided")

    monkeypatch.setattr(golden, "delta", delta_exhausted_for_ex3)
    monkeypatch.setattr(golden, "fundamental_pell", walk_failing_at_413)
    monkeypatch.setattr(golden, "noncollapse_check", noncollapse_raises)
    code, out = _main_in_process(monkeypatch, ["verify-paper", "--json"])
    assert code == 1
    items = json.loads(out)["items"]
    actual = {item["name"]: item["actual"] for item in items}
    failed = {item["name"] for item in items if not item["ok"]}
    # every ex3 item that reads delta's certificate fails with its error;
    # ex3's roots come before delta and still pass, and no item goes missing
    after_delta = ["datum", "split_prime", "place_roots", "residue_factor_pq", "residue_factor_ps",
                   "theta_residue", "legendre_theta", "eps_pq_residue", "legendre_eps_pq",
                   "eps_theta_residue", "legendre_eps_theta", "delta", "mu"]
    assert len(items) == 57
    assert failed == {"ex3.unit_413", "noncollapse.delta_pair", "noncollapse.check"} | {
        f"ex3.{name}" for name in after_delta}
    assert actual["ex3.unit_413"] == "error: continued fraction cut short"
    for name in after_delta:
        assert actual[f"ex3.{name}"] == "error: no valid place below t = 100000"
    assert {"ex3.root_21", "ex3.root_413"} <= {item["name"] for item in items if item["ok"]}
    assert actual["noncollapse.delta_pair"] == actual["noncollapse.check"] == "error: pair not decided"
    assert any(name.startswith("ex1.") for name in actual)
    assert any(name.startswith("ex2.") for name in actual)


def _main_in_process(monkeypatch, argv) -> tuple[int, str]:
    # main() lifts the int-to-str digit limit; put this process's back after
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return code, out.getvalue()


def test_delta_places_all_walks_each_pell_continued_fraction_once(monkeypatch):
    walked = []
    walk = pell._half_period
    monkeypatch.setattr(pell, "_half_period", lambda d: walked.append(d) or walk(d))
    code, out = _main_in_process(monkeypatch, ["delta", "7", "11", "43", "--places", "all", "--json"])
    assert code == 0 and json.loads(out)["all_places"]
    p, q, s = 7, 11, 43
    assert sorted(walked) == sorted([p * q, 2 * p * q, p * s, 2 * p * s, q * s, 2 * q * s])  # never 2


def test_delta_places_all_builds_theta_once(monkeypatch):
    built = []
    _count_calls(monkeypatch, fields._theta_parts, built)
    code, out = _main_in_process(monkeypatch, ["delta", "7", "11", "43", "--places", "all", "--json"])
    assert code == 0 and json.loads(out)["all_places"]
    assert [(octic.p, octic.q, octic.s) for (octic,) in built] == [(7, 11, 43)]


def test_a_failed_exact_check_is_an_internal_verification_failure(monkeypatch, capsys):
    # a doubled half-root of Theta's first factor fails its identity in xi's
    # check: one stderr line and exit code 4, not a traceback
    half_root = fields._relative_half_root

    def doubled(v, D, e, m):
        B, g = half_root(v, D, e, m)
        return [2 * c for c in B], g

    monkeypatch.setattr(fields, "_relative_half_root", doubled)
    code, out = _main_in_process(monkeypatch, ["delta", "7", "19", "3"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_ORACLE == 4 and out == ""
    assert err == "internal verification failure: the closed-form root does not square back\n"


@pytest.mark.parametrize("command", ["delta", "fsu"])
def test_a_flipped_bit_fails_the_exact_xi_with_the_oracle_off(monkeypatch, capsys, command):
    # the scan's chosen bit flipped: mu*Theta then has no root xi, which the
    # FSU of an in-pattern triple computes, so the command exits 4 naming xi
    # rather than print the wrong bit with xi's element null
    decide = residual._place_decisions

    def flipped(*args):
        return [residual.PlaceDecision(d.place, d.eps_residue, d.valid, d.theta_residue, -d.legendre_theta)
                if d.valid else d for d in decide(*args)]

    monkeypatch.setattr(residual, "_place_decisions", flipped)
    code, out = _main_in_process(monkeypatch, [command, "7", "3", "59", "--json"])
    assert (code, out) == (cli.EXIT_ORACLE, "")
    assert capsys.readouterr().err == (
        "internal verification failure: xi: no exact root, though (7, 3, 59) is inside the pattern\n")


# sha256 of the standard output of twelve commands. Answers and certificates are
# fixed byte for byte, so a new hash here is a change of output, not of speed.
PINNED_STDOUT = {
    ("delta", "7", "11", "43", "--places", "all", "--json"):
        "09d2aa46ad91b730f04828be297925584bbbfd27c9aa160c96a9f73afbc2842c",
    ("delta", "1031", "1019", "1171", "--places", "all", "--json"):
        "655c8a124d759d29c7a91b0a0967e8c35b3acd2e1afe445219f9751290ed264b",
    ("verify-paper", "--json"):
        "7e64b9419f3839f78ee9afa5c5fb9cb81a3de5ec70a68725d45d0cdab79d5e38",
    ("separate", str(DATA / "separate_7_19_3.json"), "--json"):
        "52ced9261b5e13a80f0052a42f939e8fee848bb12d86ebab697269f679dbd62b",
    ("fsu", "3023", "3011", "3019", "--json"):
        "a70ff5ed8b49af87ae464b05c560d35696bc4abcb412c888c6fdbff19e0e3b9d",
    ("fsu", "10007", "10067", "10091", "--json"):
        "50ea56907a7317f6bf1fb6925f62252e3fd07fdf30b0db1318e4eedff435952d",
    ("sqrt", "octic:7,19,3", "--", "1/49,0,0,0,0,0,0,0"):
        "8e03276567e9d9306ba3147752845dd5c99a5be0aa3a0e8e8ee0b3b90f1e52b5",
    ("fsu", "7", "19", "3"):
        "06c50e015c24204fb7f65800d824b33b8f6c0fa1fb712bdd44c2c3a535870b3e",
    ("delta", "7", "19", "3"):
        "5d20940a2d3591003e1d99882e1811b6e0f0ddfeb1e6ceeddfa217c3bbd191b5",
    ("delta", "30047", "30011", "30139", "--json"):
        "8cef75d8c8171e3f6b2f8a4b81674dc0f0f7078ede32061fbd74439194a0cbc8",
    ("datum", "7", "19", "3", "--json"):
        "2cb6f8eb43ed31af419ac8afa8acb919fe440b4d800a08a90104f4cc99c99729",
    ("delta", "7", "11", "43", "--places", "all"):
        "b649a5e243e5f74592ecc56950455b446855aac1625eb4e7b9a6ca3b345307c4",
}


@pytest.mark.parametrize(
    "argv",
    list(PINNED_STDOUT),
    ids=["delta-7-11-43", "delta-1031", "verify-paper", "separate", "fsu-3023", "fsu-10007",
         "sqrt-1/49", "fsu-7-19-3-text", "delta-7-19-3-text", "delta-30047", "datum-7-19-3",
         "delta-7-11-43-text"],
)
def test_stdout_matches_pinned_sha256(monkeypatch, argv):
    code, out = _main_in_process(monkeypatch, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


def test_certificate_json_needs_no_lifted_int_string_limit():
    # FSU coordinates of this triple run to about 4350 digits, past the
    # interpreter's default limit of 4300 on int-to-str conversion
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-string limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        out = json.dumps(delta(10007, 10067, 10091).to_json_dict(), indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    argv = ("fsu", "10007", "10067", "10091", "--json")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


# The flags of each subcommand, as its --help lists them; the Pell unit file
# cache and its --cache flag are gone.
HELP_FLAGS = {
    "delta": ["--force", "--help", "--json", "--places", "--prime-bound"],
    "fsu": ["--force", "--help", "--json", "--prime-bound"],
    "datum": ["--help", "--json"],
    "pell": ["--help", "--json"],
    "sqrt": ["--help", "--json"],
    "separate": ["--help", "--json", "--prime-bound"],
    "verify-paper": ["--help", "--json", "--prime-bound"],
}


@pytest.mark.parametrize("command", list(HELP_FLAGS))
def test_help_lists_exactly_the_pinned_flags(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
        cli.build_parser().parse_args([command, "--help"])
    assert exit_.value.code == 0
    assert sorted(set(re.findall(r"--[a-z][a-z-]*", out.getvalue()))) == HELP_FLAGS[command]


def test_force_does_nothing_on_a_triple_inside_the_pattern(monkeypatch):
    # --force acts only on a triple outside the pattern: here the oracle stays
    # off and the certificate stays hypothesis-verified, byte for byte
    forced = _main_in_process(monkeypatch, ["delta", "7", "19", "3", "--force", "--json"])
    assert forced == _main_in_process(monkeypatch, ["delta", "7", "19", "3", "--json"])
    doc = json.loads(forced[1])
    assert forced[0] == 0 and doc["hypotheses_verified"] is True and doc["oracle_checked"] is False
    # and the help of both subcommands that take --force says so
    for command in ("delta", "fsu"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        text = " ".join(out.getvalue().split())
        assert "--force run a triple outside the supported pattern" in text
        assert "no effect on a triple inside it" in text


def test_unitcert_cache_variable_writes_no_file(tmp_path):
    path = tmp_path / "cache.json"
    r = run_cli("pell", "133", env=dict(os.environ, UNITCERT_CACHE=str(path)))
    assert r.returncode == 0 and "2588599" in r.stdout
    assert not path.exists()


# sha256 of the concatenated standard output of `delta p q s --json` over the
# 986 in-pattern triples below 400, in lexicographic order.
CORPUS_DELTA_JSON = "37a8fd70902c5a47b58335a596feb0588af930f3d51fbdd36bbd70dd400ffcb1"


def test_delta_json_over_the_corpus_matches_pinned_sha256(monkeypatch):
    triples = oracles.in_pattern_triples(400)
    assert len(triples) == 986
    digest = hashlib.sha256()
    for triple in triples:
        code, out = _main_in_process(monkeypatch, ["delta", *map(str, triple), "--json"])
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == CORPUS_DELTA_JSON
