import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from unitcert import cli, pell, residual

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


def test_pell():
    r = run_cli("pell", "826")
    assert "222239304685 + 7732694382*sqrt(826)" in r.stdout
    r = run_cli("pell", "826", "--json")
    doc = json.loads(r.stdout)
    assert doc == {"d": "826", "x": "222239304685", "y": "7732694382", "norm": "1"}


def test_pell_invalid_d():
    assert run_cli("pell", "12").returncode == 1


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


def test_verify_paper_catches_nonminimal_cache_entry(tmp_path):
    # (55 + 12 sqrt21)^2 passes the norm re-verification, so only the
    # reference replay can expose it, as a diff on the printed unit
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"21": {"x": "6049", "y": "1320", "norm": "1"}}))
    r = run_cli("verify-paper", "--cache", str(path))
    assert r.returncode == 1
    assert "FAIL" in r.stdout
    assert "expected (55, 12, +1)" in r.stdout


def test_cache_env_var_roundtrip(tmp_path):
    path = tmp_path / "cache.json"
    env = dict(os.environ, UNITCERT_CACHE=str(path))
    r = run_cli("pell", "133", env=env)
    assert r.returncode == 0
    stored = json.loads(path.read_text())
    assert stored["133"]["x"] == "2588599"
    # identity-violating entries are recomputed, not trusted
    path.write_text(json.dumps({"133": {"x": "9", "y": "1", "norm": "1"}}))
    r = run_cli("pell", "133", env=env)
    assert "2588599" in r.stdout


def _main_in_process(monkeypatch, argv) -> tuple[int, str]:
    monkeypatch.delenv("UNITCERT_CACHE", raising=False)
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
    assert sorted(walked) == sorted({2, p * q, 2 * p * q, p * s, 2 * p * s, q * s, 2 * q * s})


def test_delta_places_all_builds_theta_once(monkeypatch):
    built = []
    build = residual.theta
    monkeypatch.setattr(residual, "theta", lambda *args: built.append(args[:3]) or build(*args))
    code, out = _main_in_process(monkeypatch, ["delta", "7", "11", "43", "--places", "all", "--json"])
    assert code == 0 and json.loads(out)["all_places"]
    assert built == [(7, 11, 43)]


# sha256 of the standard output of ten commands. Answers and certificates are
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
}


@pytest.mark.parametrize(
    "argv",
    list(PINNED_STDOUT),
    ids=["delta-7-11-43", "delta-1031", "verify-paper", "separate", "fsu-3023", "fsu-10007",
         "sqrt-1/49", "fsu-7-19-3-text", "delta-7-19-3-text", "delta-30047"],
)
def test_stdout_matches_pinned_sha256(monkeypatch, argv):
    code, out = _main_in_process(monkeypatch, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]
