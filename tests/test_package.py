import ast
import copy
import importlib
import inspect
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import unitcert
from unitcert import golden

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_is_exactly_the_public_names_of_the_package():
    # a deleted export must leave __all__ too, and a new one must join it
    for name in unitcert.__all__:
        assert getattr(unitcert, name, None) is not None, name
    public = {
        name for name, value in vars(unitcert).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(unitcert.__all__) == sorted(public)


# Each export, by its home module. `_HOME` in the package is the one list of
# the exports; a name added there or dropped from it must be pinned here on purpose.
EXPORTS = {
    "arith": ["hilbert_symbol", "is_prime", "jacobi", "sqrt_mod"],
    "certify": ["AffineCertificate", "SeparationCertificate", "TestFunctional", "certify_affine",
                "separate_candidates"],
    "errors": ["DenominatorNotInvertible", "HypothesisViolation", "Inseparable", "InvalidPlace",
               "NonUnitResidue", "NotASquareInBiquad", "OracleDisagreement", "RankDeficient",
               "SearchExhausted", "UnitCertError"],
    "fields": ["BiquadField", "OcticField", "Tower", "TowerElement", "biquad_unit_index",
               "sqrt_exact", "sqrt_octic", "theta", "theta_factors"],
    "pell": ["QuadUnit", "fundamental_pell", "is_squarefree"],
    "residual": ["Certificate", "ClassicalDatum", "Generator", "PlaceDecision", "SplitPlace",
                 "classical_datum", "decide_mu_hilbert", "delta", "enumerate_places", "fsu",
                 "iter_split_primes", "noncollapse_check", "residue_at", "survey_places"],
}


def exports() -> dict[str, list[str]]:
    """The names of `unitcert.__all__` by home module; CI prints their total
    in the job summary."""
    found = {}
    for name in unitcert.__all__:
        found.setdefault(unitcert._HOME[name], []).append(name)
    return found


def test_every_export_is_pinned_by_its_home_module():
    assert unitcert.__all__ == sorted(unitcert._HOME)
    assert exports() == EXPORTS
    assert sum(map(len, EXPORTS.values())) == 45


# Every value a caller can set on the public API: parameters with a default,
# and keyword bags (none). A new knob must be added here on purpose.
OPTIONAL_PARAMETERS = {
    "Generator": ["mu"],
    "PlaceDecision": ["theta_residue", "legendre_theta"],
    "TowerElement": ["den"],
    "certify_affine": ["bound"],
    "delta": ["prime_bound", "force", "oracle", "with_fsu"],
    "iter_split_primes": ["bound"],
    "noncollapse_check": ["prime_bound"],
    "separate_candidates": ["bound"],
    "survey_places": ["prime_bound", "theta_elem"],
}


def optional_parameters() -> dict[str, list[str]]:
    """The optional parameters of each callable in `unitcert.__all__` that has
    any; CI prints their total in the job summary."""
    found = {}
    for name in unitcert.__all__:
        obj = getattr(unitcert, name)
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):
            continue  # no signature to read, such as an exception class's
        optional = [
            p.name for p in params
            if p.default is not p.empty or p.kind is p.VAR_KEYWORD
        ]
        if optional:
            found[name] = optional
    return found


def test_every_optional_parameter_of_the_public_api_is_pinned():
    found = optional_parameters()
    assert found == OPTIONAL_PARAMETERS
    assert sum(map(len, found.values())) == 14


def _imports(tree: ast.Module) -> list[str]:
    """The absolute module names that a module's import statements name."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return names


def test_the_package_imports_only_itself_and_the_standard_library():
    trees = _module_trees()
    assert trees
    outside = [
        f"{module}.py: {name}" for module, tree in trees.items() for name in _imports(tree)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_no_module_imports_dataclasses_or_typing():
    # records are plain __slots__ classes and annotations name collections.abc:
    # either module would cost every command its import
    found = [
        f"{module}.py: {name}" for module, tree in _module_trees().items() for name in _imports(tree)
        if name.partition(".")[0] in ("dataclasses", "typing")
    ]
    assert found == []


def _modules_after(code: str) -> set[str]:
    """The modules loaded in a child interpreter started with -S (no site,
    so nothing but what code imports) once it has run code."""
    run = subprocess.run(
        [sys.executable, "-S", "-c", f"{code}\nimport sys\nprint(*sys.modules, file=sys.stderr)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )
    assert run.returncode == 0, run.stderr
    return set(run.stderr.split())


def test_a_command_loads_only_the_modules_it_runs():
    package = {"unitcert.arith", "unitcert.errors", "unitcert.pell", "unitcert.fields",
               "unitcert.residual", "unitcert.cli"}
    assert {m for m in _modules_after("import unitcert") if m.startswith("unitcert.")} == set()
    loaded = _modules_after("from unitcert import cli\ncli.main(['delta', '7', '19', '3', '--json'])")
    assert {m for m in loaded if m.startswith("unitcert.")} == package
    # a module the standard library that src/ names loads by itself, on some
    # Python version, does not count against the package
    stdlib = sorted({name for tree in _module_trees().values() for name in _imports(tree)})
    alone = _modules_after("import " + ", ".join(stdlib))
    assert {"dataclasses", "inspect", "typing"} & loaded <= alone


def test_each_export_is_its_home_modules_object_and_an_unknown_name_is_refused():
    for name in unitcert.__all__:
        value = getattr(unitcert, name)
        home = f"unitcert.{unitcert._HOME[name]}"
        assert value.__module__ == home, name  # the module that defines it, not one that imports it
        assert value is getattr(importlib.import_module(home), name)
        assert vars(unitcert)[name] is value  # kept after the first access
    with pytest.raises(AttributeError, match=r"^module 'unitcert' has no attribute 'no_such_name'$"):
        unitcert.no_such_name
    assert set(unitcert.__all__) <= set(dir(unitcert))


# The fields each record's equality compares, in order; any other field it
# keeps is left out of equality, the hash and the repr.
RECORD_FIELDS = {
    "QuadUnit": ("d", "x", "y", "norm"),
    "ClassicalDatum": ("p_mod8", "q_mod8", "s_mod8", "legendre_q_p", "legendre_s_p", "legendre_q_s"),
    "SplitPrime": ("t", "p", "q", "s", "residues"),
    "SplitPlace": ("prime", "signs"),
    "Generator": ("name", "element", "mu"),
    "Certificate": ("p", "q", "s", "datum", "hypotheses_verified", "place", "theta_residue",
                    "eps_pq_residue", "legendre_theta", "fsu", "oracle_checked"),
    "PlaceDecision": ("place", "eps_residue", "valid", "theta_residue", "legendre_theta"),
    "TestFunctional": ("place",),
    "AffineCertificate": ("functionals", "matrix", "base_bits"),
    "SeparationCertificate": ("candidates", "functionals", "table"),
    "ExampleValues": ("label", "triple", "datum", "t", "place_roots", "factor_pq_residue",
                      "factor_ps_residue", "theta_residue", "legendre_theta", "eps_pq_residue",
                      "delta", "mu", "eps_theta_residue"),
    "CheckItem": ("name", "expected", "actual"),
}
FROZEN_RECORDS = {"QuadUnit", "ClassicalDatum", "TestFunctional", "ExampleValues"}


def test_records_compare_hash_and_refuse_assignment_by_their_fields():
    cert = unitcert.delta(7, 19, 3)
    octic = unitcert.OcticField(7, 19, 3)
    candidates = [octic.one(), octic.from_quad_unit(cert.eps_pq)]
    separation = unitcert.separate_candidates(candidates)
    records = [
        cert.eps_pq, cert.datum, cert.place.prime, cert.place, cert.fsu[0], cert,
        unitcert.survey_places(7, 19, 3)[0], separation.functionals[0],
        unitcert.certify_affine(candidates[0], candidates[1:]), separation,
        golden.EXAMPLES[0], golden.CheckItem("x", "1", "1"),
    ]
    assert sorted(type(r).__name__ for r in records) == sorted(RECORD_FIELDS)
    for record in records:
        kind, compared = type(record).__name__, RECORD_FIELDS[type(record).__name__]
        assert not hasattr(record, "__dict__"), kind
        twin = copy.copy(record)
        assert twin == record and twin is not record, kind
        # a field replaced by a fresh object makes the twin unequal exactly
        # when equality compares it (half, theta_factors and eps_pq: never)
        for name in type(record).__slots__:
            value = getattr(record, name)
            object.__setattr__(twin, name, object())
            assert (twin != record) == (name in compared), (kind, name)
            object.__setattr__(twin, name, value)
        assert set(compared) <= set(type(record).__slots__), kind
        if kind in FROZEN_RECORDS:
            assert pickle.loads(pickle.dumps(record)) == record
            # hashed by the compared fields; a TestFunctional's place, a SplitPlace, has no hash
            if kind != "TestFunctional":
                assert hash(twin) == hash(record)
            for name in type(record).__slots__:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))
                with pytest.raises(AttributeError):
                    delattr(record, name)
        else:
            with pytest.raises(TypeError):
                hash(record)
    assert cert.eps_pq.half is not None and repr(cert.eps_pq) == "QuadUnit(d=133, x=2588599, y=224460, norm=1)"


# Names the guard below allows although nothing in src/ reads them: the
# benchmark's tracer (bench/tracer.py) wraps both by name, so they stay until
# the benchmark stops hooking them.
UNREAD_BUT_HOOKED = {
    ("fields", "sqrt_preferring_subfield"): "bench/tracer.py hooks it to time FSU roots",
    ("residual", "sqrt_octic"): "bench/tracer.py hooks the octic oracle through this import",
}


def _module_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted((SRC / "unitcert").glob("*.py"))}


def _defined(statement) -> list[str]:
    """The module-level names a top-level statement defines, imports aside."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        targets = []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def _reads(module: str, statement, sibling_modules) -> set[tuple[str, str]]:
    """The (module, name) pairs of src/ that a top-level statement refers to:
    names of its own module, names it imports from a sibling module, and
    attributes it reads off an imported sibling module."""
    found = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            found.add((module, node.id))
        elif isinstance(node, ast.ImportFrom) and node.level:
            found.update((node.module, alias.name) for alias in node.names if node.module)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in sibling_modules):
            found.add((node.value.id, node.attr))
    return found


def test_every_module_level_definition_and_import_is_read():
    trees = _module_trees()
    siblings = {}  # module -> the sibling modules it imports whole (from . import x)
    for module, tree in trees.items():
        siblings[module] = {
            alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None
            for alias in node.names
        }
    reads = [
        (module, i, _reads(module, statement, siblings[module]))
        for module, tree in trees.items() for i, statement in enumerate(tree.body)
    ]
    unread = []
    for module, tree in trees.items():
        for i, statement in enumerate(tree.body):
            for name in _defined(statement):
                if (name.startswith("__") and name.endswith("__")) or name in unitcert.__all__:
                    continue
                if not any((module, name) in found for m, j, found in reads if (m, j) != (module, i)):
                    unread.append((module, name))
        # an import binds a name the module must read (in __init__, export)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if module == "__init__":
            used |= set(unitcert.__all__)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unread.append((module, name))
    assert sorted(set(unread)) == sorted(UNREAD_BUT_HOOKED)


def test_no_record_is_built_past_its_constructor():
    # every record proves its invariant in its constructor: nothing in src/
    # allocates one with object.__new__ or reaches into an instance's __dict__
    bypasses = []
    for module, tree in _module_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (
                node.attr == "__dict__"
                or (node.attr == "__new__" and isinstance(node.value, ast.Name) and node.value.id == "object")
            ):
                bypasses.append(f"{module}.py:{node.lineno}")
    assert bypasses == []
