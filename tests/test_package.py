import ast
import inspect
import sys
import types
from pathlib import Path

import unitcert


def test_all_is_exactly_the_public_names_of_the_package():
    # a deleted export must leave __all__ too, and a new one must join it
    for name in unitcert.__all__:
        assert getattr(unitcert, name, None) is not None, name
    public = {
        name for name, value in vars(unitcert).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(unitcert.__all__) == sorted(public)


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


def test_the_package_imports_only_itself_and_the_standard_library():
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "unitcert").glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}" for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


# Names the guard below allows although nothing in src/ reads them: the
# benchmark's tracer (bench/tracer.py) wraps both by name, so they stay until
# the benchmark stops hooking them.
UNREAD_BUT_HOOKED = {
    ("fields", "sqrt_preferring_subfield"): "bench/tracer.py hooks it to time FSU roots",
    ("residual", "sqrt_octic"): "bench/tracer.py hooks the octic oracle through this import",
}


def _module_trees() -> dict[str, ast.Module]:
    src = Path(__file__).resolve().parents[1] / "src" / "unitcert"
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}


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
