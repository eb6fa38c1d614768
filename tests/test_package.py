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
    "find_split_primes": ["bound"],
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
    assert sum(map(len, found.values())) == 15


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
