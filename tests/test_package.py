import inspect
import types

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
    "Certificate": ["theta"],
    "Generator": ["mu"],
    "PlaceDecision": ["theta_residue", "legendre_theta", "delta"],
    "TowerElement": ["den"],
    "certify_affine": ["bound"],
    "delta": ["prime_bound", "force", "oracle", "with_fsu", "cache"],
    "find_split_primes": ["bound"],
    "fundamental_pell": ["cache"],
    "iter_split_primes": ["bound"],
    "noncollapse_check": ["prime_bound", "cache"],
    "separate_candidates": ["bound"],
    "survey_places": ["prime_bound", "cache", "theta_elem"],
    "theta": ["cache"],
    "theta_factors": ["cache"],
}


def test_every_optional_parameter_of_the_public_api_is_pinned():
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
    assert found == OPTIONAL_PARAMETERS
    assert sum(map(len, found.values())) == 23
