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
