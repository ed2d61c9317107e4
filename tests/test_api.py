"""The public API: each object is reached through one name."""

import types

import garside


def test_each_public_object_has_one_name():
    names: dict[int, list[str]] = {}
    for name in dir(garside):
        obj = getattr(garside, name)
        if not name.startswith("_") and not isinstance(obj, types.ModuleType):
            names.setdefault(id(obj), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []
