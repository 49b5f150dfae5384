from __future__ import annotations

import types

import imchit


def test_all_lists_exactly_the_public_names():
    names = imchit.__all__
    assert all(isinstance(name, str) and name for name in names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(imchit, name), name
    bound = {name for name, value in vars(imchit).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == bound
