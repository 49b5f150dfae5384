from __future__ import annotations

import types

import imchit


def test_the_unchecked_linear_solve_is_not_exported():
    # every public function that returns hitting times vouches for them
    assert "solve_precise" not in imchit.__all__
    assert not hasattr(imchit, "solve_precise")
    assert callable(imchit.linsolve.solve_precise)


def test_all_lists_exactly_the_public_names():
    names = imchit.__all__
    assert all(isinstance(name, str) and name for name in names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(imchit, name), name
    bound = {name for name, value in vars(imchit).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == bound
