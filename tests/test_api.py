from __future__ import annotations

import types

import numpy as np

import imchit
from imchit import Constraint, apply, minimize_row
from modelzoo import box_model


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


def test_results_and_constraints_compare_without_raising():
    # a type that holds arrays compares by identity, or by the fields that
    # name its arrays; none asks an array for its truth value
    m = box_model(8, 5, coupled=range(8))
    f = np.arange(8.0)
    first, again = apply(m, f, "lower"), apply(m, f, "lower")
    assert first == first and first != again
    assert not first.changed(again).any()
    row = m.rows[0]
    assert minimize_row(row, f) == minimize_row(row, f)  # optimum and basis
    c, twin = Constraint(np.ones(3), "<=", 0.5), Constraint(np.ones(3), "<=", 0.5)
    assert c == c and c != twin
    assert len({c, twin, c}) == 2
