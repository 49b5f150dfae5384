from __future__ import annotations

import numpy as np
import pytest

from imchit import (SingularSystem, TargetSet, TransitionMatrix, solve_precise,
                    solve_value)
from modelzoo import gambler_model, precise_model


@pytest.mark.parametrize("n", [4, 10])
def test_gambler_ruin_closed_form(n):
    m = gambler_model(n)
    matrix = TransitionMatrix.checked(m.vertex_stack)
    h = solve_precise(matrix, m.target).values
    expected = np.array([x * (n - x) for x in range(n + 1)], dtype=float)
    assert np.max(np.abs(h - expected)) <= 1e-10


def test_two_state_geometric_mean():
    matrix = TransitionMatrix.checked(np.array([[0.5, 0.5], [0.0, 1.0]]))
    h = solve_precise(matrix, TargetSet({1})).values
    assert h[0] == pytest.approx(2.0, abs=1e-12)
    assert h[1] == 0.0


def test_target_states_are_exactly_zero(rng):
    matrix = TransitionMatrix.checked(rng.dirichlet(np.ones(5), size=5))
    target = TargetSet({1, 3})
    h = solve_precise(matrix, target).values
    assert h[1] == 0.0 and h[3] == 0.0
    assert (h >= 0.0).all()


def test_residual_bound_holds(rng):
    for _ in range(20):
        n = int(rng.integers(3, 8))
        matrix = TransitionMatrix.checked(rng.dirichlet(np.ones(n), size=n))
        target = TargetSet({0})
        h = solve_precise(matrix, target).values
        mask = np.ones(n)
        mask[0] = 0.0
        residual = np.max(np.abs(h - mask - mask * (matrix.entries @ h)))
        assert residual <= 1e-9 * (1.0 + np.max(h))


def test_unreachable_target_is_singular():
    matrix = TransitionMatrix.checked(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(SingularSystem):
        solve_precise(matrix, TargetSet({1}))


def test_trivial_target_is_rejected(rng):
    matrix = TransitionMatrix.checked(rng.dirichlet(np.ones(3), size=3))
    with pytest.raises(ValueError):
        solve_precise(matrix, TargetSet(set()))
    with pytest.raises(ValueError):
        solve_precise(matrix, TargetSet({0, 1, 2}))


def test_agrees_with_long_value_iteration(rng):
    matrix = rng.dirichlet(np.ones(4), size=4)
    m = precise_model(matrix, {2})
    direct = solve_precise(TransitionMatrix.checked(matrix), m.target).values
    iterated = solve_value(m, tol=1e-12, max_iter=10 ** 6).solution.values
    assert np.max(np.abs(direct - iterated)) <= 1e-6
