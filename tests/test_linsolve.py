from __future__ import annotations

import numpy as np
import pytest

from imchit import SingularSystem, solve_precise, solve_value
from modelzoo import gambler_model, precise_model


def complement(n: int, target: set[int]) -> np.ndarray:
    """The non-target indices of ``n`` states."""
    return np.array([x for x in range(n) if x not in target])


@pytest.mark.parametrize("n", [4, 10])
def test_gambler_ruin_closed_form(n):
    m = gambler_model(n)
    # one vertex per row: the stack is the chain's transition matrix
    h = solve_precise(m.vertex_stack, m.nontarget_indices)
    expected = np.array([x * (n - x) for x in range(n + 1)], dtype=float)
    assert np.max(np.abs(h - expected)) <= 1e-10


def test_two_state_geometric_mean():
    h = solve_precise(np.array([[0.5, 0.5], [0.0, 1.0]]), complement(2, {1}))
    assert h[0] == pytest.approx(2.0, abs=1e-12)
    assert h[1] == 0.0


def test_target_states_are_exactly_zero(rng):
    h = solve_precise(rng.dirichlet(np.ones(5), size=5), complement(5, {1, 3}))
    assert h[1] == 0.0 and h[3] == 0.0
    assert (h >= 0.0).all()


def test_residual_bound_holds(rng):
    for _ in range(20):
        n = int(rng.integers(3, 8))
        matrix = rng.dirichlet(np.ones(n), size=n)
        h = solve_precise(matrix, complement(n, {0}))
        mask = np.ones(n)
        mask[0] = 0.0
        residual = np.max(np.abs(h - mask - mask * (matrix @ h)))
        assert residual <= 1e-9 * (1.0 + np.max(h))


def test_unreachable_target_is_singular():
    with pytest.raises(SingularSystem):
        solve_precise(np.eye(2), complement(2, {1}))


def test_trivial_target_is_rejected(rng):
    matrix = rng.dirichlet(np.ones(3), size=3)
    for entries in (matrix, np.stack([matrix, matrix])):
        with pytest.raises(ValueError):
            solve_precise(entries, complement(3, set()))
        with pytest.raises(ValueError):
            solve_precise(entries, complement(3, {0, 1, 2}))


def test_agrees_with_long_value_iteration(rng):
    matrix = rng.dirichlet(np.ones(4), size=4)
    m = precise_model(matrix, {2})
    direct = solve_precise(matrix, m.nontarget_indices)
    iterated = solve_value(m, tol=1e-12, max_iter=10 ** 6).solution.values
    assert np.max(np.abs(direct - iterated)) <= 1e-6


def test_stack_matches_one_by_one_solves(rng):
    for n in (3, 7, 40):
        nontarget = complement(n, {0, n - 1})
        stack = rng.dirichlet(np.ones(n), size=(3, n))
        together = solve_precise(stack, nontarget)
        assert together.shape == (3, n)
        for matrix, h in zip(stack, together):
            alone = solve_precise(matrix, nontarget)
            assert alone.shape == (n,)
            assert alone.tobytes() == h.tobytes()


def test_result_is_read_only(rng):
    matrix = rng.dirichlet(np.ones(4), size=4)
    for entries in (matrix, matrix[None]):
        h = solve_precise(entries, complement(4, {3}))
        with pytest.raises(ValueError):
            h[0] = 1.0


def test_one_singular_matrix_fails_the_stack(rng):
    matrix = rng.dirichlet(np.ones(2), size=2)
    with pytest.raises(SingularSystem):
        solve_precise(np.stack([matrix, np.eye(2)]), complement(2, {1}))
