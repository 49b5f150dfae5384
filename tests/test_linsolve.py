from __future__ import annotations

import numpy as np
import pytest

from imchit import SingularSystem, solve_value
from imchit.linsolve import solve_precise
from modelzoo import (drift_chain_model, gambler_model, hitting_times,
                      nontarget_block, precise_model)


def complement(n: int, target: set[int]) -> np.ndarray:
    """The non-target indices of ``n`` states."""
    return np.array([x for x in range(n) if x not in target], dtype=np.intp)


@pytest.mark.parametrize("n", [4, 10])
def test_gambler_ruin_closed_form(n):
    m = gambler_model(n)
    # one vertex per row: the stack is the chain's transition matrix
    h = hitting_times(m.vertex_stack, m.nontarget_indices)
    expected = np.array([x * (n - x) for x in range(n + 1)], dtype=float)
    assert np.max(np.abs(h - expected)) <= 1e-10


def test_two_state_geometric_mean():
    h = solve_precise(np.array([[0.5]]), complement(2, {1}), 2)
    assert h[0] == pytest.approx(2.0, abs=1e-12)
    assert h[1] == 0.0


def test_target_states_are_exactly_zero(rng):
    h = hitting_times(rng.dirichlet(np.ones(5), size=5), complement(5, {1, 3}))
    assert h[1] == 0.0 and h[3] == 0.0
    assert (h >= 0.0).all()


def test_residual_bound_holds(rng):
    for _ in range(20):
        n = int(rng.integers(3, 8))
        matrix = rng.dirichlet(np.ones(n), size=n)
        h = hitting_times(matrix, complement(n, {0}))
        mask = np.ones(n)
        mask[0] = 0.0
        residual = np.max(np.abs(h - mask - mask * (matrix @ h)))
        assert residual <= 1e-9 * (1.0 + np.max(h))


def test_unreachable_target_is_singular():
    with pytest.raises(SingularSystem):
        solve_precise(np.array([[1.0]]), complement(2, {1}), 2)


def test_trivial_target_is_rejected(rng):
    block = rng.dirichlet(np.ones(3), size=3)
    for entries in (block, np.stack([block, block])):
        with pytest.raises(ValueError, match="non-empty strict subset"):
            solve_precise(entries.copy(), complement(3, set()), 3)
        with pytest.raises(ValueError, match="non-empty strict subset"):
            solve_precise(entries[..., :0, :0].copy(), complement(3, {0, 1, 2}), 3)


def test_block_must_fit_the_non_target_states(rng):
    nontarget = complement(4, {3})
    block = rng.dirichlet(np.ones(4), size=4)
    for bad in (block,                           # the whole matrix
                block[:3, :2].copy(),            # not square
                block[:3, :3].copy().T):         # not C-contiguous
        with pytest.raises(ValueError, match="block must be C-contiguous"):
            solve_precise(bad, nontarget, 4)


def test_agrees_with_long_value_iteration(rng):
    matrix = rng.dirichlet(np.ones(4), size=4)
    m = precise_model(matrix, {2})
    direct = hitting_times(matrix, m.nontarget_indices)
    iterated = solve_value(m, tol=1e-12, max_iter=10 ** 6).solution.values
    assert np.max(np.abs(direct - iterated)) <= 1e-6


def test_stack_matches_one_by_one_solves(rng):
    for n in (3, 7, 40):
        nontarget = complement(n, {0, n - 1})
        stack = rng.dirichlet(np.ones(n), size=(3, n))
        together = hitting_times(stack, nontarget)
        assert together.shape == (3, n)
        for matrix, h in zip(stack, together):
            alone = hitting_times(matrix, nontarget)
            assert alone.shape == (n,)
            assert alone.tobytes() == h.tobytes()


def test_result_is_read_only(rng):
    matrix = rng.dirichlet(np.ones(4), size=4)
    for entries in (matrix, matrix[None]):
        h = hitting_times(entries, complement(4, {3}))
        with pytest.raises(ValueError):
            h[0] = 1.0


def test_one_singular_matrix_fails_the_stack(rng):
    matrix = rng.dirichlet(np.ones(2), size=2)
    with pytest.raises(SingularSystem):
        hitting_times(np.stack([matrix, np.eye(2)]), complement(2, {1}))


def drift_chain_matrices(n: int, rng, count: int) -> np.ndarray:
    """``count`` transition matrices of ``drift_chain_model(n)``, one random
    vertex per row: birth-death rows, every other entry an exact zero."""
    m = drift_chain_model(n)
    picks = m.vertex_offsets + rng.integers(0, m.vertex_counts, size=(count, n))
    return m.vertex_stack[picks]


# Where the target sits: the states are renumbered so that the chain's
# target, its last state, lands there, and "two" adds a second target.
PLACEMENTS = {"last": ({11}, np.arange(12)),
              "first": ({0}, np.arange(12)[::-1]),
              "middle": ({5}, np.r_[0:5, 11, 6:11, 5]),
              "two": ({4, 11}, np.arange(12))}


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@pytest.mark.parametrize("rows", ["drift", "dirichlet"])
@pytest.mark.parametrize("stacked", [False, True])
def test_solve_is_numpy_solve_of_eye_minus_q_bit_for_bit(rng, placement, rows,
                                                         stacked):
    target, order = PLACEMENTS[placement]
    n = len(order)
    if rows == "drift":
        # renumbered so that state order[i] becomes state i
        matrices = drift_chain_matrices(n, rng, 3)[:, order][:, :, order]
    else:
        matrices = rng.dirichlet(np.ones(n), size=(3, n))
    entries = matrices if stacked else matrices[0]
    nontarget = complement(n, target)
    q = nontarget_block(entries, nontarget)
    k = len(nontarget)
    expected = np.zeros(entries.shape[:-1])
    expected[..., nontarget] = np.linalg.solve(
        np.eye(k) - q, np.ones(q.shape[:-1] + (1,)))[..., 0]
    block = q.copy()
    h = solve_precise(block, nontarget, n)
    assert h.tobytes() == expected.tobytes()
    # the block now holds I - Q, rounded as np.eye(k) - Q is
    assert block.tobytes() == (np.eye(k) - q).tobytes()
