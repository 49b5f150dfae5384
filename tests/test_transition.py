from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from imchit import (Model, RowPolytopeV, StateSpace, TargetSet, lower_apply,
                    lower_apply_n, policy_to_matrix, random_model, upper_apply,
                    upper_apply_n)
from imchit import lp
from modelzoo import box_model, box_row, precise_model, random_mixed_model


@pytest.fixture
def two_state():
    rows = (RowPolytopeV(np.array([[1.0, 0.0], [0.0, 1.0]])),
            RowPolytopeV(np.array([[0.5, 0.5]])))
    return Model(StateSpace(("a", "b")), TargetSet({1}), rows)


def test_precise_chain_reduces_to_matrix_vector_product(rng):
    matrix = rng.dirichlet(np.ones(4), size=4)
    m = precise_model(matrix, {3})
    f = rng.normal(size=4)
    assert np.allclose(lower_apply(m, f).value, matrix @ f, atol=1e-12)
    assert np.allclose(upper_apply(m, f).value, matrix @ f, atol=1e-12)


def test_constant_functions_are_fixed(rng):
    m = random_mixed_model(rng)
    for mu in (-3.0, 0.0, 2.5):
        f = np.full(m.size, mu)
        assert np.allclose(lower_apply(m, f).value, mu, atol=1e-9)
        assert np.allclose(upper_apply(m, f).value, mu, atol=1e-9)
        assert np.allclose(lower_apply_n(m, f, 3), mu, atol=1e-9)


def test_two_state_scan(two_state):
    f = np.array([2.0, 5.0])
    low = lower_apply(two_state, f)
    up = upper_apply(two_state, f)
    assert low.value[0] == pytest.approx(2.0) and low.policy.selectors[0] == 0
    assert up.value[0] == pytest.approx(5.0) and up.policy.selectors[0] == 1


def test_apply_n_composes(two_state, rng):
    f = rng.normal(size=2)
    assert np.array_equal(lower_apply_n(two_state, f, 1), lower_apply(two_state, f).value)
    once = lower_apply(two_state, f).value
    assert np.array_equal(lower_apply_n(two_state, f, 2),
                          lower_apply(two_state, once).value)
    with pytest.raises(ValueError):
        lower_apply_n(two_state, f, 0)
    assert np.array_equal(upper_apply_n(two_state, f, 1),
                          upper_apply(two_state, f).value)


def test_policy_attains_the_value(rng):
    for _ in range(30):
        m = random_mixed_model(rng)
        f = rng.uniform(-8.0, 8.0, size=m.size)
        for apply_op in (lower_apply, upper_apply):
            res = apply_op(m, f)
            matrix = policy_to_matrix(m, res.policy)
            assert np.allclose(matrix.entries @ f, res.value, atol=1e-9)


def test_conjugacy(rng):
    for _ in range(30):
        m = random_mixed_model(rng)
        f = rng.uniform(-8.0, 8.0, size=m.size)
        assert np.allclose(upper_apply(m, f).value,
                           -lower_apply(m, -f).value, atol=1e-9)


def test_repeated_application_is_deterministic(rng):
    m = random_mixed_model(rng)
    f = rng.normal(size=m.size)
    first = lower_apply(m, f)
    again = lower_apply(m, f)
    assert first.policy == again.policy
    assert np.array_equal(first.value, again.value)


def test_shape_mismatch_is_rejected(two_state):
    with pytest.raises(ValueError):
        lower_apply(two_state, np.zeros(3))


def test_result_matrix_is_the_policy_matrix(rng):
    for _ in range(30):
        m = random_mixed_model(rng)
        f = rng.uniform(-8.0, 8.0, size=m.size)
        for apply_op in (lower_apply, upper_apply):
            res = apply_op(m, f)
            rebuilt = policy_to_matrix(m, res.policy).entries
            assert np.max(np.abs(res.matrix() - rebuilt)) <= 1e-9
            # V-rep rows are the stored vertices themselves
            for x, row in enumerate(m.rows):
                if isinstance(row, RowPolytopeV):
                    assert np.array_equal(res.matrix()[x], rebuilt[x])


def test_warm_operator_matches_the_cold_one(rng):
    for _ in range(30):
        m = random_mixed_model(rng)
        previous = lower_apply(m, rng.normal(size=m.size))
        for apply_op in (lower_apply, upper_apply, lower_apply):
            f = rng.uniform(-8.0, 8.0, size=m.size)
            warm = apply_op(m, f, start=previous)
            assert np.max(np.abs(warm.value - apply_op(m, f).value)) <= 1e-12
            previous = warm


def test_start_from_another_model_is_refused(rng):
    m = random_mixed_model(rng)
    other = random_mixed_model(rng)
    with pytest.raises(ValueError):
        lower_apply(m, np.zeros(m.size), start=lower_apply(other, np.zeros(other.size)))


def ragged_model(rng, n: int = 7) -> Model:
    """Vertex rows of 1 to 6 vertices, mixed with interval rows; a row of
    three or more repeats its first vertex last, so its scores tie."""
    rows = []
    for x in range(n):
        if x % 3 == 2:
            rows.append(box_row(n, np.full(n, 0.02), np.full(n, 0.5)))
            continue
        vertices = rng.dirichlet(np.ones(n), size=int(rng.integers(1, 7)))
        if len(vertices) > 2:
            vertices[-1] = vertices[0]
        rows.append(RowPolytopeV(vertices))
    return Model(StateSpace(tuple(f"s{i}" for i in range(n))),
                 TargetSet({n - 1}), tuple(rows))


def reference_apply(m: Model, f: np.ndarray, sign: float):
    """Row by row: an argmin over each vertex row's own scores, the
    simplex on each constraint row.  The scores come from one product
    with the whole stack, as in the operator: BLAS may round a product
    with one row's block differently in the last bit."""
    scores = m.vertex_stack @ (sign * f)
    value, selectors, picks = [], [], []
    for x, row in enumerate(m.rows):
        if isinstance(row, RowPolytopeV):
            lo = m.vertex_offsets[x]
            dots = scores[lo:lo + row.num_vertices]
            k = int(np.argmin(dots))
            value.append(sign * dots[k])
            selectors.append(k)
            picks.append(m.vertex_offsets[x] + k)
        else:
            sol = lp.minimize_row(row, sign * f)
            value.append(float(f @ sol.vertex))
            selectors.append(sol.basis)
            picks.append(-1)
    return np.array(value), tuple(selectors), np.array(picks)


def test_selection_matches_the_per_row_scan(rng):
    for _ in range(20):
        m = ragged_model(rng, n=int(rng.integers(3, 9)))
        for f in (rng.normal(size=m.size), np.zeros(m.size),
                  rng.integers(0, 3, size=m.size).astype(float)):
            for apply_op, sign in ((lower_apply, 1.0), (upper_apply, -1.0)):
                res = apply_op(m, f)
                value, selectors, picks = reference_apply(m, f, sign)
                assert res.value.tobytes() == value.tobytes()
                assert res.policy.selectors == selectors
                assert np.array_equal(res.picks, picks)


def test_rows_are_views_of_the_packed_stack(rng):
    m = ragged_model(rng)
    assert not m.vertex_stack.flags.writeable
    assert m.vertex_stack.shape == (int(m.vertex_counts.sum()), m.size)
    for x, row in enumerate(m.rows):
        if isinstance(row, RowPolytopeV):
            lo = m.vertex_offsets[x]
            assert np.shares_memory(row.vertices, m.vertex_stack)
            assert np.array_equal(row.vertices,
                                  m.vertex_stack[lo:lo + m.vertex_counts[x]])
        else:
            assert m.vertex_counts[x] == 0


def test_first_application_copies_no_vertices():
    m = random_model(60, 20, 1)
    f = np.ones(m.size)
    tracemalloc.start()
    try:
        lower_apply(m, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m.vertex_stack.nbytes


def test_matrix_of_a_model_without_vertex_rows():
    m = box_model(6, 2)
    assert m.vertex_stack.shape == (0, 6)
    res = lower_apply(m, np.arange(6.0))
    assert np.array_equal(res.matrix(), np.stack([res.solutions[x].vertex
                                                  for x in range(6)]))
