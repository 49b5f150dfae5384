from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from imchit import (Constraint, InvalidModel, Model, RowPolytopeH,
                    RowPolytopeV, StateSpace, TargetSet, lower_apply,
                    random_model, upper_apply)
from imchit import lp
from modelzoo import (box_model, box_row, coupled_row, edge_rows,
                      interval_minimum, interval_vertex, policy_matrix,
                      precise_model, random_mixed_model)


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
        g = f
        for _ in range(3):
            g = lower_apply(m, g).value
        assert np.allclose(g, mu, atol=1e-9)


def test_two_state_scan(two_state):
    f = np.array([2.0, 5.0])
    low = lower_apply(two_state, f)
    up = upper_apply(two_state, f)
    assert low.value[0] == pytest.approx(2.0) and low.policy.selectors[0] == 0
    assert up.value[0] == pytest.approx(5.0) and up.policy.selectors[0] == 1


def test_policy_attains_the_value(rng):
    for _ in range(30):
        m = random_mixed_model(rng, coupled=True)
        f = rng.uniform(-8.0, 8.0, size=m.size)
        for apply_op in (lower_apply, upper_apply):
            res = apply_op(m, f)
            matrix = policy_matrix(m, res.policy)
            assert np.allclose(matrix @ f, res.value, atol=1e-9)


def test_interval_policy_attains_the_value(rng):
    for _ in range(30):
        m = random_mixed_model(rng)
        f = rng.uniform(-8.0, 8.0, size=m.size)
        for apply_op in (lower_apply, upper_apply):
            res = apply_op(m, f)
            matrix = policy_matrix(m, res.policy)
            assert np.max(np.abs(matrix @ f - res.value)) <= 1e-12


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
        m = random_mixed_model(rng, coupled=True)
        f = rng.uniform(-8.0, 8.0, size=m.size)
        for apply_op in (lower_apply, upper_apply):
            res = apply_op(m, f)
            rebuilt = policy_matrix(m, res.policy)
            assert np.max(np.abs(res.matrix() - rebuilt)) <= 1e-9
            # V-rep rows are the stored vertices themselves
            for x, row in enumerate(m.rows):
                if isinstance(row, RowPolytopeV):
                    assert np.array_equal(res.matrix()[x], rebuilt[x])


def test_interval_result_matrix_is_the_policy_matrix(rng):
    for _ in range(30):
        m = random_mixed_model(rng)
        f = rng.uniform(-8.0, 8.0, size=m.size)
        for apply_op in (lower_apply, upper_apply):
            res = apply_op(m, f)
            matrix = res.matrix()
            assert np.array_equal(matrix[m.interval_rows], res.interval_vertices)
            for x, row in enumerate(m.rows):
                if isinstance(row, RowPolytopeV):
                    assert np.array_equal(matrix[x], row.vertices[res.policy.selectors[x]])
                else:
                    exact = np.array(interval_vertex(row, res.policy.selectors[x]))
                    assert np.max(np.abs(matrix[x] - exact.astype(float))) <= 1e-15


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


def ragged_model(rng, n: int = 7, constraint_row=coupled_row) -> Model:
    """Vertex rows of 1 to 6 vertices, mixed with constraint rows (general
    ones by default); a row of three or more vertices repeats its first
    vertex last, so its scores tie."""
    rows = []
    for x in range(n):
        if x % 3 == 2:
            rows.append(constraint_row(n, np.full(n, 0.02), np.full(n, 0.5)))
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


def test_interval_selection_matches_the_closed_form(rng):
    for _ in range(20):
        m = ragged_model(rng, n=int(rng.integers(3, 9)), constraint_row=box_row)
        lower, upper = np.full(m.size, 0.02), np.full(m.size, 0.5)
        for f in (rng.normal(size=m.size), np.zeros(m.size),
                  rng.integers(0, 3, size=m.size).astype(float)):
            for apply_op, sign in ((lower_apply, 1.0), (upper_apply, -1.0)):
                res = apply_op(m, f)
                # the reference runs the simplex on the interval rows
                value, selectors, picks = reference_apply(m, f, sign)
                rows = m.interval_rows
                vertex = np.flatnonzero(m.vertex_counts)
                assert res.value[vertex].tobytes() == value[vertex].tobytes()
                assert [res.policy.selectors[x] for x in vertex] \
                    == [selectors[x] for x in vertex]
                assert np.array_equal(res.picks, picks)
                assert np.max(np.abs(res.value[rows] - value[rows])) <= 1e-12
                best = float(interval_minimum(lower, upper, sign * f) @ f)
                assert np.max(np.abs(res.value[rows] - best)) <= 1e-12
                for x in rows.tolist():
                    exact = np.array(interval_vertex(m.rows[x], res.policy.selectors[x]),
                                     dtype=float)
                    assert np.max(np.abs(res.matrix()[x] - exact)) <= 1e-15


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
    m = box_model(6, 2, coupled=range(6))
    assert m.vertex_stack.shape == (0, 6)
    res = lower_apply(m, np.arange(6.0))
    assert np.array_equal(res.matrix(), np.stack([res.solutions[x].vertex
                                                  for x in range(6)]))


def test_matrix_of_a_model_of_interval_rows():
    m = box_model(6, 2)
    assert m.vertex_stack.shape == (0, 6)
    res = lower_apply(m, np.arange(6.0))
    assert res.solutions == {}
    assert np.array_equal(res.matrix(), res.interval_vertices)
    exact = np.array([interval_vertex(row, sel) for row, sel
                      in zip(m.rows, res.policy.selectors)], dtype=float)
    assert np.max(np.abs(res.matrix() - exact)) <= 1e-15


def random_interval_model(rng) -> tuple[Model, np.ndarray, np.ndarray]:
    """Feasible interval rows ``lower <= p <= upper`` around random pmfs,
    with their bounds; some coordinates have zero width."""
    n = int(rng.integers(2, 9))
    center = rng.dirichlet(np.ones(n), size=n)
    spread = rng.uniform(0.02, 0.5, size=(n, 1))
    lower = np.maximum(center - spread * rng.random((n, n)), 0.0)
    upper = np.minimum(center + spread * rng.random((n, n)), 1.0)
    fixed = rng.random((n, n)) < 0.1
    lower[fixed] = upper[fixed] = center[fixed]
    rows = tuple(box_row(n, lower[x], upper[x]) for x in range(n))
    model = Model(StateSpace(tuple(f"s{i}" for i in range(n))), TargetSet({n - 1}), rows)
    return model, lower, upper


def closed_form_cases(rng, count: int):
    """Models of interval rows, each with a generic and a tied objective."""
    for _ in range(count):
        m, lower, upper = random_interval_model(rng)
        assert m.interval_rows.size == m.size
        for f in (rng.normal(size=m.size), rng.integers(0, 3, size=m.size) * 1.0):
            yield m, lower, upper, f


def check_interval_vertices(res, lower, upper) -> None:
    p = res.interval_vertices
    assert (p >= lower).all() and (p <= upper).all()
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-15


def test_closed_form_matches_minimize_row(rng, count_calls):
    for m, lower, upper, f in closed_form_cases(rng, 40):
        for apply_op, sign in ((lower_apply, 1.0), (upper_apply, -1.0)):
            calls = count_calls(lp, "minimize_row")
            res = apply_op(m, f)
            assert calls == []
            check_interval_vertices(res, lower, upper)
            for x, row in enumerate(m.rows):
                sol = lp.minimize_row(row, sign * f)
                assert abs(res.value[x] - sign * sol.optimum) <= 1e-12


def test_closed_form_matches_highs(rng):
    optimize = pytest.importorskip("scipy.optimize")
    for m, lower, upper, f in closed_form_cases(rng, 15):
        for apply_op, sign in ((lower_apply, 1.0), (upper_apply, -1.0)):
            res = apply_op(m, f)
            check_interval_vertices(res, lower, upper)
            for x in range(m.size):
                ref = optimize.linprog(sign * f, A_eq=np.ones((1, m.size)), b_eq=[1.0],
                                       bounds=list(zip(lower[x], upper[x])),
                                       method="highs")
                assert ref.status == 0
                assert abs(res.value[x] - sign * ref.fun) <= 1e-12


def test_edge_rows_match_minimize_row(rng, count_calls):
    rows = edge_rows()
    m = Model(StateSpace(tuple("abcdef")), TargetSet({5}), tuple(rows))
    for f in (rng.normal(size=6), np.zeros(6), np.array([1.0, 0, 1, 0, 1, 0])):
        for apply_op, sign in ((lower_apply, 1.0), (upper_apply, -1.0)):
            calls = count_calls(lp, "minimize_row")
            res = apply_op(m, f)
            # only the general row runs the simplex
            assert [args[0] for args, _ in calls] == [rows[5]]
            for x, row in enumerate(rows):
                sol = lp.minimize_row(row, sign * f)
                assert abs(res.value[x] - sign * sol.optimum) <= 1e-12
            check_interval_vertices(res, m.interval_lo, m.interval_hi)


@pytest.mark.parametrize("bounds", [
    [(0, ">=", 0.7), (0, "<=", 0.2)],   # crossed: lo > hi
    [(0, ">=", 0.6), (1, ">=", 0.6)],   # sum(lo) > 1
    [(0, "<=", 0.3), (1, "<=", 0.3), (2, "<=", 0.3)],   # sum(hi) < 1
], ids=["crossed", "over_full", "under_full"])
def test_model_refuses_an_empty_interval_row(bounds):
    e = np.eye(3)
    row = RowPolytopeH(3, tuple(Constraint(e[i], rel, b) for i, rel, b in bounds))
    assert row.bounds is None
    with pytest.raises(InvalidModel) as exc:
        Model(StateSpace(("a", "b", "c")), TargetSet({2}),
              (row, RowPolytopeV(e[2:]), RowPolytopeV(e[2:])))
    assert [(i.code, i.state) for i in exc.value.report.issues] == [("InfeasibleRow", "a")]
