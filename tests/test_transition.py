from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from imchit import (Constraint, InvalidModel, Model, RowPolytopeH,
                    RowPolytopeV, StateSpace, TargetSet, apply, random_model)
from imchit import lp, solvers, transition
from imchit.model import PMF_TOL, _interval_bounds
from modelzoo import (box_model, box_row, choices, coupled_row,
                      drift_chain_model, edge_rows, gambler_model,
                      interval_minimum, interval_vertex, policy_matrix,
                      precise_model, random_mixed_model, random_vrep_model,
                      solver_iterates)


@pytest.fixture
def two_state():
    rows = (RowPolytopeV(np.array([[1.0, 0.0], [0.0, 1.0]])),
            RowPolytopeV(np.array([[0.5, 0.5]])))
    return Model(StateSpace(("a", "b")), TargetSet({1}), rows)


def test_precise_chain_reduces_to_matrix_vector_product(rng):
    matrix = rng.dirichlet(np.ones(4), size=4)
    m = precise_model(matrix, {3})
    f = rng.normal(size=4)
    assert np.allclose(apply(m, f, "lower").value, matrix @ f, atol=1e-12)
    assert np.allclose(apply(m, f, "upper").value, matrix @ f, atol=1e-12)


def test_constant_functions_are_fixed(rng):
    m = random_mixed_model(rng)
    for mu in (-3.0, 0.0, 2.5):
        f = np.full(m.size, mu)
        assert np.allclose(apply(m, f, "lower").value, mu, atol=1e-9)
        assert np.allclose(apply(m, f, "upper").value, mu, atol=1e-9)
        g = f
        for _ in range(3):
            g = apply(m, g, "lower").value
        assert np.allclose(g, mu, atol=1e-9)


def test_two_state_scan(two_state):
    f = np.array([2.0, 5.0])
    low = apply(two_state, f, "lower")
    up = apply(two_state, f, "upper")
    assert low.value[0] == pytest.approx(2.0) and choices(two_state, low)[0] == 0
    assert up.value[0] == pytest.approx(5.0) and choices(two_state, up)[0] == 1


def test_policy_attains_the_value(rng):
    for _ in range(30):
        m = random_mixed_model(rng, coupled=True)
        f = rng.uniform(-8.0, 8.0, size=m.size)
        for bound in ("lower", "upper"):
            res = apply(m, f, bound)
            matrix = policy_matrix(m, res)
            assert np.allclose(matrix @ f, res.value, atol=1e-9)


def test_interval_policy_attains_the_value(rng):
    for _ in range(30):
        m = random_mixed_model(rng)
        f = rng.uniform(-8.0, 8.0, size=m.size)
        for bound in ("lower", "upper"):
            res = apply(m, f, bound)
            matrix = policy_matrix(m, res)
            assert np.max(np.abs(matrix @ f - res.value)) <= 1e-12


def test_conjugacy(rng):
    for _ in range(30):
        m = random_mixed_model(rng)
        f = rng.uniform(-8.0, 8.0, size=m.size)
        assert np.allclose(apply(m, f, "upper").value,
                           -apply(m, -f, "lower").value, atol=1e-9)


def test_repeated_application_is_deterministic(rng):
    m = random_mixed_model(rng)
    f = rng.normal(size=m.size)
    first = apply(m, f, "lower")
    again = apply(m, f, "lower")
    assert not first.changed(again).any()
    assert np.array_equal(first.value, again.value)


def test_shape_mismatch_is_rejected(two_state):
    # a non-finite entry is refused like a wrong shape
    for f in (np.zeros(3), [np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]):
        for bound in ("lower", "upper"):
            with pytest.raises(ValueError):
                apply(two_state, f, bound)


def test_result_matrix_is_the_policy_matrix(rng):
    for _ in range(30):
        m = random_mixed_model(rng, coupled=True)
        f = rng.uniform(-8.0, 8.0, size=m.size)
        for bound in ("lower", "upper"):
            res = apply(m, f, bound)
            rebuilt = policy_matrix(m, res)
            assert np.max(np.abs(res.matrix() - rebuilt)) <= 1e-9
            # V-rep rows are the stored vertices themselves
            for x, row in enumerate(m.rows):
                if isinstance(row, RowPolytopeV):
                    assert np.array_equal(res.matrix()[x], rebuilt[x])


def test_interval_result_matrix_is_the_policy_matrix(rng):
    for _ in range(30):
        m = random_mixed_model(rng)
        f = rng.uniform(-8.0, 8.0, size=m.size)
        for bound in ("lower", "upper"):
            res = apply(m, f, bound)
            matrix = res.matrix()
            assert np.array_equal(matrix[m.interval_rows], res.interval_vertices)
            named = choices(m, res)
            for x, row in enumerate(m.rows):
                if isinstance(row, RowPolytopeV):
                    k = res.picks[x] - m.vertex_offsets[x]
                    assert np.array_equal(matrix[x], row.vertices[k])
                else:
                    exact = np.array(interval_vertex(row, named[x]))
                    assert np.max(np.abs(matrix[x] - exact.astype(float))) <= 1e-15


def test_warm_operator_matches_the_cold_one(rng):
    for _ in range(30):
        m = random_mixed_model(rng)
        previous = apply(m, rng.normal(size=m.size), "lower")
        for bound in ("lower", "upper", "lower"):
            f = rng.uniform(-8.0, 8.0, size=m.size)
            warm = apply(m, f, bound, start=previous)
            assert np.max(np.abs(warm.value - apply(m, f, bound).value)) <= 1e-12
            previous = warm


def kept_interval_rows(m: Model, start, objective: np.ndarray) -> np.ndarray:
    """Per interval row, whether the start's vertex is still optimal within
    ``lp.PIVOT_TOL``: no coordinate that can give mass costs more than one
    that can take it."""
    kept = []
    for p, lo, hi in zip(start.interval_vertices, m.interval_lo, m.interval_hi):
        gives = objective[p > lo].max(initial=-np.inf)
        takes = objective[p < hi].min(initial=np.inf)
        kept.append(not gives > takes + lp.PIVOT_TOL)
    return np.array(kept, dtype=bool)


def test_interval_vertices_are_c_contiguous_and_kept_or_resolved_exactly(rng):
    # a C-contiguous result keeps ``intervals @ f`` on one BLAS path, whose
    # rounding the reports show; an F-ordered one changes residual bits
    models = [box_model(int(rng.integers(3, 12)), int(rng.integers(1000)))
              for _ in range(10)]
    models += [m for m in (random_mixed_model(rng) for _ in range(30))
               if len(m.interval_rows)]
    cases = set()
    for m in models:
        f = rng.normal(size=m.size)
        start = apply(m, f, "lower")
        assert start.interval_vertices.flags.c_contiguous
        nudged = f.copy()
        nudged[rng.permutation(m.size)[:2]] += rng.normal(size=2)
        for g, bound in ((f, "lower"), (f, "upper"), (nudged, "lower")):
            objective = g if bound == "lower" else -g
            warm = apply(m, g, bound, start=start).interval_vertices
            cold = apply(m, g, bound).interval_vertices
            assert warm.flags.c_contiguous and cold.flags.c_contiguous
            kept = kept_interval_rows(m, start, objective)
            for i, keep in enumerate(kept.tolist()):
                # bit for bit: the start's vertex or the fresh closed form
                expected = start.interval_vertices[i] if keep else cold[i]
                assert warm[i].tobytes() == expected.tobytes()
            cases.add("all" if not kept.any() else "none" if kept.all() else "some")
    assert cases == {"all", "some", "none"}


def changed_oracle(m: Model, new, old) -> list[bool]:
    """Per row, whether ``new`` records another extreme point than ``old``,
    read off each result's ``choices``: a vertex row's pick, an interval
    row's ``interval_pattern``, another constraint row's basis."""
    return [a != b for a, b in zip(choices(m, new), choices(m, old))]


def oracle_models(rng):
    """Small models of every row kind: vertex rows mixed with interval rows
    or with general constraint rows, and rows of intervals, some coupled."""
    for _ in range(12):
        n = int(rng.integers(3, 9))
        yield random_mixed_model(rng)
        yield random_mixed_model(rng, coupled=True)
        yield box_model(n, int(rng.integers(1000)))
        yield box_model(n, int(rng.integers(1000)), coupled=range(0, n, 3))


def test_changed_marks_the_rows_whose_choice_differs(rng):
    # each warm step starts from the one before; integer objectives tie
    # rows, and 1e-11 perturbations sit below lp.PIVOT_TOL
    seen = {kind: [0, 0] for kind in ("vertex", "interval", "simplex")}
    for m in oracle_models(rng):
        kinds = ["vertex"] * m.size
        for x in m.interval_rows.tolist():
            kinds[x] = "interval"
        for x in m.simplex_rows.tolist():
            kinds[x] = "simplex"
        for bound in ("lower", "upper"):
            tied = rng.integers(0, 3, size=m.size).astype(float)
            normal = rng.uniform(-8.0, 8.0, size=m.size)
            nudge = 1e-11 * rng.normal(size=m.size)
            previous = apply(m, rng.uniform(-8.0, 8.0, size=m.size), bound)
            for f in (normal, normal + nudge, tied, tied - nudge, normal, tied):
                warm = apply(m, f, bound, start=previous)
                mask = warm.changed(previous)
                assert mask.dtype == bool and mask.shape == (m.size,)
                expected = changed_oracle(m, warm, previous)
                assert mask.tolist() == expected
                for kind, differs in zip(kinds, expected):
                    seen[kind][differs] += 1
                previous = warm
    # every row kind both kept and changed its point somewhere
    assert all(kept and changed for kept, changed in seen.values()), seen


@pytest.mark.parametrize("method", ["policy", "value"])
def test_policy_changes_count_the_rows_whose_choice_differs(rng, monkeypatch,
                                                             method):
    # the solver's own operator results, in order: its start, then each
    # improvement started from the one before
    results = []

    def recorded(*args, **kwargs):
        results.append(apply(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solvers, "apply", recorded)
    # value iteration runs hundreds of sweeps, so it sweeps four box models
    # to a loose tolerance, which does not change what a sweep counts
    solve = {"policy": solvers.solve_policy,
             "value": lambda m, bound: solvers.solve_value(m, bound, tol=1e-4)}[method]
    models = [m for m in oracle_models(rng) if m.reachability.holds]
    if method == "value":
        models = [m for m in models if not m.vertex_counts.any()][:4]
    total = 0
    for m in models:
        nontarget = m.nontarget_indices.tolist()
        for bound in ("lower", "upper"):
            results.clear()
            report = solve(m, bound)
            changes = [t.policy_changes for t in report.trace]
            # one result per trace entry; value iteration applies the
            # operator once more, for its residual
            assert len(results) == len(changes) + (method == "value")
            named = [choices(m, result) for result in results[:len(changes)]]
            # changed_oracle's comparison, summed over the non-target rows
            counts = [sum(new[x] != old[x] for x in nontarget)
                      for old, new in zip(named, named[1:])]
            # the first entry follows no improvement; so the sums agree too
            assert changes[1:] == counts
            assert sum(changes) == sum(counts)
            total += sum(changes)
    assert total > 0


def test_start_from_another_model_is_refused(rng):
    m = random_mixed_model(rng)
    other = random_mixed_model(rng)
    with pytest.raises(ValueError):
        apply(m, np.zeros(m.size), "lower",
              start=apply(other, np.zeros(other.size), "lower"))


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
    with one row's block differently in the last bit.  Returns the values,
    the picks into the stack and the constraint rows' bases, in row order."""
    scores = m.vertex_stack @ (sign * f)
    value, picks, bases = [], [], []
    for x, row in enumerate(m.rows):
        if isinstance(row, RowPolytopeV):
            lo = m.vertex_offsets[x]
            dots = scores[lo:lo + row.num_vertices]
            k = int(np.argmin(dots))
            value.append(sign * dots[k])
            picks.append(m.vertex_offsets[x] + k)
        else:
            sol = lp.minimize_row(row, sign * f)
            value.append(float(f @ sol.vertex))
            bases.append(sol.basis)
            picks.append(-1)
    return np.array(value), np.array(picks), tuple(bases)


def test_selection_matches_the_per_row_scan(rng):
    for _ in range(20):
        m = ragged_model(rng, n=int(rng.integers(3, 9)))
        for f in (rng.normal(size=m.size), np.zeros(m.size),
                  rng.integers(0, 3, size=m.size).astype(float)):
            for bound, sign in (("lower", 1.0), ("upper", -1.0)):
                res = apply(m, f, bound)
                value, picks, bases = reference_apply(m, f, sign)
                assert res.value.tobytes() == value.tobytes()
                assert np.array_equal(res.picks, picks)
                assert tuple(sol.basis for sol in res.solutions) == bases


def test_sparse_objectives_match_the_full_product(rng):
    # below an eighth of the states the operator scores the vertices from
    # the objective's nonzero columns; the oracle multiplies the whole stack
    for n in (16, 24, 40):
        for _ in range(4):
            m = random_mixed_model(rng, size_choices=(n,))
            # the start's objective for a one-state target and for the
            # model's own target, which has one or more states
            objectives = [np.eye(n)[rng.integers(n)], m.target_mask.astype(float)]
            for size in (-(-n // 8) - 1, n // 8 + 1):
                f = np.zeros(n)
                f[rng.choice(n, size=size, replace=False)] = rng.normal(size=size)
                objectives.append(f)
            assert len(np.flatnonzero(objectives[-2])) < n / 8 \
                < len(np.flatnonzero(objectives[-1]))
            rows = np.flatnonzero(m.vertex_counts)
            for f in objectives:
                scores = m.vertex_stack @ f
                for bound, pick in (("lower", np.argmin), ("upper", np.argmax)):
                    res = apply(m, f, bound)
                    for x in rows.tolist():
                        lo = m.vertex_offsets[x]
                        k = int(pick(scores[lo:lo + m.vertex_counts[x]]))
                        assert res.picks[x] == lo + k
                        assert abs(res.value[x] - scores[lo + k]) <= 1e-14


def test_interval_selection_matches_the_closed_form(rng):
    for _ in range(20):
        m = ragged_model(rng, n=int(rng.integers(3, 9)), constraint_row=box_row)
        lower, upper = np.full(m.size, 0.02), np.full(m.size, 0.5)
        for f in (rng.normal(size=m.size), np.zeros(m.size),
                  rng.integers(0, 3, size=m.size).astype(float)):
            for bound, sign in (("lower", 1.0), ("upper", -1.0)):
                res = apply(m, f, bound)
                # the reference runs the simplex on the interval rows
                value, picks, _ = reference_apply(m, f, sign)
                rows = m.interval_rows
                vertex = np.flatnonzero(m.vertex_counts)
                named = choices(m, res)
                assert res.value[vertex].tobytes() == value[vertex].tobytes()
                assert [named[x] for x in vertex] \
                    == (picks[vertex] - m.vertex_offsets[vertex]).tolist()
                assert np.array_equal(res.picks, picks)
                assert np.max(np.abs(res.value[rows] - value[rows])) <= 1e-12
                best = float(interval_minimum(lower, upper, sign * f) @ f)
                assert np.max(np.abs(res.value[rows] - best)) <= 1e-12
                for x in rows.tolist():
                    exact = np.array(interval_vertex(m.rows[x], named[x]),
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
        apply(m, f, "lower")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m.vertex_stack.nbytes


def test_matrix_of_a_model_without_vertex_rows():
    m = box_model(6, 2, coupled=range(6))
    assert m.vertex_stack.shape == (0, 6)
    res = apply(m, np.arange(6.0), "lower")
    assert m.simplex_rows.tolist() == list(range(6))
    assert np.array_equal(res.matrix(), np.stack([sol.vertex
                                                  for sol in res.solutions]))


def test_matrix_of_a_model_of_interval_rows():
    m = box_model(6, 2)
    assert m.vertex_stack.shape == (0, 6)
    res = apply(m, np.arange(6.0), "lower")
    assert res.solutions == ()
    assert np.array_equal(res.matrix(), res.interval_vertices)
    exact = np.array([interval_vertex(row, sel) for row, sel
                      in zip(m.rows, choices(m, res))], dtype=float)
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
        for bound, sign in (("lower", 1.0), ("upper", -1.0)):
            calls = count_calls(lp, "minimize_row")
            res = apply(m, f, bound)
            assert calls == []
            check_interval_vertices(res, lower, upper)
            for x, row in enumerate(m.rows):
                sol = lp.minimize_row(row, sign * f)
                assert abs(res.value[x] - sign * sol.optimum) <= 1e-12


def test_closed_form_matches_highs(rng):
    optimize = pytest.importorskip("scipy.optimize")
    for m, lower, upper, f in closed_form_cases(rng, 15):
        for bound, sign in (("lower", 1.0), ("upper", -1.0)):
            res = apply(m, f, bound)
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
        for bound, sign in (("lower", 1.0), ("upper", -1.0)):
            calls = count_calls(lp, "minimize_row")
            res = apply(m, f, bound)
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
    # the closed form rejects the row, so phase one reports it
    assert _interval_bounds(row) is None
    with pytest.raises(InvalidModel) as exc:
        Model(StateSpace(("a", "b", "c")), TargetSet({2}),
              (row, RowPolytopeV(e[2:]), RowPolytopeV(e[2:])))
    assert [(i.code, i.state) for i in exc.value.report.issues] == [("InfeasibleRow", "a")]


def test_matrix_of_some_states_is_that_block_of_the_matrix(rng):
    models = [random_model(9, 3, 4), box_model(9, 1),
              box_model(9, 2, coupled=range(0, 9, 2))]
    models += [random_mixed_model(rng, size_choices=(6, 9), coupled=coupled)
               for coupled in (False, True) for _ in range(3)]
    for m in models:
        n = m.size
        f = rng.normal(size=n)
        for bound in ("lower", "upper"):
            res = apply(m, f, bound)
            full = res.matrix()
            for states in (m.nontarget_indices, np.arange(n), np.arange(1, n),
                           np.arange(2, n - 1), np.array([0, 2, 3, n - 1]),
                           np.array([n // 2])):
                block = res.matrix(states)
                assert block.flags.c_contiguous and block.flags.writeable
                assert block.tobytes() == full[np.ix_(states, states)].tobytes()
                # fresh: writing to it changes no model or result array
                block[...] = -1.0
                assert res.matrix().tobytes() == full.tobytes()


# Re-scoring the vertices that can still win (transition._kept, _rescore).

@pytest.fixture
def every_stack_tested(monkeypatch):
    """Stacks of any size leave a reference and re-score against it."""
    monkeypatch.setattr(transition, "_TESTED_FLOATS", 0)


def grouped_product(stack: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``stack @ f`` as one product on one thread scores it, whatever the
    number of BLAS threads: each group of four rows in a product of its
    own, the last group with the stack's last ``len % 4`` rows."""
    body = len(stack) - len(stack) % 4
    cuts = list(range(0, body, 4)) or [0]
    return np.concatenate([stack[lo:hi] @ f for lo, hi in
                           zip(cuts, cuts[1:] + [len(stack)])])


def test_scan_has_the_bits_of_one_product_on_one_thread(rng):
    # products past OpenBLAS's threading threshold, which a thread split
    # off a multiple of four rows would sum differently: 7500 rows split
    # at 3750 on two threads, 30 rows at 15, 10 at 4 on three threads
    stacks = [random_model(150, 50, 0).vertex_stack,
              random_model(200, 50, 0).vertex_stack]
    wide = rng.standard_exponential(size=(30, 40_000))
    stacks += [wide / wide.sum(axis=1, keepdims=True)]
    stacks += [stacks[-1][:m] for m in (1, 3, 4, 10, 13, 29)]
    for stack in stacks:
        f = rng.normal(size=stack.shape[1]) * 100.0
        out = np.empty(len(stack))
        transition._scan(stack, f, out)
        assert out.tobytes() == grouped_product(stack, f).tobytes()


def test_rescoring_matches_the_full_product_bit_for_bit(rng):
    # the kernel scores whole groups of four rows and the stack's last
    # len % 4 rows apart; a raw subset product differs in those rows
    n = 37
    whole = rng.standard_exponential(size=(1003, n))
    whole /= whole.sum(axis=1, keepdims=True)
    for m in (1, 2, 3, 4, 5, 6, 7, 64, 65, 67, 131, 256, 257, 998, 999, 1000, 1003):
        stack = whole[:m]
        f = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 5)
        full = stack @ f
        body = m - m % 4
        subsets = [np.arange(m), np.arange(body), np.arange(body, m),
                   np.arange(m - 1, m), np.arange(0, m, 3), np.arange(1, m, 2),
                   np.arange(min(m, 64)), np.arange(min(m, 65))]
        subsets += [np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)),
                                       replace=False)) for _ in range(6)]
        for rows in subsets:
            if len(rows):
                got = transition._rescore(stack, rows, f)
                assert got.tobytes() == full[rows].tobytes()
    # rows too wide for 64 of them in a product on one thread
    wide = rng.standard_exponential(size=(30, 40_000))
    wide /= wide.sum(axis=1, keepdims=True)
    f = rng.normal(size=wide.shape[1])
    full = grouped_product(wide, f)
    for rows in (np.arange(30), np.arange(28, 30), np.arange(0, 30, 3),
                 np.array([5, 17, 21, 22, 23, 24, 25, 26, 27, 29])):
        got = transition._rescore(wide, rows, f)
        assert got.tobytes() == full[rows].tobytes()


def check_kept(m: Model, reference, objectives) -> list[int]:
    """Every row's first minimizer, as a cold full scan picks it, is among
    the vertices ``_kept`` keeps at each objective; how many it keeps at
    each."""
    counts = []
    for objective in objectives:
        kept = m.vertex_grid.reshape(-1)[transition._kept(m, reference, objective)]
        first = apply(m, objective, "lower").picks[m.vertex_rows]
        assert np.isin(first, kept).all()
        counts.append(len(kept))
    return counts


def near_objectives(rng, m: Model, f: np.ndarray) -> list[np.ndarray]:
    """Objectives near ``f``: perturbed at several scales, shifted off the
    target as a policy step shifts h, and negated, as the other bound scores."""
    off = (~m.target_mask).astype(float)
    objectives = [f + rng.normal(size=m.size) * scale
                  for scale in (1e-12, 1e-6, 1e-2, 1.0, 10.0)]
    objectives += [f + shift * off + rng.normal(size=m.size) * 1e-3
                   for shift in (-13.6, -0.04, 0.5, 40.0)]
    objectives += [-f, -f + 2.0 * off]
    return objectives


def test_kept_vertices_include_every_first_minimizer_on_modelzoo_models(
        rng, every_stack_tested):
    models = [gambler_model(9), drift_chain_model(12), drift_chain_model(30, 0.9)]
    models += [random_vrep_model(rng, size_choices=(3, 5, 8), max_vertices=6)
               for _ in range(25)]
    models += [m for m in (random_mixed_model(rng, size_choices=(4, 6, 9))
                           for _ in range(25)) if len(m.vertex_rows)]
    assert any(m.target_mask.sum() > 1 for m in models)
    for m in models:
        for _ in range(3):
            # nonzero on the target too, and dense, so the scan is a reference
            f = rng.normal(size=m.size) * 10.0 ** rng.uniform(-1, 3)
            for bound, objective in (("lower", f), ("upper", -f)):
                reference = apply(m, f, bound).reference
                assert reference is not None
                check_kept(m, reference, near_objectives(rng, m, objective))


def policy_objectives(m: Model) -> list[np.ndarray]:
    """Every iterate of policy iteration, on both bounds, as each bound
    scores it."""
    objectives = []
    for bound, sign in (("lower", 1.0), ("upper", -1.0)):
        with solver_iterates("policy") as seen:
            solvers.solve_policy(m, bound)
        objectives += [sign * h for h in seen]
    return objectives


def multi_target(m: Model, target: set[int]) -> Model:
    """``m``'s vertex rows with another target."""
    return Model.from_vertex_stack(m.states, TargetSet(target),
                                   m.vertex_stack.copy(), m.vertex_counts)


@pytest.mark.parametrize("seed", [0, 1])
def test_kept_vertices_include_every_first_minimizer_at_the_study_size(seed):
    # the study's models, with their singleton target and with five target
    # states, at policy iteration's own iterates, both bounds mixed
    study = random_model(200, 50, seed)
    for m in (study, multi_target(study, {0, 50, 51, 120, 199})):
        objectives = policy_objectives(m)
        kept = []
        for reference_objective in objectives:
            reference = apply(m, reference_objective, "lower").reference
            kept += check_kept(m, reference, objectives)
        # a test that drops no vertex would pass vacuously
        assert min(kept) < len(m.vertex_stack) / 20


def tie_model(rng, n: int, blocks: int, copies: int) -> tuple[Model, np.ndarray]:
    """Rows of a pmf and ``copies`` permutations of it within ``blocks``
    blocks of states, the last state the target: at an objective constant
    on each block a row's vertices tie exactly, and only their rounding
    tells them apart.  The model and each non-target state's block."""
    block = np.arange(n - 1) % blocks
    members = [np.flatnonzero(block == b) for b in range(blocks)]
    rows = []
    for _ in range(n):
        p = rng.dirichlet(np.ones(n))
        vertices = [p]
        for _ in range(copies):
            q = p.copy()
            for idx in members:
                q[idx] = q[rng.permutation(idx)]
            vertices.append(q)
        rows.append(RowPolytopeV(np.array(vertices)))
    states = StateSpace(tuple(f"s{i}" for i in range(n)))
    return Model(states, TargetSet({n - 1}), tuple(rows)), block


def test_kept_vertices_include_first_minimizers_within_ulps_of_a_tie(
        rng, every_stack_tested):
    # a tie broken by rounding, then moved by one ulp in a third of the
    # states: a vertex whose rounded gap exceeds the objective's span can
    # still win, so the rounding margin must keep it
    broken = 0
    for _ in range(8):
        m, block = tie_model(rng, n=120, blocks=4, copies=8)
        for _ in range(4):
            f = np.append(rng.uniform(64.0, 128.0, size=4)[block], 0.0)
            for bound, sign in (("lower", 1.0), ("upper", -1.0)):
                reference = apply(m, sign * f, bound).reference
                # ties that rounding broke, by an ulp or a few
                gaps = reference.gaps
                broken += np.count_nonzero((gaps > 0) & (gaps < 1e-11))
                objectives = []
                for _ in range(10):
                    g = f.copy()
                    moved = np.flatnonzero(rng.random(m.size - 1) < 0.3)
                    g[moved] = np.nextafter(g[moved], np.where(
                        rng.random(len(moved)) < 0.5, np.inf, -np.inf))
                    objectives.append(sign * g)
                check_kept(m, reference, objectives)
    assert broken


def test_kept_vertices_allow_for_rows_off_a_pmf_within_its_tolerance(
        every_stack_tested):
    # b sums to 1 + a and v to 1 - a, a within PMF_TOL: shifting the whole
    # objective by c moves v's score against b's by -2 a c, which the
    # spans, both 0, do not see
    a, lead = 0.9 * PMF_TOL, 1e-10
    b = np.array([0.5 + a, 0.5, 0.0])
    v = np.array([0.5 + 2 * a + 2 * lead - a, 0.5 - 2 * a - 2 * lead, 0.0])
    rows = (RowPolytopeV(np.stack([b, v])), RowPolytopeV(np.eye(3)[2:]),
            RowPolytopeV(np.eye(3)[2:]))
    m = Model(StateSpace(("a", "b", "c")), TargetSet({2}), rows)
    f = np.array([1.0, 0.5, 1.0])
    reference = apply(m, f, "lower").reference
    assert reference.first[0] == 0 and 0 < reference.gaps[0, 1] < 2 * lead
    g = f + 1e3
    assert apply(m, g, "lower").picks[0] == m.vertex_offsets[0] + 1
    check_kept(m, reference, [g])


def test_only_stacks_past_the_threshold_leave_a_reference(rng):
    sizes = []
    for m in (random_model(20, 50, 0), random_model(100, 50, 0)):
        large = m.vertex_stack.size >= transition._TESTED_FLOATS
        f = rng.normal(size=m.size)
        for bound in ("lower", "upper"):
            assert (apply(m, f, bound).reference is not None) == large
        sizes.append(large)
    assert sizes == [False, True]


def warm_and_cold(m: Model, objectives, bound: str) -> None:
    """Each call started from the one before picks and values what a cold
    call does, bit for bit."""
    previous = None
    for f in objectives:
        warm = apply(m, f, bound, start=previous)
        cold = apply(m, f, bound)
        assert np.array_equal(warm.picks, cold.picks)
        assert warm.value.tobytes() == cold.value.tobytes()
        previous = warm


def test_a_change_too_large_to_bound_falls_back_to_a_full_scan(count_calls):
    # f to -f changes the objective by 2e308, which overflows: _kept then
    # bounds nothing and the warm call scans the whole stack, warning-free
    m = random_model(80, 50, 1)
    assert m.vertex_stack.size >= transition._TESTED_FLOATS
    f = np.full(m.size, 1e308)
    f[-1] = 0.0
    kept = count_calls(transition, "_kept")
    rescored = count_calls(transition, "_rescore")
    for bound in ("lower", "upper"):
        warm_and_cold(m, [f, -f], bound)
    assert len(kept) == 2 and not rescored


@pytest.mark.parametrize("n, seed", [(200, 0), (200, 3), (150, 1)])
def test_warm_picks_are_the_cold_picks_at_the_study_size(n, seed, count_calls):
    # 150 states: 7500 rows, which two BLAS threads would split at 3750
    m = random_model(n, 50, seed)
    rescored = count_calls(transition, "_rescore")
    for bound, sign in (("lower", 1.0), ("upper", -1.0)):
        with solver_iterates("policy") as seen:
            solvers.solve_policy(m, bound)
        warm_and_cold(m, [sign * h for h in seen] + [sign * seen[-1]], bound)
        # mixed: an improvement of one bound started from the other's
        warm_and_cold(m, [-sign * seen[-1], sign * seen[-1]], bound)
    assert rescored


def test_warm_picks_are_the_cold_picks_on_small_models(rng, every_stack_tested,
                                                       count_calls):
    # small stacks are scanned in full; re-score them too
    rescored = count_calls(transition, "_rescore")
    for _ in range(30):
        m = random_vrep_model(rng, size_choices=(3, 5, 8), max_vertices=6)
        f = rng.normal(size=m.size) * 50.0
        off = (~m.target_mask).astype(float)
        for bound in ("lower", "upper"):
            warm_and_cold(m, [f, f + 1e-9 * off, f - 0.3 * off + 1e-3, f], bound)
    assert rescored


def test_a_reference_keeps_its_own_copy_of_the_objective(rng, every_stack_tested):
    # a caller may overwrite its f after the call; the next call started
    # from the result must still measure the change against the f scored
    m = random_model(8, 6, 3)
    for _ in range(20):
        f = rng.normal(size=m.size)
        previous = apply(m, f, "lower")
        g = f + rng.normal(size=m.size)
        f[:] = g
        warm = apply(m, g, "lower", start=previous)
        assert np.array_equal(warm.picks, apply(m, g, "lower").picks)
        with pytest.raises(ValueError):
            previous.reference.gaps[0, 0] = 0.0
