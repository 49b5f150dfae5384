from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from imchit import (MaxIterationsExceeded, Model, ReachabilityViolation,
                    RowPolytopeV, StateSpace, TargetSet, TooManyCombinations,
                    check_reachability, fixed_point_residual, lower_apply,
                    solve_brute, solve_policy, solve_precise, solve_value,
                    upper_apply, validate)
from imchit import lp, solvers, transition
from modelzoo import (box_bounds, box_model, box_row, gambler_model,
                      interval_extreme, interval_vertex, isolated_cycle_model,
                      line_model, precise_model, random_mixed_model,
                      random_vrep_model, two_choice_model)


def test_precise_chain_needs_one_linear_solve(rng):
    matrix = rng.dirichlet(np.ones(4), size=4)
    m = precise_model(matrix, {3})
    report = solve_policy(m)
    exact = solve_precise(matrix, m.nontarget_indices)
    assert np.array_equal(report.solution.values, exact)
    # one linear solve, then the unchanged policy confirms convergence
    assert report.iterations == 2
    assert all(t.policy_changes == 0 for t in report.trace)


def test_two_choice_brute_oracle():
    m = two_choice_model()
    assert solve_brute(m, "lower").solution.values[0] == pytest.approx(2.0, abs=1e-12)
    assert solve_brute(m, "upper").solution.values[0] == pytest.approx(5.0, abs=1e-12)
    assert solve_policy(m, "lower").solution.values[0] == pytest.approx(2.0, abs=1e-10)
    assert solve_policy(m, "upper").solution.values[0] == pytest.approx(5.0, abs=1e-10)


def test_policy_matches_brute_on_random_models(rng):
    for _ in range(10):
        m = random_vrep_model(rng)
        for bound in ("lower", "upper"):
            gap = np.abs(solve_policy(m, bound).solution.values
                         - solve_brute(m, bound).solution.values)
            assert np.max(gap) <= 1e-8


def test_value_iteration_first_sweep(rng):
    m = random_vrep_model(rng)
    report = solve_value(m, max_iter=10 ** 6, collect_iterates=True)
    off_target = (~m.target_mask).astype(float)
    expected_h1 = off_target * (1.0 + lower_apply(m, off_target).value)
    assert np.allclose(report.iterates[1], expected_h1, atol=1e-12)


def test_value_iterates_bounded_and_monotone(rng):
    m = random_vrep_model(rng)
    report = solve_value(m, collect_iterates=True)
    for k, h in enumerate(report.iterates):
        assert h.max() <= k + 1 + 1e-9
    for prev, cur in zip(report.iterates, report.iterates[1:]):
        assert (cur >= prev - 1e-12).all()
    assert report.tolerance_limited


def test_value_agrees_with_policy_at_ten_tol():
    # the 10*tol margin assumes typical mixing; sluggish chains can leave
    # a larger truncation tail, so the seed pins well-mixing samples
    m = two_choice_model()
    rng = np.random.default_rng(10)
    models = [m] + [random_vrep_model(rng) for _ in range(5)]
    for model in models:
        for bound in ("lower", "upper"):
            value = solve_value(model, bound, tol=1e-9)
            policy = solve_policy(model, bound)
            gap = np.max(np.abs(value.solution.values - policy.solution.values))
            assert gap <= 10 * 1e-9


def target_swap_model() -> Model:
    """State ``a`` moves to itself or to the target ``t`` with 1/2 each;
    ``t`` may step to ``t`` or to ``a``, so every bound is h = (2, 0), and
    only the target row's choice can change during a solve.  The start
    picks t -> t, the upper bound t -> a."""
    rows = (RowPolytopeV(np.array([[0.5, 0.5]])),
            RowPolytopeV(np.array([[0.0, 1.0], [1.0, 0.0]])))
    return Model(StateSpace(("a", "t")), TargetSet({1}), rows)


def target_pick_model() -> Model:
    """``a`` steps to the target ``t``; ``b`` moves to itself or to ``t``
    with 1/2 each, so every bound is h = (1, 2, 0), and only the target
    row's choice can change.  The start picks t's vertex with 0.6 on t,
    the lower bound the one with 0.5 on ``a`` (0.5 < 0.4 * 2)."""
    rows = (RowPolytopeV(np.array([[0.0, 0.0, 1.0]])),
            RowPolytopeV(np.array([[0.0, 0.5, 0.5]])),
            RowPolytopeV(np.array([[0.5, 0.0, 0.5], [0.0, 0.4, 0.6]])))
    return Model(StateSpace(("a", "b", "t")), TargetSet({2}), rows)


@pytest.mark.parametrize("bound, build, h", [
    ("upper", target_swap_model, [2.0, 0.0]),
    ("lower", target_pick_model, [1.0, 2.0, 0.0]),
], ids=["upper", "lower"])
def test_target_row_changes_end_the_solve(bound, build, h, count_calls):
    m = build()
    target = m.size - 1
    start = solvers._initial(m).policy
    residual_sweeps = count_calls(solvers, "fixed_point_residual")
    report = solve_policy(m, bound)
    assert report.solution.values.tolist() == h
    assert report.iterations == 2
    assert [t.policy_changes for t in report.trace] == [0, 0]
    assert residual_sweeps == []
    # the operator did move the target row, which nothing counts
    improved = transition.lower_apply if bound == "lower" else transition.upper_apply
    assert improved(m, report.solution.values).policy.selectors[target] \
        != start.selectors[target]


def test_policy_iteration_has_no_tolerance(rng):
    with pytest.raises(TypeError):
        solve_policy(random_vrep_model(rng), tol=1e-9)


@pytest.mark.parametrize("setting", [{"init": "greedy"}, {"seed": 0}])
def test_policy_iteration_has_one_start(rng, setting):
    with pytest.raises(TypeError):
        solve_policy(random_vrep_model(rng), **setting)


def test_policy_traces_are_monotone(rng):
    for _ in range(10):
        m = random_vrep_model(rng)
        low = solve_policy(m, "lower", collect_iterates=True)
        for prev, cur in zip(low.iterates, low.iterates[1:]):
            assert (cur <= prev + 1e-8).all()
        up = solve_policy(m, "upper", collect_iterates=True)
        for prev, cur in zip(up.iterates, up.iterates[1:]):
            assert (cur >= prev - 1e-8).all()


def test_lower_below_upper_for_every_method(rng):
    for _ in range(5):
        m = random_vrep_model(rng)
        for solver in (solve_policy, solve_value, solve_brute):
            low = solver(m, "lower").solution.values
            up = solver(m, "upper").solution.values
            assert (low <= up + 1e-8).all()


def test_distinct_policies_bounded_by_extreme_matrix_count(rng):
    for _ in range(10):
        m = random_vrep_model(rng)
        extreme_matrices = int(np.prod([r.num_vertices for r in m.rows]))
        report = solve_policy(m)
        visited = 1 + sum(t.policy_changes > 0 for t in report.trace)
        assert visited <= extreme_matrices


def test_zero_on_target_and_residual_contract(rng):
    for _ in range(5):
        m = random_vrep_model(rng)
        for solver in (solve_policy, solve_value, solve_brute):
            for bound in ("lower", "upper"):
                report = solver(m, bound)
                h = report.solution.values
                assert all(h[x] == 0.0 for x in m.target.members)
                assert (h >= 0.0).all()
                scale = 1.0 + float(np.max(h))
                assert report.residual <= 10 * 1e-9 * scale


def test_greedy_init_prefers_mass_on_target():
    rows = (RowPolytopeV(np.array([[0.9, 0.0, 0.1],
                                   [0.1, 0.0, 0.9]])),
            RowPolytopeV(np.array([[0.0, 0.5, 0.5]])),
            RowPolytopeV(np.array([[0.0, 0.0, 1.0]])))
    m = Model(StateSpace(("a", "b", "c")), TargetSet({0}), rows)
    policy = solvers._initial(m).policy
    assert policy.selectors[0] == 0  # the vertex putting 0.9 on the target


def test_reachability_violation_is_raised():
    m = isolated_cycle_model()
    with pytest.raises(ReachabilityViolation) as exc:
        solve_policy(m)
    assert exc.value.violating == ("c", "d")
    with pytest.raises(ReachabilityViolation):
        solve_value(m)
    with pytest.raises(ReachabilityViolation) as exc:
        solve_brute(m)
    assert exc.value.violating == ("c", "d")


def test_policy_iteration_cap(rng):
    m = random_vrep_model(rng)
    with pytest.raises(MaxIterationsExceeded) as exc:
        solve_policy(m, max_iter=1)
    assert exc.value.trace


def test_value_iteration_cap(rng):
    m = random_vrep_model(rng)
    with pytest.raises(MaxIterationsExceeded):
        solve_value(m, tol=1e-12, max_iter=2)


@pytest.mark.parametrize("tol", [np.nan, -1e-9, 0.0, np.inf])
def test_value_iteration_rejects_a_tol_it_cannot_meet(tol, count_calls):
    sweeps = count_calls(transition, "lower_apply")
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        solve_value(gambler_model(4), tol=tol)
    assert sweeps == []


@pytest.mark.parametrize("max_iter", [0, -3])
@pytest.mark.parametrize("solve", [solve_policy, solve_value])
def test_solvers_reject_a_cap_below_one(solve, max_iter):
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        solve(gambler_model(4), max_iter=max_iter)


def test_brute_combination_cap():
    m = two_choice_model()
    with pytest.raises(TooManyCombinations):
        solve_brute(m, max_combinations=1)
    assert solve_brute(m).iterations == 2  # two extreme matrices enumerated


def test_brute_requires_vertex_rows():
    m = Model(StateSpace(("a", "b")), TargetSet({1}),
              (box_row(2, np.array([0.2, 0.0]), np.array([1.0, 1.0])),
               RowPolytopeV(np.array([[0.0, 1.0]]))))
    with pytest.raises(ValueError):
        solve_brute(m)


def test_componentwise_extremum_is_attained_by_one_combination(rng):
    for _ in range(5):
        m = random_vrep_model(rng)
        best = solve_brute(m, "lower").solution.values
        deviations = [float(np.max(np.abs(h - best)))
                      for _, chunk in solvers._iter_chunks(m) for h in chunk]
        assert min(deviations) <= 1e-9 * (1.0 + np.max(best))


def test_brute_force_solves_each_combination_as_solve_precise(rng):
    for _ in range(8):
        m = random_vrep_model(rng, max_vertices=4)
        combinations = list(itertools.product(*(range(r.num_vertices) for r in m.rows)))
        alone = [solve_precise(np.stack([row.vertices[k] for row, k
                                         in zip(m.rows, combination)]),
                               m.nontarget_indices)
                 for combination in combinations]
        chunks = list(solvers._iter_chunks(m))
        selectors = np.concatenate([s for s, _ in chunks])
        assert list(map(tuple, selectors.tolist())) == combinations
        for h, expected in zip(np.concatenate([h for _, h in chunks]), alone):
            assert h.tobytes() == expected.tobytes()
        for bound, extremum in (("lower", np.min), ("upper", np.max)):
            h = solve_brute(m, bound).solution.values
            assert h.tobytes() == extremum(alone, axis=0).tobytes()


def test_bad_bound_is_rejected(rng):
    m = random_vrep_model(rng)
    with pytest.raises(ValueError):
        solve_policy(m, bound="sideways")


def small_box_model(n: int = 4) -> Model:
    """Interval rows that keep at least 0.1 on the target, the last state."""
    rows = []
    for x in range(n):
        lower = np.full(n, 0.05)
        lower[-1] = 0.1
        upper = np.full(n, 0.6)
        upper[x] = 0.3
        rows.append(box_row(n, lower, upper))
    return Model(StateSpace(tuple(f"s{i}" for i in range(n))),
                 TargetSet({n - 1}), tuple(rows))


def test_phase_one_runs_once_per_hrep_row(count_calls):
    phase_ones = count_calls(lp, "_phase1")
    m = small_box_model()
    assert validate(m).ok
    for bound in ("lower", "upper"):
        for _ in range(3):
            solve_policy(m, bound)
    assert len(phase_ones) == m.size


def test_policy_iteration_operator_calls(count_calls):
    m = small_box_model()
    assert set(check_reachability(m).reach_step) == {0, 1}
    lower = count_calls(transition, "lower_apply")
    upper = count_calls(transition, "upper_apply")
    for bound in ("lower", "upper"):
        before = len(lower) + len(upper)
        report = solve_policy(m, bound)
        assert report.trace[-1].policy_changes == 0  # ended by policy equality
        # one reachability sweep, the greedy start, iterations - 1 improvements
        assert len(lower) + len(upper) - before == report.iterations + 1


def test_reported_residual_is_the_fixed_point_residual(rng):
    models = [gambler_model(4), gambler_model(9), line_model(), two_choice_model()]
    models += [random_vrep_model(rng) for _ in range(10)]
    while len(models) < 24:
        m = random_mixed_model(rng)
        if check_reachability(m).holds:
            models.append(m)
    for m in models:
        for bound in ("lower", "upper"):
            report = solve_policy(m, bound)
            assert report.residual == fixed_point_residual(
                m, report.solution.values, bound)


def check_box_solves(n: int, seed: int) -> None:
    """Both bounds on ``box_model(n, seed)``: ``h`` is the closed-form
    fixed point."""
    lower, upper = box_bounds(n, seed)
    m = box_model(n, seed)
    assert validate(m).ok
    for bound in ("lower", "upper"):
        h = solve_policy(m, bound).solution.values
        fixed_point = np.where(m.target_mask, 0.0,
                               1.0 + interval_extreme(lower, upper, h, bound))
        assert np.max(np.abs(h - fixed_point)) <= 1e-9 * (1.0 + np.max(h))


def test_interval_rows_never_reach_the_simplex(count_calls):
    calls = count_calls(lp, "minimize_row")
    check_box_solves(20, 3)
    assert calls == []


def test_box_solve_at_eighty_states():
    check_box_solves(80, 3)


def check_warm_simplex_calls(m, simplex_rows: int, count_calls) -> None:
    assert set(check_reachability(m).reach_step) == {0, 1}
    for bound in ("lower", "upper"):
        calls = count_calls(lp, "minimize_row")
        report = solve_policy(m, bound)
        cold = [args for args, kwargs in calls
                if kwargs.get("start", args[2] if len(args) > 2 else None) is None]
        # the reachability sweep and the greedy start solve every row cold;
        # each of the iterations - 1 improvements solves every row warm
        assert len(cold) == 2 * simplex_rows
        assert len(calls) == (report.iterations + 1) * simplex_rows


def test_improvements_start_from_the_previous_choice(count_calls):
    m = box_model(8, 5, coupled=range(8))
    check_warm_simplex_calls(m, m.size, count_calls)


def test_mixed_model_runs_the_simplex_on_general_rows_only(count_calls):
    m = box_model(8, 5, coupled=range(0, 8, 3))
    assert m.interval_rows.tolist() == [1, 2, 4, 5, 7]
    check_warm_simplex_calls(m, 3, count_calls)


def test_interval_improvements_keep_the_incumbent():
    # f ties states 0-2 and 3-5; a start from slightly tilted values orders
    # each tie the other way, and its vertices stay optimal at f
    m = box_model(8, 5)
    f = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 3.0])
    tilt = 1e-3 * np.arange(8.0)
    for apply_op, tilted in ((lower_apply, f - tilt), (upper_apply, f + tilt)):
        start = apply_op(m, tilted)
        cold = apply_op(m, f)
        warm = apply_op(m, f, start=start)
        assert warm.policy == start.policy != cold.policy
        assert np.array_equal(warm.interval_vertices, start.interval_vertices)
        assert np.max(np.abs(warm.value - cold.value)) <= 1e-12
        for row, sel, p in zip(m.rows, warm.policy.selectors, warm.matrix()):
            exact = np.array(interval_vertex(row, sel), dtype=float)
            assert np.max(np.abs(exact - p)) <= 1e-15
        # a start that is no longer optimal gives way to the closed form
        g = f[::-1].copy()
        assert apply_op(m, g, start=start).policy == apply_op(m, g).policy


def test_symmetric_interval_rows_end_below_the_cap():
    # ties in h reorder the sort between iterations; keeping the incumbent
    # on ties is what ends these solves
    m = small_box_model()
    for bound in ("lower", "upper"):
        report = solve_policy(m, bound)
        assert report.iterations < 10 * m.size
        assert report.trace[-1].policy_changes == 0


def test_init_rules_feed_the_first_improvement(rng):
    m = random_mixed_model(rng, size_choices=(5,))
    while not check_reachability(m).holds:
        m = random_mixed_model(rng, size_choices=(5,))
    start = solvers._initial(m)
    on_target = m.target_mask.astype(float)
    assert np.allclose(start.matrix() @ on_target, start.value, atol=1e-12)
    for bound in ("lower", "upper"):
        warm = (lower_apply if bound == "lower" else upper_apply)(
            m, on_target, start=start)
        cold = (lower_apply if bound == "lower" else upper_apply)(m, on_target)
        assert np.max(np.abs(warm.value - cold.value)) <= 1e-12


def solve_fractions(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Exact solution of a square, non-singular system by elimination."""
    n = len(b)
    rows = [list(a[i]) + [b[i]] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                factor = rows[r][c] / rows[c][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def exact_vertex(row, basis: tuple[int, ...]) -> list[Fraction]:
    """The vertex a full basis names, solved in rationals from the row data."""
    a, b = row.lp_start.a, row.lp_start.b
    assert len(basis) == a.shape[0]  # inequality rows have no redundant row
    x = solve_fractions([[Fraction(float(a[i, j])) for j in basis]
                         for i in range(a.shape[0])],
                        [Fraction(float(v)) for v in b])
    p = [Fraction(0)] * row.num_states
    for j, value in zip(basis, x):
        if j < row.num_states:
            p[j] = value
    return p


def check_exact_rationals(coupled: bool) -> None:
    # the policy matrix holds the vertices the operator scored, so h is the
    # exact hitting time of the final policy up to the linear solve: about
    # 1e-15 here, where rebuilding the vertices by least squares left 6e-13
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 40:
        m = random_mixed_model(rng, coupled=coupled)
        if not check_reachability(m).holds:
            continue
        checked += 1
        for bound in ("lower", "upper"):
            h = solve_policy(m, bound).solution.values
            policy = solvers._operator(bound)(m, h).policy
            rows = [[Fraction(float(v)) for v in row.vertices[sel]]
                    if isinstance(row, RowPolytopeV)
                    else interval_vertex(row, sel) if row.bounds is not None
                    else exact_vertex(row, sel)
                    for row, sel in zip(m.rows, policy.selectors)]
            free = [x for x in range(m.size) if x not in m.target.members]
            u = solve_fractions([[int(x == y) - rows[x][y] for y in free] for x in free],
                                [Fraction(1)] * len(free))
            exact = np.zeros(m.size)
            exact[free] = [float(v) for v in u]
            assert np.max(np.abs(h - exact)) <= 1e-13 * (1.0 + np.max(exact))


def test_mixed_solutions_match_exact_rationals():
    check_exact_rationals(coupled=True)


def test_interval_solutions_match_exact_rationals():
    check_exact_rationals(coupled=False)
