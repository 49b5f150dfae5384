from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from imchit import (MaxIterationsExceeded, Model, ReachabilityViolation,
                    RowPolytopeV, SingularSystem, SolveReport, StateSpace,
                    TargetSet, TooManyCombinations, apply,
                    fixed_point_residual, random_model, solve_brute,
                    solve_policy, solve_value, validate)
from imchit import lp, solvers, transition
from imchit.solvers import RESID_RTOL
from modelzoo import (box_bounds, box_model, box_row, choices, drift_chain_lower,
                      drift_chain_model, drift_chain_upper, exact_bounds,
                      gambler_model, hitting_times, interval_extreme,
                      interval_minimum, interval_vertex, isolated_cycle_model,
                      line_model, precise_model,
                      random_mixed_model, random_vrep_model, solver_iterates,
                      standard_form, two_choice_model)


def test_precise_chain_needs_one_linear_solve(rng):
    matrix = rng.dirichlet(np.ones(4), size=4)
    m = precise_model(matrix, {3})
    report = solve_policy(m)
    exact = hitting_times(matrix, m.nontarget_indices)
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
    with solver_iterates("value") as iterates:
        solve_value(m, max_iter=10 ** 6)
    off_target = (~m.target_mask).astype(float)
    expected_h1 = off_target * (1.0 + apply(m, off_target, "lower").value)
    assert np.allclose(iterates[1], expected_h1, atol=1e-12)


def test_value_iterates_bounded_and_monotone(rng):
    m = random_vrep_model(rng)
    with solver_iterates("value") as iterates:
        report = solve_value(m)
    assert len(iterates) == report.iterations + 1
    for k, h in enumerate(iterates):
        assert h.max() <= k + 1 + 1e-9
    for prev, cur in zip(iterates, iterates[1:]):
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


def target_pick_model() -> Model:
    """``a`` steps to the target ``t``; ``b`` moves to itself or to ``t``
    with 1/2 each, so every bound is h = (1, 2, 0), and only the target
    row's choice can change.  The lower start picks t's vertex with 0.6 on
    t, the lower bound the one with 0.5 on ``a`` (0.5 < 0.4 * 2); the upper
    start picks the vertex with 0.5 on t, the upper bound the other one."""
    rows = (RowPolytopeV(np.array([[0.0, 0.0, 1.0]])),
            RowPolytopeV(np.array([[0.0, 0.5, 0.5]])),
            RowPolytopeV(np.array([[0.5, 0.0, 0.5], [0.0, 0.4, 0.6]])))
    return Model(StateSpace(("a", "b", "t")), TargetSet({2}), rows)


@pytest.mark.parametrize("bound", ["upper", "lower"])
def test_target_row_changes_end_the_solve(bound, count_calls):
    m = target_pick_model()
    target = m.size - 1
    start = solvers._initial(m, bound)
    residual_sweeps = count_calls(solvers, "fixed_point_residual")
    report = solve_policy(m, bound)
    assert report.solution.values.tolist() == [1.0, 2.0, 0.0]
    assert report.iterations == 2
    assert [t.policy_changes for t in report.trace] == [0, 0]
    assert residual_sweeps == []
    # the operator did move the target row, which nothing counts
    assert apply(m, report.solution.values, bound).changed(start)[target]


def test_policy_iteration_has_no_tolerance(rng):
    with pytest.raises(TypeError):
        solve_policy(random_vrep_model(rng), tol=1e-9)


@pytest.mark.parametrize("setting", [{"init": "greedy"}, {"seed": 0}])
def test_policy_iteration_has_one_start(rng, setting):
    with pytest.raises(TypeError):
        solve_policy(random_vrep_model(rng), **setting)


def test_reports_derive_tolerance_limited_from_the_method(rng):
    m = random_vrep_model(rng)
    assert [field.name for field in dataclasses.fields(SolveReport)] == [
        "bound", "method", "solution", "iterations", "residual", "trace",
        "wall_time"]
    for solve, limited in ((solve_policy, False), (solve_value, True),
                           (solve_brute, False)):
        assert solve(m).tolerance_limited is limited


@pytest.mark.parametrize("solve", [solve_policy, solve_value])
def test_solvers_keep_no_iterates(rng, solve):
    with pytest.raises(TypeError):
        solve(random_vrep_model(rng), collect_iterates=True)


def test_policy_traces_are_monotone(rng):
    for _ in range(10):
        m = random_vrep_model(rng)
        with solver_iterates("policy") as low:
            report = solve_policy(m, "lower")
        # the last iteration repeats h without a solve
        assert len(low) == report.iterations - 1
        for prev, cur in zip(low, low[1:]):
            assert (cur <= prev + 1e-8).all()
        with solver_iterates("policy") as up:
            solve_policy(m, "upper")
        for prev, cur in zip(up, up[1:]):
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
    named = choices(m, solvers._initial(m, "lower"))
    assert named[0] == 0  # the vertex putting 0.9 on the target


def test_greedy_upper_init_prefers_least_mass_on_target():
    rows = (RowPolytopeV(np.array([[0.0, 0.5, 0.5]])),
            RowPolytopeV(np.array([[0.9, 0.0, 0.1],
                                   [0.1, 0.0, 0.9],
                                   [0.3, 0.0, 0.7]])),
            RowPolytopeV(np.array([[1.0, 0.0, 0.0]])))
    m = Model(StateSpace(("a", "b", "c")), TargetSet({0}), rows)
    named = choices(m, solvers._initial(m, "upper"))
    assert named[1] == 1  # the vertex putting 0.1 on the target


def test_reachability_violation_is_raised():
    m = isolated_cycle_model()  # builds, with the failed check on record
    assert not m.reachability.holds
    for solve in (solve_policy, solve_value, solve_brute):
        for bound in ("lower", "upper"):
            with pytest.raises(ReachabilityViolation) as exc:
                solve(m, bound)
            assert exc.value.violating == ("c", "d")


def relative_error(h: np.ndarray, exact: list[Fraction]) -> Fraction:
    """Largest relative error of ``h`` off the target, its last state."""
    return max(abs(Fraction(float(v)) - e) / e for v, e in zip(h[:-1], exact))


# the default drift keeps its size as the id
@pytest.mark.parametrize("n, away", [
    pytest.param(n, away, id=str(n) if away == 0.6 else f"{n}-{away}")
    for away in (0.6, 0.75, 0.9, 0.99) for n in (10, 20, 30, 40, 90, 120, 250)])
def test_ill_conditioned_chain_is_right_or_flagged(n, away):
    m = drift_chain_model(n, away)
    for bound, oracle in (("lower", drift_chain_lower),
                          ("upper", drift_chain_upper)):
        try:
            h = solve_policy(m, bound).solution.values
        except SingularSystem:
            # the solver cannot vouch for the digits; the default drift's
            # lower bound, and its upper bound at small sizes, must solve
            assert away != 0.6 or (bound == "upper" and n >= 40)
            continue
        error = relative_error(h, oracle(n, away))
        # the default drift's lower bound, an integer vector, is exact
        assert error == 0 if (away, bound) == (0.6, "lower") else error <= RESID_RTOL


def test_brute_force_is_judged_on_its_answer(count_calls):
    # the steep chain's 1024 combinations include astronomically
    # ill-conditioned ones; only the extremum brute force returns is judged
    checks = count_calls(solvers, "_vouched")
    m = drift_chain_model(12, 0.99)
    h = solve_brute(m, "lower").solution.values
    assert relative_error(h, drift_chain_lower(12, 0.99)) == 0
    with pytest.raises(SingularSystem):
        solve_brute(m, "upper")
    # policy iteration's several linear solves get one check too
    assert solve_policy(m, "lower").iterations > 2
    assert len(checks) == 3


def test_policy_iteration_cap(rng):
    m = random_vrep_model(rng)
    with pytest.raises(MaxIterationsExceeded) as exc:
        solve_policy(m, max_iter=1)
    assert exc.value.trace


def test_value_iteration_keeps_no_iterates():
    # every non-target state keeps 0.05 on the target and steps round a cycle
    n = 500
    matrix = np.zeros((n, n))
    matrix[:-1, -1] = 0.05
    matrix[np.arange(n - 1), (np.arange(n - 1) + 1) % (n - 1)] = 0.95
    matrix[-1, -1] = 1.0
    m = precise_model(matrix, {n - 1})
    tracemalloc.start()
    try:
        report = solve_value(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the iterates alone would take 4 KB a sweep, over 400 sweeps
    assert peak < report.iterations * report.solution.values.nbytes / 4


def test_value_iteration_cap(rng):
    m = random_vrep_model(rng)
    with pytest.raises(MaxIterationsExceeded):
        solve_value(m, tol=1e-12, max_iter=2)


@pytest.mark.parametrize("tol", [np.nan, -1e-9, 0.0, np.inf])
def test_value_iteration_rejects_a_tol_it_cannot_meet(tol, count_calls):
    m = gambler_model(4)  # its build runs the reachability sweep
    sweeps = count_calls(transition, "apply")
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        solve_value(m, tol=tol)
    assert sweeps == []


@pytest.mark.parametrize("max_iter", [0, -3])
@pytest.mark.parametrize("solve", [solve_policy, solve_value])
def test_solvers_reject_a_cap_below_one(solve, max_iter):
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        solve(gambler_model(4), max_iter=max_iter)


def test_brute_combination_cap(count_calls):
    # 20 non-target rows of two vertices each: 2 ** 20 combinations
    n = 21
    two = np.stack([np.eye(n)[n - 1], np.full(n, 1.0 / n)])
    m = Model(StateSpace(tuple(f"s{i}" for i in range(n))), TargetSet({n - 1}),
              tuple(RowPolytopeV(two) for _ in range(n - 1))
              + (RowPolytopeV(np.eye(n)[n - 1:]),))
    solves = count_calls(solvers, "solve_precise")
    with pytest.raises(TooManyCombinations) as refused:
        solve_brute(m)
    assert (refused.value.count, refused.value.cap) == (2 ** 20, 10 ** 6)
    assert solves == []  # refused before any solve
    # two extreme matrices enumerated
    assert solve_brute(two_choice_model()).iterations == 2


def test_brute_force_counts_the_vertices_once(rng, count_calls):
    # one call both refuses constraint rows and counts the combinations
    counted = count_calls(solvers, "_vertex_counts")
    for bound in ("lower", "upper"):
        solve_brute(random_vrep_model(rng), bound)
    assert len(counted) == 2


def test_brute_requires_vertex_rows():
    m = Model(StateSpace(("a", "b")), TargetSet({1}),
              (box_row(2, np.array([0.2, 0.0]), np.array([1.0, 1.0])),
               RowPolytopeV(np.array([[0.0, 1.0]]))))
    with pytest.raises(ValueError):
        solve_brute(m)


def test_brute_enumerates_non_target_rows_only():
    # the target row is constraint-specified in one model and has three
    # vertices in the other; neither changes the answer or the count
    target_rows = (box_row(3, np.array([0.0, 0.0, 0.5]), np.ones(3)),
                   RowPolytopeV(np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 0.5],
                                          [0.2, 0.3, 0.5]])))
    for target_row in target_rows:
        m = Model(StateSpace(("a", "b", "c")), TargetSet({2}),
                  (RowPolytopeV(np.array([[0.5, 0.2, 0.3], [0.2, 0.2, 0.6]])),
                   RowPolytopeV(np.array([[0.3, 0.3, 0.4], [0.6, 0.3, 0.1],
                                          [0.1, 0.1, 0.8]])),
                   target_row))
        for bound in ("lower", "upper"):
            report = solve_brute(m, bound)
            assert report.iterations == 6
            assert np.allclose(report.solution.values,
                               solve_policy(m, bound).solution.values,
                               rtol=1e-12, atol=0.0)


def budget_model(rng) -> Model:
    """12 two-vertex rows of 30 states: 4096 combinations, whose 30 x 30
    matrices alone take 28 MiB."""
    n = 30
    rows = tuple(RowPolytopeV(rng.dirichlet(np.ones(n), size=2 if x < 12 else 1))
                 for x in range(n))
    return Model(StateSpace(tuple(f"s{i}" for i in range(n))), TargetSet({n - 1}), rows)


def brute_peak(m: Model) -> int:
    """The peak of traced memory while ``solve_brute`` enumerates ``m``."""
    tracemalloc.start()
    try:
        assert solve_brute(m).iterations == 4096
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_brute_chunks_fit_the_byte_budget(rng):
    m = budget_model(rng)
    assert brute_peak(m) <= solvers._BRUTE_BYTES
    chunks = [len(picked) for picked, _ in
              solvers._iter_chunks(m, solvers._vertex_counts(m))]
    assert len(chunks) > 1 and sum(chunks) == 4096


def test_counted_brute_force_fits_the_byte_budget(rng, count_calls):
    # count_calls keeps each chunk's blocks as their shape, not the blocks
    m = budget_model(rng)
    solves = count_calls(solvers, "solve_precise")
    assert brute_peak(m) <= solvers._BRUTE_BYTES
    assert len(solves) > 1
    k = len(m.nontarget_indices)
    assert all(args[0][1:] == (k, k) for args, _ in solves)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_policy_step_builds_no_full_temporaries(seed):
    # the solve's largest array is the gathered non-target block, about
    # n x n floats; one more n x n temporary beside it, a full policy
    # matrix, an identity or I minus the block, breaks the bound
    m = random_model(200, 50, seed)
    solve_policy(m, "lower")  # warm
    tracemalloc.start()
    try:
        solve_policy(m, "lower")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 200 * 200 * 8


def test_componentwise_extremum_is_attained_by_one_combination(rng):
    for _ in range(5):
        m = random_vrep_model(rng)
        best = solve_brute(m, "lower").solution.values
        chunks = solvers._iter_chunks(m, solvers._vertex_counts(m))
        deviations = [float(np.max(np.abs(h - best)))
                      for _, chunk in chunks for h in chunk]
        assert min(deviations) <= 1e-9 * (1.0 + np.max(best))


def test_brute_force_solves_each_combination_as_solve_precise(rng):
    for _ in range(8):
        m = random_vrep_model(rng, max_vertices=4)
        nontarget = m.nontarget_indices.tolist()
        combinations = list(itertools.product(
            *(range(m.rows[x].num_vertices) for x in nontarget)))
        # target rows take their last vertex here, which the solve never reads
        alone = [hitting_times(np.stack([row.vertices[choice.get(x, -1)]
                                         for x, row in enumerate(m.rows)]),
                               m.nontarget_indices)
                 for choice in (dict(zip(nontarget, c)) for c in combinations)]
        chunks = list(solvers._iter_chunks(m, solvers._vertex_counts(m)))
        picked = np.concatenate([s for s, _ in chunks])
        assert list(map(tuple, picked.tolist())) == combinations
        for h, expected in zip(np.concatenate([h for _, h in chunks]), alone):
            assert h.tobytes() == expected.tobytes()
        for bound, extremum in (("lower", np.min), ("upper", np.max)):
            h = solve_brute(m, bound).solution.values
            assert h.tobytes() == extremum(alone, axis=0).tobytes()


def test_bad_bound_is_rejected(rng, count_calls):
    m = random_vrep_model(rng)
    h = np.zeros(m.size)
    chunks = count_calls(solvers, "_iter_chunks")
    solves = count_calls(solvers, "solve_precise")
    for entry in (lambda bound: apply(m, h, bound),
                  lambda bound: solve_policy(m, bound),
                  lambda bound: solve_value(m, bound),
                  lambda bound: solve_brute(m, bound),
                  lambda bound: fixed_point_residual(m, h, bound)):
        with pytest.raises(ValueError, match="bound must be one of"):
            entry("sideways")
    # brute force refuses the bound before it enumerates a combination
    assert chunks == [] and solves == []


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


def test_phase_one_runs_once_per_simplex_row(count_calls):
    # interval rows never run phase one, and no solve reruns it on a
    # simplex row: each row's one start comes from the build
    for coupled, simplex_rows in (((), 0), (range(0, 8, 3), 3), (range(8), 8)):
        phase_ones = count_calls(lp, "_phase1")
        m = box_model(8, 5, coupled=coupled)
        assert m.simplex_rows.size == simplex_rows
        for bound in ("lower", "upper"):
            for _ in range(2):
                solve_policy(m, bound)
            solve_value(m, bound)
        assert len(phase_ones) == simplex_rows


def test_policy_iteration_operator_calls(count_calls):
    m = small_box_model()
    assert set(m.reachability.reach_step) == {0, 1}
    calls = count_calls(transition, "apply")
    for bound in ("lower", "upper"):
        before = len(calls)
        report = solve_policy(m, bound)
        assert report.trace[-1].policy_changes == 0  # ended by policy equality
        # the greedy start and iterations - 1 improvements; the model ran
        # its reachability sweep when it was built
        assert len(calls) - before == report.iterations
        assert all(args[2] == bound for args, _ in calls[before:])


def test_reported_residual_is_the_fixed_point_residual(rng, count_calls):
    models = [gambler_model(4), gambler_model(9), line_model(), two_choice_model()]
    models += [random_vrep_model(rng) for _ in range(10)]
    while len(models) < 24:
        m = random_mixed_model(rng)
        if m.reachability.holds:
            models.append(m)
    # the study's size, where the last improvement re-scores only the
    # vertices that can still win, and the residual's cold call all
    models += [random_model(200, 50, seed) for seed in range(3)]
    rescored = count_calls(transition, "_rescore")
    for m in models:
        for bound in ("lower", "upper"):
            report = solve_policy(m, bound)
            assert report.residual == fixed_point_residual(
                m, report.solution.values, bound)
    assert len(rescored) >= 6


def test_warm_residual_is_the_cold_one_up_to_rounding():
    # on general constraint rows the last improvement's warm simplex can
    # round the defect apart from a cold one: the fifth draw's upper bound
    # reports 0.0 against 8.9e-16; the two stay within the rounding term
    # of a defect evaluated in double precision
    rng = np.random.default_rng(2)
    drawn = 0
    while drawn < 200:
        m = random_mixed_model(rng, coupled=True)
        if not m.reachability.holds:
            continue
        drawn += 1
        for bound in ("lower", "upper"):
            report = solve_policy(m, bound)
            h = report.solution.values
            cold = fixed_point_residual(m, h, bound)
            assert abs(report.residual - cold) \
                <= (m.size + 2) * np.finfo(float).eps * np.max(h)


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
    assert set(m.reachability.reach_step) == {0, 1}
    for bound in ("lower", "upper"):
        calls = count_calls(lp, "minimize_row")
        report = solve_policy(m, bound)
        starts = [kwargs.get("start", args[2] if len(args) > 2 else None)
                  for args, kwargs in calls]
        cold = [s for s in starts if any(s is c for c in m.simplex_starts)]
        # the greedy start solves every row from the model's phase-one
        # start; each of the iterations - 1 improvements solves every row
        # warm, and no call runs phase one again
        assert None not in starts
        assert len(cold) == simplex_rows
        assert len(calls) == report.iterations * simplex_rows


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
    for bound, tilted in (("lower", f - tilt), ("upper", f + tilt)):
        start = apply(m, tilted, bound)
        cold = apply(m, f, bound)
        warm = apply(m, f, bound, start=start)
        assert not warm.changed(start).any() and start.changed(cold).any()
        assert np.array_equal(warm.interval_vertices, start.interval_vertices)
        assert np.max(np.abs(warm.value - cold.value)) <= 1e-12
        for row, sel, p in zip(m.rows, choices(m, warm), warm.matrix()):
            exact = np.array(interval_vertex(row, sel), dtype=float)
            assert np.max(np.abs(exact - p)) <= 1e-15
        # a start that is no longer optimal gives way to the closed form
        g = f[::-1].copy()
        assert not apply(m, g, bound, start=start).changed(apply(m, g, bound)).any()


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
    while not m.reachability.holds:
        m = random_mixed_model(rng, size_choices=(5,))
    on_target = m.target_mask.astype(float)
    for bound in ("lower", "upper"):
        start = solvers._initial(m, bound)
        assert np.allclose(start.matrix() @ -on_target, start.value, atol=1e-12)
        warm = apply(m, on_target, bound, start=start)
        cold = apply(m, on_target, bound)
        assert np.max(np.abs(warm.value - cold.value)) <= 1e-12


def solve_integers(a: list[list[int]], b: list[int]) -> list[Fraction]:
    """The exact solution of a non-singular integer system: fraction-free
    elimination (Bareiss), whose divisions are exact, then back
    substitution in rationals."""
    n = len(b)
    rows = [list(row) + [v] for row, v in zip(a, b)]
    previous = 1
    for c in range(n - 1):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        for r in range(c + 1, n):
            row = rows[r]
            lead = row[c]
            rows[r] = [0] * (c + 1) + [
                (x * pivot[c] - lead * y) // previous
                for x, y in zip(row[c + 1:], pivot[c + 1:])]
        previous = pivot[c]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - sum((rows[i][j] * x[j] for j in range(i + 1, n)),
                                 Fraction(0))) / rows[i][i]
    return x


def solve_fractions(a: list[list[Fraction]], b: list) -> list[Fraction]:
    """The exact solution of a non-singular system of rationals (or
    integers): each equation times its common denominator, then
    ``solve_integers``."""
    scales = [math.lcm(v.denominator, *(w.denominator for w in line))
              for line, v in zip(a, b)]
    return solve_integers([[int(w * s) for w in line] for line, s in zip(a, scales)],
                          [int(v * s) for v, s in zip(b, scales)])


def scaled_integers(a: np.ndarray) -> list[list[int]]:
    """``a`` times ``2 ** k`` as exact integers, for the least such ``k``:
    every double is an integer times a power of two."""
    ratios = [[x.as_integer_ratio() for x in row] for row in a.tolist()]
    k = max(den.bit_length() - 1 for row in ratios for _, den in row)
    return [[num << (k - den.bit_length() + 1) for num, den in row]
            for row in ratios]


def exact_vertex(row, basis: tuple[int, ...]) -> list[Fraction]:
    """The vertex a full basis names, solved in rationals from the row data."""
    a, b = standard_form(row)
    assert len(basis) == a.shape[0]  # inequality rows have no redundant row
    x = solve_fractions([[Fraction(v) for v in line] for line in a[:, basis].tolist()],
                        [Fraction(v) for v in b.tolist()])
    p = [Fraction(0)] * row.num_states
    for j, value in zip(basis, x):
        if j < row.num_states:
            p[j] = value
    return p


def exact_policy(m: Model, h: np.ndarray, bound: str
                 ) -> tuple[tuple, list[list[Fraction]], list[Fraction]]:
    """The extreme points the operator selects at ``h`` (``choices``), the
    rows of the policy matrix they name and the policy's hitting times,
    each solved in rationals from the row data."""
    named = choices(m, apply(m, h, bound))
    objective = h if bound == "lower" else -h
    rows = [[Fraction(v) for v in row.vertices[sel].tolist()]
            if isinstance(row, RowPolytopeV)
            else interval_vertex(row, sel, objective) if x in m.interval_rows
            else exact_vertex(row, sel)
            for x, (row, sel) in enumerate(zip(m.rows, named))]
    free = m.nontarget_indices.tolist()
    times = dict(zip(free, solve_fractions(
        [[int(x == y) - rows[x][y] for y in free] for x in free], [1] * len(free))))
    return named, rows, [times.get(x, Fraction(0)) for x in range(m.size)]


def exact_policy_times(m: Model, h: np.ndarray, bound: str) -> np.ndarray:
    """The hitting times of the policy the operator selects at ``h``, solved
    in rationals from the row data and rounded once."""
    return np.array([float(v) for v in exact_policy(m, h, bound)[2]])


def interval_least(row, cost: list) -> Fraction:
    """The exact minimum of ``p . cost`` over an interval row: the greedy
    fill over its ``exact_bounds``."""
    p = interval_minimum(*exact_bounds(row), cost)
    return sum(v * c for v, c in zip(p, cost))


def reduced_costs(row, basis: tuple[int, ...], cost: list) -> list[Fraction]:
    """The exact reduced costs of minimizing ``p . cost`` over a constraint
    row's ``standard_form`` at a full ``basis``: ``c_j - y . a_j`` with
    ``y`` solving ``B^T y = c_B``; slack columns cost nothing."""
    a, _ = standard_form(row)
    a = [[Fraction(v) for v in line] for line in a.tolist()]
    c = list(cost) + [0] * (len(a[0]) - len(cost))
    y = solve_fractions([[line[j] for line in a] for j in basis],
                        [c[j] for j in basis])
    return [c[j] - sum(yi * line[j] for yi, line in zip(y, a))
            for j in range(len(c))]


def certify_rows(m: Model, bound: str) -> None:
    """Policy iteration's answer is the tight bound, proved in exact
    arithmetic from the row data for every kind of row: the final
    policy's hitting times u, solved exactly, satisfy u = 1 + P u with
    each non-target row of P extreme for ``bound`` at u, which makes u
    the unique solution of the non-linear system.  Scaled to a common
    denominator, u is an integer cost.  A vertex row's vertex scores no
    worse than any other vertex of the row (integer dot products), an
    interval row's vertex scores the greedy fill's exact extremum, and a
    simplex row's basis has no negative exact reduced cost.  The rows here
    are inequalities only, so every basis is full, as ``exact_vertex``
    asserts.  The float answer is within 1e-13 of u relative to its
    largest entry, since the policy matrix holds the vertices the
    operator scored."""
    h = solve_policy(m, bound).solution.values
    named, rows, u = exact_policy(m, h, bound)
    exact = np.array([float(v) for v in u])
    assert np.max(np.abs(h - exact)) <= 1e-13 * np.max(exact)
    scale = math.lcm(*(v.denominator for v in u))
    sign = 1 if bound == "lower" else -1
    cost = [sign * v.numerator * (scale // v.denominator) for v in u]
    for x in m.nontarget_indices.tolist():
        row = m.rows[x]
        if isinstance(row, RowPolytopeV):
            scores = [sum(a * b for a, b in zip(v, cost))
                      for v in scaled_integers(row.vertices)]
            # no vertex strictly better than the chosen one
            assert min(scores) == scores[named[x]]
        elif x in m.interval_rows:
            score = sum(p * c for p, c in zip(rows[x], cost))
            assert score == interval_least(row, cost)
        else:
            assert min(reduced_costs(row, named[x], cost)) >= 0


def check_exact_rationals(coupled: bool) -> None:
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 40:
        m = random_mixed_model(rng, coupled=coupled)
        if not m.reachability.holds:
            continue
        checked += 1
        for bound in ("lower", "upper"):
            certify_rows(m, bound)


def test_mixed_solutions_match_exact_rationals():
    check_exact_rationals(coupled=True)
    # general constraint rows in every state, and in every other state
    for m in (box_model(8, 5, coupled=range(8)),
              box_model(12, 3, coupled=range(0, 12, 2))):
        for bound in ("lower", "upper"):
            certify_rows(m, bound)


def test_interval_solutions_match_exact_rationals():
    check_exact_rationals(coupled=False)


@pytest.mark.parametrize("n", [6, 12, 20])
def test_interval_rows_are_optimal_in_exact_arithmetic(n):
    for seed in (1, 2, 3):
        m = box_model(n, seed)
        for bound in ("lower", "upper"):
            certify_rows(m, bound)


@pytest.mark.slow
def test_interval_rows_are_optimal_in_exact_arithmetic_at_forty_states():
    m = box_model(40, 1)
    for bound in ("lower", "upper"):
        certify_rows(m, bound)


@pytest.mark.parametrize("seed", [0, 1])
def test_policy_iteration_is_optimal_in_exact_arithmetic(seed):
    # an oracle beyond brute force's reach, independent of which vertices
    # the operator re-scores: 50 ** 19 combinations per bound
    m = random_model(20, 50, seed)
    for bound in ("lower", "upper"):
        certify_rows(m, bound)


@pytest.mark.slow
def test_policy_iteration_is_optimal_in_exact_arithmetic_at_forty_states():
    m = random_model(40, 50, 1)
    for bound in ("lower", "upper"):
        certify_rows(m, bound)


def proved_error(h: np.ndarray, delta: float, scale: np.ndarray) -> np.ndarray:
    """The entrywise error bound of an answer ``h`` whose fixed-point defect
    evaluates to ``delta``.  A true defect ``d`` bounds the relative error
    by ``d / (1 - d)`` of ``scale``, the larger of the answer and the
    solution; evaluating it in double precision is off by up to ``n * eps
    * max(h)``, which the bound adds to ``d``, not to the error, since the
    error sums the defect over the chain's expected visits."""
    d = delta + h.size * np.finfo(float).eps * np.max(h)
    return d / (1.0 - d) * scale


def value_error_models() -> list[Model]:
    """Vertex, interval and coupled models, valid and reachable."""
    rng = np.random.default_rng(11)
    models = [box_model(8, 5), box_model(8, 5, coupled=range(8)),
              box_model(12, 3, coupled=range(0, 12, 2))]
    models += [random_vrep_model(rng) for _ in range(40)]
    for coupled in (False, True):
        drawn = 0
        while drawn < 40:
            m = random_mixed_model(rng, coupled=coupled)
            if m.reachability.holds:
                models.append(m)
                drawn += 1
    return models


def test_value_iteration_stays_within_its_proved_error_bound():
    # value iteration stops at a tolerance; its residual bounds its error
    # against a reference that does not iterate: brute force on vertex
    # models, the exact rationals of policy iteration's final policy on
    # the others, each with its own residual's bound
    for m in value_error_models():
        for bound in ("lower", "upper"):
            report = solve_value(m, bound)
            h = report.solution.values
            if (m.vertex_counts[m.nontarget_indices] > 0).all():
                reference = solve_brute(m, bound).solution.values
            else:
                reference = exact_policy_times(
                    m, solve_policy(m, bound).solution.values, bound)
            scale = np.maximum(h, reference)
            allowed = proved_error(h, report.residual, scale) + proved_error(
                reference, fixed_point_residual(m, reference, bound), scale)
            assert (np.abs(h - reference) <= allowed).all()


@pytest.mark.parametrize("bound, sweeps", [("lower", 79), ("upper", 344)])
def test_value_sweeps_start_from_the_previous_choice(bound, sweeps, monkeypatch):
    # value iteration improves by policy iteration's step: after the first
    # sweep, each simplex row starts from its solution in the sweep before;
    # the residual stays cold, so it is the true defect
    m = box_model(8, 5, coupled=range(8))
    starts, last = [], {}
    original = lp.minimize_row

    def spy(row, objective, start=None):
        starts.append("cold" if any(start is s for s in m.simplex_starts)
                      else "previous" if start is last.get(row) else "other")
        last[row] = original(row, objective, start)
        return last[row]

    monkeypatch.setattr(lp, "minimize_row", spy)
    report = solve_value(m, bound)
    # as many sweeps as when every sweep started cold
    assert report.iterations == sweeps
    rows = m.simplex_rows.size
    assert rows == m.size
    assert starts == (["cold"] * rows + ["previous"] * rows * (sweeps - 1)
                      + ["cold"] * rows)
