"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import csv
import json
import time

import numpy as np
import pytest

from imchit import (BenchConfig, check_reachability, lower_apply,
                    random_model, run_experiment, save_model, solve_brute,
                    solve_policy, solve_precise, solve_value, upper_apply)
from imchit import solvers
from imchit.cli import main as cli_main
from modelzoo import (gambler_model, isolated_cycle_model, line_model,
                      policy_matrix, random_mixed_model, random_vrep_model)

ORACLE_MODELS = 200
PROPERTY_CASES = 1000


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def oracle_models():
    """The criterion-1 model pool, drawn afresh on each call."""
    rng = np.random.default_rng(20260810)
    for _ in range(ORACLE_MODELS):
        yield random_vrep_model(rng, size_choices=(3, 4, 5), max_vertices=3)


@pytest.fixture(scope="module")
def oracle_pool():
    """Criterion-1 model pool with all three solvers run on each model."""
    entries = []
    start = time.perf_counter()
    for model in oracle_models():
        entry = {"model": model}
        for bound in ("lower", "upper"):
            entry[f"policy_{bound}"] = solve_policy(
                model, bound, collect_iterates=True)
            entry[f"brute_{bound}"] = solve_brute(model, bound)
            entry[f"value_{bound}"] = solve_value(
                model, bound, tol=1e-9, collect_iterates=True)
        entries.append(entry)
    elapsed = time.perf_counter() - start
    return entries, elapsed


def test_criterion_1_oracle_equivalence(oracle_pool):
    entries, elapsed = oracle_pool
    worst = 0.0
    for entry in entries:
        for bound in ("lower", "upper"):
            gap = np.max(np.abs(entry[f"policy_{bound}"].solution.values
                                - entry[f"brute_{bound}"].solution.values))
            worst = max(worst, float(gap))
    ok = worst <= 1e-8 and len(entries) >= 200 and elapsed < 30.0
    _criterion(1, ok, f"{len(entries)} models, worst policy-brute gap "
                      f"{worst:.2e} (tol 1e-8), solve time {elapsed:.1f}s")


def test_criterion_2_method_agreement(oracle_pool):
    entries, _ = oracle_pool
    worst = 0.0
    for entry in entries:
        for bound in ("lower", "upper"):
            gap = np.max(np.abs(entry[f"value_{bound}"].solution.values
                                - entry[f"policy_{bound}"].solution.values))
            worst = max(worst, float(gap))
    _criterion(2, worst <= 1e-6,
               f"worst value-policy gap {worst:.2e} (tol 1e-6)")


def test_policy_iteration_ends_by_policy_equality(count_calls):
    residual_sweeps = count_calls(solvers, "fixed_point_residual")
    for model in oracle_models():
        for bound in ("lower", "upper"):
            report = solve_policy(model, bound)
            assert report.trace[-1].policy_changes == 0
    assert residual_sweeps == []


def test_criterion_3_gambler_ruin_closed_form():
    worst = 0.0
    for n in (4, 10):
        model = gambler_model(n)
        # one vertex per row: the stack is the chain's transition matrix
        h = solve_precise(model.vertex_stack, model.nontarget_indices)
        expected = np.array([x * (n - x) for x in range(n + 1)], dtype=float)
        worst = max(worst, float(np.max(np.abs(h - expected))))
    _criterion(3, worst <= 1e-10,
               f"worst deviation from x(N-x) is {worst:.2e} (tol 1e-10)")


def test_criterion_4_iteration_count_study():
    config = BenchConfig(sizes=(100, 200), vertices_per_row=50, trials=50,
                         seed=1)
    records = run_experiment(config, jobs=4)
    ok = True
    details = []
    ok &= all(r.residual <= 1e-7 for r in records)
    for size in config.sizes:
        counts = [r.iterations for r in records if r.size == size]
        frac3 = counts.count(3) / config.trials
        ok &= (len(counts) == config.trials
               and all(c <= 6 for c in counts)
               and frac3 >= 0.60
               and all(c in (2, 3, 4) for c in counts))
        details.append(f"|X|={size}: "
                       + ", ".join(f"{c} iters x{counts.count(c)}"
                                   for c in sorted(set(counts)))
                       + f" ({frac3:.0%} at 3)")
    _criterion(4, ok, "; ".join(details))


@pytest.mark.slow
def test_thousand_state_smoke():
    """Non-gating smoke run at the largest benchmarked size."""
    config = BenchConfig(sizes=(1000,), vertices_per_row=50, trials=1, seed=1)
    records = run_experiment(config)
    assert len(records) == 1 and records[0].iterations <= 6


def operator_property_failures(coupled: bool) -> dict[str, int]:
    """Criterion 5's property checks over random mixed models whose
    constraint rows are interval rows, or general (``coupled``) rows that
    the simplex solves."""
    rng = np.random.default_rng(55)
    pool = [random_mixed_model(rng, coupled=coupled) for _ in range(60)]
    failures = {name: 0 for name in
                ("T1", "T2", "T3", "T4", "C1", "C2", "conjugacy", "attainment")}
    tol = 1e-9

    def check(name, condition):
        if not condition:
            failures[name] += 1

    def apply_n(apply_op, m, f, n):
        for _ in range(n):
            f = apply_op(m, f).value
        return f

    for case in range(PROPERTY_CASES):
        m = pool[case % len(pool)]
        f = rng.uniform(-8.0, 8.0, size=m.size)
        g = rng.uniform(-8.0, 8.0, size=m.size)
        n = int(rng.integers(1, 4))
        low_f = apply_n(lower_apply, m, f, n)
        up_f = apply_n(upper_apply, m, f, n)
        check("T1", f.min() - tol <= low_f.min()
              and (low_f <= up_f + tol).all() and up_f.max() <= f.max() + tol)
        above = f + rng.uniform(0.0, 3.0, size=m.size)
        check("T2", (low_f <= apply_n(lower_apply, m, above, n) + tol).all())
        mu = float(rng.uniform(-5.0, 5.0))
        check("T3", np.max(np.abs(apply_n(lower_apply, m, f + mu, n)
                                  - (low_f + mu))) <= tol)
        low_g = apply_n(lower_apply, m, g, n)
        check("T4", np.max(np.abs(low_f - low_g))
              <= np.max(np.abs(f - g)) + tol)
        alpha = float(rng.uniform(0.0, 4.0))
        one_f = lower_apply(m, f).value
        check("C1", np.max(np.abs(lower_apply(m, alpha * f).value
                                  - alpha * one_f)) <= tol)
        one_g = lower_apply(m, g).value
        check("C2", (one_f + one_g <= lower_apply(m, f + g).value + tol).all())
        check("conjugacy", np.max(np.abs(upper_apply(m, f).value
                                         + lower_apply(m, -f).value)) <= tol)
        low_res = lower_apply(m, f)
        up_res = upper_apply(m, f)
        check("attainment",
              np.max(np.abs(policy_matrix(m, low_res.policy) @ f
                            - low_res.value)) <= tol
              and np.max(np.abs(policy_matrix(m, up_res.policy) @ f
                                - up_res.value)) <= tol)
    return failures


def test_criterion_5_operator_property_suite():
    failures = operator_property_failures(coupled=True)
    total = sum(failures.values())
    _criterion(5, total == 0,
               f"{PROPERTY_CASES} cases per property, failures: {failures}")


def test_criterion_5_on_interval_rows():
    # the attainment check rebuilds each interval row's vertex from its
    # selector with modelzoo's exact interval_vertex
    failures = operator_property_failures(coupled=False)
    total = sum(failures.values())
    _criterion(5, total == 0, f"{PROPERTY_CASES} cases per property on "
               f"interval rows, failures: {failures}")


def test_criterion_6_monotone_sequences(oracle_pool):
    entries, _ = oracle_pool
    violations = 0
    for entry in entries:
        low = entry["policy_lower"].iterates
        violations += sum(not (cur <= prev + 1e-8).all()
                          for prev, cur in zip(low, low[1:]))
        up = entry["policy_upper"].iterates
        violations += sum(not (cur >= prev - 1e-8).all()
                          for prev, cur in zip(up, up[1:]))
        val = entry["value_lower"].iterates
        violations += sum(not (cur >= prev - 1e-12).all()
                          for prev, cur in zip(val, val[1:]))
        violations += sum(h.max() > k + 1 + 1e-9 for k, h in enumerate(val))
    _criterion(6, violations == 0,
               f"{violations} monotonicity/bound violations across "
               f"{len(entries)} models")


def test_criterion_7_reachability():
    cycle = check_reachability(isolated_cycle_model())
    ok = (not cycle.holds) and cycle.violating == frozenset({2, 3})
    line = check_reachability(line_model())
    ok &= line.holds and line.reach_step == (3, 2, 1, 0)
    random_ok = all(check_reachability(random_model(100, 50, seed)).holds
                    for seed in (11, 12, 13))
    ok &= random_ok
    _criterion(7, ok, f"cycle violating={sorted(cycle.violating)}, "
                      f"line steps={line.reach_step}, "
                      f"random size-100 hold={random_ok}")


def test_criterion_8_determinism(tmp_path, capsys):
    model_path = tmp_path / "gambler.json"
    save_model(gambler_model(4), model_path)

    def solve_output(method):
        assert cli_main(["solve", "--model", str(model_path), "--method",
                         method, "--trace"]) == 0
        out = capsys.readouterr().out
        return "\n".join(line for line in out.splitlines()
                         if "wall_time_s" not in line)

    json_ok = all(solve_output(method) == solve_output(method)
                  for method in ("policy", "value", "brute"))

    def bench_csv(jobs, path):
        assert cli_main(["bench", "--sizes", "30,40", "--vertices", "10",
                         "--trials", "6", "--seed", "7", "--jobs", str(jobs),
                         "--out", str(path)]) == 0
        capsys.readouterr()
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        wall = rows[0].index("wall_time_s")
        return [[c for i, c in enumerate(row) if i != wall] for row in rows]

    first = bench_csv(3, tmp_path / "a.csv")
    second = bench_csv(3, tmp_path / "b.csv")
    sequential = bench_csv(1, tmp_path / "c.csv")
    csv_ok = first == second == sequential
    _criterion(8, json_ok and csv_ok,
               f"report JSON identical={json_ok}, "
               f"bench CSV identical across runs and job counts={csv_ok}")
