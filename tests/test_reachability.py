from __future__ import annotations

import numpy as np

from imchit import (Model, RowPolytopeV, StateSpace, TargetSet,
                    check_reachability, lower_apply_n, random_model)
from imchit import reachability
from modelzoo import isolated_cycle_model, line_model, precise_model


def test_one_step_mass_on_target_absorbs_everything(rng):
    # every vertex of every row keeps at least 0.1 on the target state
    rows = []
    for _ in range(3):
        vertices = rng.dirichlet(np.ones(3), size=2)
        vertices[:, 2] = np.maximum(vertices[:, 2], 0.1)
        vertices /= vertices.sum(axis=1, keepdims=True)
        rows.append(RowPolytopeV(vertices))
    m = Model(StateSpace(("a", "b", "c")), TargetSet({2}), tuple(rows))
    report = check_reachability(m)
    assert report.holds
    assert all(step is not None and step <= 1 for step in report.reach_step)


def test_no_sweep_after_everything_is_absorbed(monkeypatch):
    sweeps = []
    original = reachability.lower_apply

    def counted(model, f):
        sweeps.append(f)
        return original(model, f)

    monkeypatch.setattr(reachability, "lower_apply", counted)
    m = precise_model(np.full((3, 3), 1.0 / 3.0), {2})
    assert check_reachability(m).reach_step == (1, 1, 0)
    assert len(sweeps) == 1
    # a chain absorbed over three rounds needs exactly three sweeps
    sweeps.clear()
    assert check_reachability(line_model()).reach_step == (3, 2, 1, 0)
    assert len(sweeps) == 3


def test_self_loop_outside_target_violates():
    rows = (RowPolytopeV(np.array([[0.0, 1.0]])),   # a -> b
            RowPolytopeV(np.array([[0.0, 1.0]])))   # absorbing, b not target
    m = Model(StateSpace(("a", "b")), TargetSet({0}), rows)
    report = check_reachability(m)
    assert not report.holds
    assert report.violating == frozenset({1})
    assert report.reach_step == (0, None)


def test_deterministic_line_reach_steps():
    report = check_reachability(line_model())
    assert report.holds
    assert report.reach_step == (3, 2, 1, 0)


def test_isolated_cycle_is_detected():
    report = check_reachability(isolated_cycle_model())
    assert not report.holds
    assert report.violating == frozenset({2, 3})
    assert report.reach_step == (2, 1, None, None, 0)


def test_absorbed_states_are_operator_consistent():
    # on these fixtures the absorption round matches the first step with
    # positive lower probability of sitting on the target
    for m in (line_model(), isolated_cycle_model()):
        report = check_reachability(m)
        indicator = m.target_mask.astype(float)
        for x, step in enumerate(report.reach_step):
            if step is not None and step > 0:
                assert lower_apply_n(m, indicator, step)[x] > 1e-12


def test_agrees_with_graph_reachability_on_precise_chains(rng):
    for _ in range(20):
        n = int(rng.integers(3, 7))
        matrix = np.zeros((n, n))
        for x in range(n):
            # sparse random rows: mass on a few random successors
            succ = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
            weights = rng.dirichlet(np.ones(succ.size))
            matrix[x, succ] = weights
        target = {int(rng.integers(n))}
        m = precise_model(matrix, target)
        report = check_reachability(m)
        # reverse breadth-first search over edges with positive mass
        reached = set(target)
        frontier = set(target)
        while frontier:
            frontier = {x for x in range(n)
                        if x not in reached
                        and any(matrix[x, y] > 0 for y in reached)}
            reached |= frontier
        assert report.holds == (len(reached) == n)
        assert report.violating == frozenset(set(range(n)) - reached)


def test_random_flat_dirichlet_models_hold(rng):
    for seed in rng.integers(0, 2 ** 32, size=3):
        m = random_model(30, 5, int(seed))
        assert check_reachability(m).holds


def test_rounds_are_bounded_by_state_count():
    report = check_reachability(line_model())
    steps = [s for s in report.reach_step if s is not None]
    assert max(steps) <= 4
