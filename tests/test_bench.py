from __future__ import annotations

import csv

import numpy as np
import pytest

from imchit import (BenchConfig, Model, RowPolytopeV, iteration_histogram,
                    random_model, run_experiment, validate, write_csv)
from imchit import bench, reachability
from imchit.bench import _MAX_REGENERATIONS, CSV_COLUMNS, _trial_seed


def test_same_seed_gives_identical_models():
    a = random_model(6, 4, 123)
    b = random_model(6, 4, 123)
    for ra, rb in zip(a.rows, b.rows):
        assert np.array_equal(ra.vertices, rb.vertices)
    c = random_model(6, 4, 124)
    assert not all(np.array_equal(ra.vertices, rc.vertices)
                   for ra, rc in zip(a.rows, c.rows))


def test_sampled_vertices_live_on_the_simplex():
    m = random_model(40, 10, 7)
    assert validate(m).ok
    assert m.target_indices.tolist() == [39]
    for row in m.rows:
        assert row.vertices.min() >= 0.0
        assert np.max(np.abs(row.vertices.sum(axis=1) - 1.0)) <= 1e-12


def test_uniform_simplex_moments():
    # flat-Dirichlet coordinates have mean 1/n and variance
    # (1/n)(1 - 1/n)/(n + 1); check the first coordinate within 3 SE
    n, draws = 5, 10_000
    m = random_model(n, draws // n, 99)
    samples = np.concatenate([row.vertices for row in m.rows])[:draws, 0]
    mean = samples.mean()
    var = (1 / n) * (1 - 1 / n) / (n + 1)
    se = np.sqrt(var / draws)
    assert abs(mean - 1 / n) <= 3 * se


def test_trial_seeds_are_stable_and_distinct():
    assert _trial_seed(1, 100, 0, 0) == _trial_seed(1, 100, 0, 0)
    seeds = {_trial_seed(1, size, trial, 0)
             for size in (10, 20) for trial in range(25)}
    assert len(seeds) == 50


def test_single_trial_experiment():
    config = BenchConfig(sizes=(8,), vertices_per_row=3, trials=1, seed=3)
    records = run_experiment(config)
    assert len(records) == 1
    record = records[0]
    assert record.size == 8 and record.trial_index == 0
    assert record.iterations >= 1
    assert record.residual <= 1e-9 * 10
    assert record.regenerations == 0


def test_experiment_is_reproducible_across_job_counts():
    config = BenchConfig(sizes=(10, 12), vertices_per_row=4, trials=6, seed=11)
    key = lambda rs: [(r.size, r.trial_index, r.iterations, r.residual,
                       r.seed_used, r.regenerations) for r in rs]
    sequential = run_experiment(config, jobs=1)
    threaded = run_experiment(config, jobs=4)
    assert key(sequential) == key(threaded)
    assert [r.size for r in sequential] == [10] * 6 + [12] * 6


def test_csv_output(tmp_path):
    config = BenchConfig(sizes=(6,), vertices_per_row=3, trials=4, seed=2)
    records = run_experiment(config)
    path = tmp_path / "out.csv"
    write_csv(records, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 1 + 4
    assert [int(r[0]) for r in rows[1:]] == [6] * 4


def test_iteration_histogram_counts():
    config = BenchConfig(sizes=(6,), vertices_per_row=3, trials=5, seed=2)
    records = run_experiment(config)
    histogram = iteration_histogram(records)
    assert set(histogram) == {6}
    assert sum(histogram[6].values()) == 5


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(sizes=())
    with pytest.raises(ValueError):
        BenchConfig(sizes=(1,))
    with pytest.raises(ValueError):
        BenchConfig(sizes=(5,), trials=0)
    with pytest.raises(ValueError):
        BenchConfig(sizes=(5,), vertices_per_row=0)
    with pytest.raises(ValueError):
        BenchConfig(sizes=(5,), seed=-1)
    with pytest.raises(ValueError, match="init"):
        BenchConfig(sizes=(5,), init="bogus")


def test_random_model_argument_checks():
    with pytest.raises(ValueError):
        random_model(1, 3, 0)
    with pytest.raises(ValueError):
        random_model(4, 0, 0)


def test_one_reachability_check_per_trial(count_calls):
    calls = count_calls(reachability, "check_reachability")
    config = BenchConfig(sizes=(8,), vertices_per_row=3, trials=4, seed=5)
    assert len(run_experiment(config)) == 4
    assert len(calls) == 4


def stuck_model(size: int) -> Model:
    """Every state keeps to itself, so no state reaches the target."""
    model = random_model(size, 1, 0)
    rows = tuple(RowPolytopeV(np.eye(size)[x:x + 1]) for x in range(size))
    return Model(model.states, model.target, rows)


def test_unreachable_draw_is_regenerated(monkeypatch, count_calls):
    drawn = []

    def first_draw_stuck(size, vertices_per_row, seed):
        drawn.append(seed)
        if len(drawn) == 1:
            return stuck_model(size)
        return random_model(size, vertices_per_row, seed)

    monkeypatch.setattr(bench, "random_model", first_draw_stuck)
    calls = count_calls(reachability, "check_reachability")
    [record] = run_experiment(BenchConfig(sizes=(6,), vertices_per_row=3,
                                          trials=1, seed=4))
    assert record.regenerations == 1
    assert drawn == [_trial_seed(4, 6, 0, 0), _trial_seed(4, 6, 0, 1)]
    assert record.seed_used == drawn[1]
    assert len(calls) == 2


def test_trial_fails_after_too_many_regenerations(monkeypatch, caplog):
    drawn = []

    def always_stuck(size, vertices_per_row, seed):
        drawn.append(seed)
        return stuck_model(size)

    monkeypatch.setattr(bench, "random_model", always_stuck)
    config = BenchConfig(sizes=(4,), vertices_per_row=2, trials=1, seed=1)
    assert run_experiment(config) == []
    assert len(drawn) == _MAX_REGENERATIONS + 1
    assert "no reachable model found" in caplog.text
