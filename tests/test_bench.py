from __future__ import annotations

import csv
import tracemalloc

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


def test_model_adopts_the_single_drawn_array(monkeypatch):
    adopted = []

    def spy(cls, states, target, vertices, counts, original=Model.from_vertex_stack):
        adopted.append(vertices)
        return original.__func__(cls, states, target, vertices, counts)

    monkeypatch.setattr(Model, "from_vertex_stack", classmethod(spy))
    m = random_model(6, 3, 0)
    [drawn] = adopted
    stack = m.vertex_stack
    assert not stack.flags.writeable
    assert np.shares_memory(stack, drawn)
    assert stack.flags.owndata or stack.base is drawn
    rows_built = Model(m.states, m.target, m.rows)
    for x, row in enumerate(m.rows):
        assert not row.vertices.flags.writeable
        assert row.vertices.base is stack
        assert row.num_vertices == m.vertex_counts[x] == 3
        assert np.array_equal(row.vertices, rows_built.rows[x].vertices)


def test_building_a_random_model_copies_no_vertices():
    random_model(60, 20, 1)  # the first build imports modules, which allocate
    tracemalloc.start()
    try:
        m = random_model(60, 20, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one stack-sized array; a copy of it would double the peak
    assert peak < 1.5 * m.vertex_stack.nbytes


@pytest.mark.parametrize("n, k, seed", [(2, 1, 0), (2, 5, 3), (7, 1, 11),
                                        (30, 4, 5), (200, 50, 2)])
def test_draw_sequence_is_pinned(n, k, seed):
    # one (k, n) draw per row, each normalised on its own: the recipe
    # random_model's numbers must keep
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        draws = rng.exponential(1.0, size=(k, n))
        draws /= draws.sum(axis=1, keepdims=True)
        rows.append(draws)
    assert np.array_equal(random_model(n, k, seed).vertex_stack, np.concatenate(rows))


def test_sampled_vertices_live_on_the_simplex():
    m = random_model(40, 10, 7)
    assert validate(m).ok
    assert np.flatnonzero(m.target_mask).tolist() == [39]
    for row in m.rows:
        assert row.vertices.min() >= 0.0
        assert np.max(np.abs(row.vertices.sum(axis=1) - 1.0)) <= 1e-12


def test_uniform_simplex_moments():
    # flat-Dirichlet coordinates have mean 1/n and variance
    # (1/n)(1 - 1/n)/(n + 1); check the first coordinate within 3 SE
    n, draws = 5, 10_000
    m = random_model(n, draws // n, 99)
    samples = m.vertex_stack[:draws, 0]
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
    with pytest.raises(TypeError):
        BenchConfig(sizes=(5,), init="greedy")
    with pytest.raises(TypeError):
        BenchConfig(sizes=(5,), tol=1e-9)


@pytest.mark.parametrize("field, value", [("sizes", (10.7,)), ("seed", 1.5),
                                          ("vertices_per_row", 2.0),
                                          ("trials", 2.0)])
def test_config_refuses_non_integers(field, value):
    with pytest.raises(ValueError, match=field):
        BenchConfig(**{"sizes": (5,), field: value})


@pytest.mark.parametrize("field, value", [("size", 5.0), ("vertices_per_row", 3.0),
                                          ("seed", 1.5)])
def test_random_model_refuses_non_integers(field, value):
    with pytest.raises(ValueError, match=field):
        random_model(**{"size": 5, "vertices_per_row": 3, "seed": 1, field: value})


def test_numpy_integers_draw_the_same_model():
    python = random_model(5, 3, 1)
    numpy_ints = random_model(np.int64(5), np.int32(3), np.uint8(1))
    assert numpy_ints.vertex_stack.tobytes() == python.vertex_stack.tobytes()
    assert numpy_ints.states == python.states and numpy_ints.target == python.target


def test_numpy_integers_configure_the_same_study():
    python = BenchConfig(sizes=(8, 9), vertices_per_row=3, trials=2, seed=4)
    numpy_ints = BenchConfig(sizes=np.array([8, 9]), vertices_per_row=np.int64(3),
                             trials=np.int32(2), seed=np.uint8(4))
    assert numpy_ints == python
    assert all(type(v) is int for v in (*numpy_ints.sizes, numpy_ints.vertices_per_row,
                                        numpy_ints.trials, numpy_ints.seed))
    key = lambda rs: [(r.size, r.trial_index, r.iterations, r.residual,
                       r.seed_used, r.regenerations) for r in rs]
    assert key(run_experiment(numpy_ints)) == key(run_experiment(python))


def test_study_records_are_pinned():
    # integers only: a residual's last bits depend on the BLAS build
    records = run_experiment(BenchConfig(sizes=(30, 40), vertices_per_row=10,
                                         trials=6, seed=7))
    assert [(r.size, r.trial_index, r.iterations, r.regenerations, r.seed_used)
            for r in records] == [
        (30, 0, 4, 0, 5117919879038363292), (30, 1, 3, 0, 1718054975686877252),
        (30, 2, 3, 0, 11272890038980256861), (30, 3, 3, 0, 2570793199775647008),
        (30, 4, 3, 0, 14856441726460131839), (30, 5, 3, 0, 3624996384826167431),
        (40, 0, 3, 0, 8260274986714777299), (40, 1, 3, 0, 449890649921364670),
        (40, 2, 3, 0, 14847641653213717603), (40, 3, 3, 0, 9989192223006808828),
        (40, 4, 3, 0, 10844430516755729679), (40, 5, 3, 0, 17929639119111741326)]
    assert iteration_histogram(records) == {30: {3: 5, 4: 1}, 40: {3: 6}}


@pytest.mark.parametrize("jobs", [0, -3])
def test_experiment_needs_a_job(jobs):
    config = BenchConfig(sizes=(5,), vertices_per_row=2, trials=1)
    with pytest.raises(ValueError, match="jobs"):
        run_experiment(config, jobs=jobs)


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
    # one check per model built: stuck_model builds two, the redraw one
    assert len(calls) == 3


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
