"""Random-model generator and policy-iteration benchmark harness.

Each trial samples a model whose row polytopes are convex hulls of pmfs
drawn uniformly from the probability simplex (normalized i.i.d. unit-rate
exponentials), with the last state as the singleton target, and records
how many iterations the lower-bound policy iteration needs.  Sub-seeds
are derived from (master seed, size, trial, regeneration), so results are
reproducible regardless of scheduling.

``random_model`` draws all of a model's vertices with one
``standard_exponential`` call, the same numbers as ``exponential(1.0)``,
divides each row by its sum in place and hands the array to
``Model.from_vertex_stack``, which adopts it as the model's vertex stack
without a copy.  Drawing and dividing are most of a trial's time at the
study's sizes; the model's checks and the solve are the rest.
"""

from __future__ import annotations

import csv
import logging
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ImcError, ReachabilityViolation
from .model import Model, StateSpace, TargetSet
from .solvers import solve_policy

log = logging.getLogger(__name__)

# flat-Dirichlet rows make unreachable targets a measure-zero event, so a
# handful of regenerations is already absurdly unlikely
_MAX_REGENERATIONS = 100

CSV_COLUMNS = ("size", "trial", "iterations", "residual", "wall_time_s",
               "regenerations", "seed_used")


def _integer(name: str, value) -> int:
    """``value`` as an int if it is an integer (a Python or numpy one)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}: {value!r} is not an integer") from None


@dataclass(frozen=True)
class BenchConfig:
    sizes: tuple[int, ...]
    vertices_per_row: int = 50
    trials: int = 50
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(_integer("sizes", s) for s in self.sizes))
        for name in ("vertices_per_row", "trials", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not self.sizes or min(self.sizes) < 2:
            raise ValueError("sizes must be integers >= 2")
        if self.vertices_per_row < 1:
            raise ValueError("vertices_per_row must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class TrialRecord:
    size: int
    trial_index: int
    iterations: int
    wall_time: float
    residual: float
    seed_used: int
    regenerations: int


def random_model(size: int, vertices_per_row: int, seed: int) -> Model:
    """Model with uniformly sampled row vertices and the last state as target."""
    size = _integer("size", size)
    vertices_per_row = _integer("vertices_per_row", vertices_per_row)
    if size < 2 or vertices_per_row < 1:
        raise ValueError("need size >= 2 and vertices_per_row >= 1")
    rng = np.random.default_rng(_integer("seed", seed))
    draws = rng.standard_exponential(size=(size * vertices_per_row, size))
    draws /= draws.sum(axis=1, keepdims=True)
    states = StateSpace(tuple(f"s{i}" for i in range(size)))
    return Model.from_vertex_stack(states, TargetSet({size - 1}), draws,
                                   np.full(size, vertices_per_row))


def _trial_seed(master: int, size: int, trial: int, regeneration: int) -> int:
    sequence = np.random.SeedSequence([int(master), int(size), int(trial),
                                       int(regeneration)])
    return int(sequence.generate_state(1, np.uint64)[0])


def _run_trial(config: BenchConfig, size: int, trial: int) -> TrialRecord:
    regenerations = 0
    while True:
        seed_used = _trial_seed(config.seed, size, trial, regenerations)
        model = random_model(size, config.vertices_per_row, seed_used)
        try:
            # the model decided reachability when it was built, and the
            # solver refuses one that fails it; such a model is drawn again
            report = solve_policy(model, "lower")
            break
        except ReachabilityViolation:
            regenerations += 1
            if regenerations > _MAX_REGENERATIONS:
                raise ImcError(
                    f"size {size}, trial {trial}: no reachable model found") from None
    return TrialRecord(size=size, trial_index=trial,
                       iterations=report.iterations,
                       wall_time=report.wall_time, residual=report.residual,
                       seed_used=seed_used, regenerations=regenerations)


def run_experiment(config: BenchConfig, jobs: int = 1) -> list[TrialRecord]:
    """Run all trials; failed trials are logged and skipped, the rest kept.

    Records come back ordered by (size, trial), independent of ``jobs``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [(size, trial)
             for size in config.sizes for trial in range(config.trials)]

    def run(task):
        size, trial = task
        try:
            return _run_trial(config, size, trial)
        except ImcError as exc:
            log.warning("size %d trial %d failed: %s", size, trial, exc)
            return None

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run, tasks))
    else:
        outcomes = [run(task) for task in tasks]
    return [record for record in outcomes if record is not None]


def write_csv(records: list[TrialRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([r.size, r.trial_index, r.iterations, r.residual,
                             r.wall_time, r.regenerations, r.seed_used])


def iteration_histogram(records: list[TrialRecord]) -> dict[int, dict[int, int]]:
    """Iteration-count frequencies per model size, for plotting."""
    histogram: dict[int, dict[int, int]] = {}
    for r in records:
        by_iterations = histogram.setdefault(r.size, {})
        by_iterations[r.iterations] = by_iterations.get(r.iterations, 0) + 1
    return {size: dict(sorted(histogram[size].items()))
            for size in sorted(histogram)}
