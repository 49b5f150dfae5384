"""The four workloads: models built from seeded inputs, and their oracles.

Importing this module imports ``imchit`` and numpy, so the worker times
``import imchit`` before importing it.

A run is split into phases, each on a fresh model drawn from (seed, part,
phase), where ``part`` numbers the processes that measure a run together.
Solve times depend on the drawn model, through the number of policy
iterations and simplex pivots it needs, so one run averages over several
models instead of reporting the luck of one.  Only one phase's model is
held at a time.
"""

from __future__ import annotations

import resource
import time

import imchit
import numpy as np

import inputs

STUDY_TRIALS = 8     # trials per run_experiment call
STUDY_JOBS = 2       # worker threads, the CLI default on a 2-core machine
VERTICES = 50


def CPU() -> float:
    """CPU seconds used so far by this process, its threads and reaped children.

    Every timing is a difference of these: a call's wall time on an idle
    machine, without the time it waits while other processes on a shared
    host hold the CPUs.  Work the call hands to threads or to child
    processes it waits for is counted; overlapping it does not shorten it.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Record:
    """Samples and outcome counts of the steps a run measured."""

    def __init__(self):
        self.lower_s: list[float] = []
        self.upper_s: list[float] = []
        self.batch_s: list[float] = []
        self.trials = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(why)


class SetupError(Exception):
    """A generated model was rejected; the workload itself is broken."""


class SolveWorkload:
    """Lower and upper ``solve_policy`` on one model; a trial is the pair."""

    phases = 4
    size: int

    def __init__(self, seed: int, part: int):
        self.seed = seed
        self.part = part
        self.model = None
        self.generate((seed, part, 0))

    def generate(self, seed) -> None:
        """Draw this phase's input arrays and oracle data."""
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def check(self, bound: str, h: np.ndarray) -> str | None:
        raise NotImplementedError

    def set_up(self) -> dict:
        """Build, validate and warm the model; the seconds of each part."""
        start = CPU()
        self.build()
        built = CPU()
        report = imchit.validate(self.model)
        if not report.ok:
            raise SetupError(f"generated model is invalid: {report.issues[:3]}")
        validated = CPU()
        if not imchit.check_reachability(self.model).holds:
            raise SetupError("generated model fails the reachability check")
        return {"build_s": built - start, "validate_s": validated - built,
                "warmup_s": CPU() - validated}

    def next_phase(self, phase: int) -> None:
        """Replace the model by a fresh one; untimed."""
        self.model = None  # free it before drawing the next one
        self.generate((self.seed, self.part, phase))
        self.set_up()

    def labels(self):
        return imchit.StateSpace(tuple(f"s{i}" for i in range(self.size)))

    def solve_pair(self, rec: Record) -> float | None:
        """Time both bounds, check each answer; the pair time or None."""
        answers = {}
        pair = 0.0
        for bound, samples in (("lower", rec.lower_s), ("upper", rec.upper_s)):
            rec.attempted += 1
            start = CPU()
            try:
                report = imchit.solve_policy(self.model, bound)
            except Exception as exc:  # a raising call is a failed operation
                rec.fail(f"{bound}: {exc!r}")
                continue
            elapsed = CPU() - start
            samples.append(elapsed)
            pair += elapsed
            h = np.array(report.solution.values, dtype=float)
            why = self.check(bound, h)
            if why is None:
                answers[bound] = h
            else:
                rec.fail(f"{bound}: {why}")
        if len(answers) < 2:
            return None
        why = inputs.ordered_defect(answers["lower"], answers["upper"])
        if why is not None:
            rec.fail(why)
            return None
        return pair

    def step(self, rec: Record) -> None:
        pair = self.solve_pair(rec)
        if pair is not None:
            rec.batch_s.append(pair)
            rec.trials += 1


class VrepWorkload(SolveWorkload):
    size = 1000

    def generate(self, seed) -> None:
        self.vertices = None  # 400 MB at n=1000: free it before drawing anew
        self.vertices = inputs.vrep_vertices(seed, self.size, VERTICES)
        self.target = np.zeros(self.size, dtype=bool)
        self.target[-1] = True

    def build(self) -> None:
        n = self.size
        rows = tuple(imchit.RowPolytopeV(self.vertices[x]) for x in range(n))
        self.model = imchit.Model(self.labels(), imchit.TargetSet({n - 1}), rows)

    def check(self, bound, h):
        return inputs.fixed_point_defect(
            h, inputs.vertex_extreme(self.vertices, h, bound), self.target)


class ChainWorkload(SolveWorkload):
    size = 300

    def generate(self, seed) -> None:
        self.slow, self.fast = inputs.chain_drifts(seed, self.size)
        # h is increasing in the state, so the lower bound takes the fast
        # vertex in every row and the upper bound the slow one
        self.exact = {"lower": inputs.chain_exact(self.fast),
                      "upper": inputs.chain_exact(self.slow)}

    def build(self) -> None:
        n = self.size
        rows = [imchit.RowPolytopeV(np.eye(1, n))]
        for i in range(1, n):
            rows.append(imchit.RowPolytopeV(np.stack(
                [inputs.chain_row(n, i, self.slow[i]),
                 inputs.chain_row(n, i, self.fast[i])])))
        self.model = imchit.Model(self.labels(), imchit.TargetSet({0}), tuple(rows))

    def check(self, bound, h):
        return inputs.close_defect(h, self.exact[bound])


class BoxWorkload(SolveWorkload):
    size = 20
    phases = 30  # simplex pivots vary much from model to model

    def generate(self, seed) -> None:
        self.lo, self.hi = inputs.box_bounds(seed, self.size)
        self.target = np.zeros(self.size, dtype=bool)
        self.target[-1] = True

    def build(self) -> None:
        n = self.size
        unit = np.eye(n)
        rows = []
        for x in range(n):
            cons = []
            for j in range(n):
                cons.append(imchit.Constraint(unit[j], ">=", self.lo[x, j]))
                cons.append(imchit.Constraint(unit[j], "<=", self.hi[x, j]))
            rows.append(imchit.RowPolytopeH(n, tuple(cons)))
        self.model = imchit.Model(self.labels(), imchit.TargetSet({n - 1}), tuple(rows))

    def check(self, bound, h):
        return inputs.fixed_point_defect(
            h, inputs.interval_extreme(self.lo, self.hi, h, bound), self.target)


class StudyWorkload(VrepWorkload):
    """The iteration study: one ``run_experiment`` call is a batch.

    Each step also solves both bounds on the phase's n=200 model, the
    study's size, so that the per-bound latencies exist on this workload.
    """

    size = 200
    phases = 20

    def __init__(self, seed, part):
        super().__init__(seed, part)
        self.batches = 0

    def step(self, rec: Record) -> None:
        config = imchit.BenchConfig(sizes=(self.size,), vertices_per_row=VERTICES,
                                    trials=STUDY_TRIALS,
                                    seed=(self.seed * 10 + self.part) * 100_000 + self.batches)
        self.batches += 1
        rec.attempted += STUDY_TRIALS
        start = CPU()
        try:
            records = imchit.run_experiment(config, jobs=STUDY_JOBS)
        except Exception as exc:  # a raising call fails every trial in it
            rec.fail(f"run_experiment: {exc!r}", STUDY_TRIALS)
            records = None
        elapsed = CPU() - start
        if records is not None:
            rec.batch_s.append(elapsed)
            rec.trials += study_defects(records, rec, self.size)
        self.solve_pair(rec)


def study_defects(records, rec: Record, size: int) -> int:
    """Check the returned trials against the attempted ones; count the good."""
    # the study solves the lower bound, whose hitting times under
    # flat-Dirichlet rows with a singleton target stay below ``size``;
    # 10 * size bounds the sup norm with a wide margin
    limit = inputs.FIXED_POINT_RTOL * (1.0 + 10.0 * size)
    indices = [r.trial_index for r in records]
    if indices != sorted(set(indices)) or not set(indices) <= set(range(STUDY_TRIALS)):
        rec.fail(f"trial indices {indices} are not the attempted ones", STUDY_TRIALS)
        return 0
    good = 0
    for r in records:
        if r.size != size or r.iterations < 2:
            rec.fail(f"trial {r.trial_index}: size {r.size}, {r.iterations} iterations")
        elif not 0.0 <= r.residual <= limit:
            rec.fail(f"trial {r.trial_index}: residual {r.residual:.3g} > {limit:.3g}")
        else:
            good += 1
    missing = STUDY_TRIALS - len(records)
    if missing:
        rec.fail(f"{missing} trials missing", missing)
    return good


WORKLOADS = {
    "vrep_1000": VrepWorkload,
    "chain_300": ChainWorkload,
    "box_20": BoxWorkload,
    "study_200": StudyWorkload,
}
