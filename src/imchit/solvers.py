"""Hitting-time solvers for imprecise Markov chain models.

Three methods, each in a lower and an upper variant:

* ``solve_policy`` -- policy iteration over extreme points: solve the
  precise hitting-time system for the current extreme-matrix selection,
  then greedily reselect each row against the solution.  The lower
  iterates are non-increasing, the upper ones non-decreasing, and the
  method terminates finitely.
* ``solve_value`` -- the classical fixed-point sweep; asymptotically
  exact only, with iteration counts that grow with the magnitude of the
  solution.
* ``solve_brute`` -- enumerate every combination of row vertices and take
  the componentwise extremum of the precise solutions; the test-scale
  ground truth.

Each solver refuses a model whose target is not reachable with positive
lower probability from every state, raising ``ReachabilityViolation``.
It reads the model's ``reachability`` report, which the model computed
once when it was built, so solving both bounds runs no check of its own.

Each run returns a ``SolveReport``: the hitting times, the iteration
count, the fixed-point residual and, for the two iterative methods, one
trace entry per iteration; ``tolerance_limited`` is derived from
``method``, since only value iteration stops at a tolerance.  Policy
iteration and brute force vouch once for the answer they return
(``_vouched``); value iteration reports its residual.

Iteration counting follows the convention that a run converged after
``n > 1`` iterations when the ``n``-th iterate first repeats the previous
one.  Policy iteration detects the repeat when an improvement keeps the
extreme point of every non-target row (``OperatorResult.changed``), the
rows the linear system reads, which makes the confirming iteration free:
identical systems give identical solutions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (MaxIterationsExceeded, ReachabilityViolation,
                     SingularSystem, TooManyCombinations)
from .linsolve import HittingTimeVector, solve_precise
from .model import Model
from .transition import OperatorResult, apply, check_bound, columns, gather

# Bytes of arrays that brute force may hold for one chunk of combinations.
# Each combination takes at most two k x k float arrays, k the number of
# non-target states: its gathered non-target block, which solve_precise
# turns into I minus it, and LAPACK's copy of that.
_BRUTE_BYTES = 32 * 2 ** 20

# Combinations above which brute force refuses to enumerate.
_MAX_COMBINATIONS = 10 ** 6

# Accepted fixed-point residual of a returned answer; as every compatible
# matrix reaches the target, it bounds each entry's relative error.
RESID_RTOL = 1e-9


@dataclass(frozen=True)
class IterationStat:
    """Per-iteration trace entry."""

    sup_norm: float
    policy_changes: int


@dataclass(eq=False)
class SolveReport:
    """One solver run; ``residual`` is its answer's fixed-point defect."""

    bound: str
    method: str
    solution: HittingTimeVector
    iterations: int
    residual: float
    trace: tuple[IterationStat, ...] | None
    wall_time: float

    @property
    def tolerance_limited(self) -> bool:
        """Whether the run stopped at a tolerance: only value iteration does."""
        return self.method == "value"


def fixed_point_residual(model: Model, h: np.ndarray, bound: str) -> float:
    """Sup-norm defect of ``h`` in the non-linear hitting-time system."""
    return _defect(model, h, apply(model, h, bound).value)


def _defect(model: Model, h: np.ndarray, value: np.ndarray) -> float:
    """Sup-norm defect of ``h``, given the operator's value at ``h``."""
    fixed_point = np.where(model.target_mask, 0.0, 1.0 + value)
    return float(np.max(np.abs(h - fixed_point)))


def _vouched(report: SolveReport) -> SolveReport:
    """``report``, unless its residual or ``eps * max(h)``, the finest error
    a double-precision residual resolves, exceeds ``RESID_RTOL``."""
    top = float(np.max(report.solution.values))
    if max(report.residual, np.finfo(float).eps * top) > RESID_RTOL:
        raise SingularSystem(
            f"residual {report.residual:.3g} at hitting times up to {top:.3g}: "
            f"a relative error of {RESID_RTOL:.1g} cannot be vouched for")
    return report


def _cap(max_iter: int | None, default: int) -> int:
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    return max_iter or default


def _improve(model: Model, h: np.ndarray, bound: str,
             previous: OperatorResult | None) -> tuple[OperatorResult, int]:
    """The operator at ``h``, each row started from its choice in ``previous``,
    and the number of non-target rows whose extreme point changed (0
    without one).

    Both iterative methods improve by this one step; started from
    ``previous``, the operator re-scores only the vertices that can still
    win against its last full scan."""
    result = apply(model, h, bound, start=previous)
    if previous is None:
        return result, 0
    changed = result.changed(previous)[model.nontarget_indices]
    return result, int(np.count_nonzero(changed))


def _require_reachable(model: Model) -> None:
    report = model.reachability
    if not report.holds:
        raise ReachabilityViolation(
            tuple(model.states.labels[x] for x in sorted(report.violating)))


def _initial(model: Model, bound: str) -> OperatorResult:
    """Each row's greedy choice for ``bound``: the most one-step mass on
    the target for the lower bound, the least for the upper bound."""
    return apply(model, -model.target_mask.astype(float), bound)


def solve_policy(model: Model, bound: str = "lower",
                 max_iter: int | None = None) -> SolveReport:
    """Policy iteration; finitely convergent and independent of the
    magnitude of the solution.

    Terminates when an improvement keeps every non-target row's extreme
    point.  The safety cap (default ``10 * |X|``, at least 1) only
    trips on numerical cycling.
    """
    start = time.perf_counter()
    check_bound(bound)
    cap = _cap(max_iter, 10 * model.size)
    _require_reachable(model)
    nontarget = model.nontarget_indices
    selected = _initial(model, bound)
    h = solve_precise(selected.matrix(nontarget), nontarget, model.size)
    trace = [IterationStat(float(h.max()), 0)]
    iterations = 1
    while iterations < cap:
        selected, changes = _improve(model, h, bound, selected)
        iterations += 1
        if changes == 0:
            # h repeats; the operator was just applied at it: a free residual
            trace.append(IterationStat(float(h.max()), 0))
            return _vouched(SolveReport(
                bound=bound, method="policy", solution=HittingTimeVector(h),
                iterations=iterations, residual=_defect(model, h, selected.value),
                trace=tuple(trace), wall_time=time.perf_counter() - start))
        h = solve_precise(selected.matrix(nontarget), nontarget, model.size)
        trace.append(IterationStat(float(h.max()), changes))
    raise MaxIterationsExceeded(
        f"policy iteration exceeded {cap} iterations", tuple(trace))


def solve_value(model: Model, bound: str = "lower", tol: float = 1e-9,
                max_iter: int | None = None) -> SolveReport:
    """Fixed-point sweeps from the non-target indicator.

    The iterates increase monotonically towards the solution; the run is
    flagged tolerance-limited because stopping at ``tol`` leaves a
    truncation error that never fully vanishes.  ``tol`` must be finite
    and positive, and ``max_iter`` (default ``10 ** 6``) at least 1.
    Each sweep starts from the one before, so on a large vertex stack it
    re-scores only the vertices that can still win against the last full
    scan (``transition.apply``), with a full sweep's values and choices.
    """
    start = time.perf_counter()
    check_bound(bound)
    if not 0.0 < tol < math.inf:  # also false for nan
        raise ValueError(f"tol must be finite and positive, got {tol}")
    cap = _cap(max_iter, 10 ** 6)
    _require_reachable(model)
    off_target = (~model.target_mask).astype(float)
    h = off_target.copy()
    result: OperatorResult | None = None
    trace: list[IterationStat] = []
    iterations = 0
    while iterations < cap:
        result, changes = _improve(model, h, bound, result)
        h_next = off_target * (1.0 + result.value)
        iterations += 1
        trace.append(IterationStat(float(np.max(h_next)), changes))
        gap = float(np.max(np.abs(h_next - h)))
        h = h_next
        if gap <= tol:
            break
    else:
        raise MaxIterationsExceeded(
            f"value iteration exceeded {cap} sweeps", tuple(trace))
    h.flags.writeable = False
    return SolveReport(
        bound=bound, method="value", solution=HittingTimeVector(h),
        iterations=iterations, residual=fixed_point_residual(model, h, bound),
        trace=tuple(trace), wall_time=time.perf_counter() - start)


def _vertex_counts(model: Model) -> list[int]:
    """The vertex counts of the non-target rows, the only rows the linear
    systems read and therefore the only rows brute force enumerates."""
    nontarget = model.nontarget_indices
    constrained = nontarget[model.vertex_counts[nontarget] == 0]
    if constrained.size:
        raise ValueError(
            f"brute force needs vertex-specified non-target rows; state "
            f"{model.states.labels[constrained[0]]!r} is constraint-specified")
    return model.vertex_counts[nontarget].tolist()


def _iter_chunks(model: Model,
                 counts: list[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each chunk's vertex choices, one column per non-target row, and the
    hitting times of the matrices they select; ``counts`` is ``_vertex_counts``."""
    nontarget = model.nontarget_indices
    total = math.prod(counts)
    k = len(nontarget)
    chunk = max(1, _BRUTE_BYTES // (2 * k * k * 8))
    offsets = model.vertex_offsets[nontarget]
    cols = columns(nontarget)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        choices = np.stack(
            np.unravel_index(np.arange(lo, hi), counts), axis=1)
        # no name holds the block, so it is freed before the next gather
        yield choices, solve_precise(
            gather(model.vertex_stack, offsets + choices, cols),
            nontarget, model.size)


def solve_brute(model: Model, bound: str = "lower") -> SolveReport:
    """Componentwise extremum over every combination of the non-target
    rows' vertices; target rows may be constraint-specified.

    Ground truth at test scale; the extremum is attained by a single
    combination, so it solves the non-linear system exactly.  The report's
    ``iterations`` is the number of combinations; more than
    ``_MAX_COMBINATIONS`` raise ``TooManyCombinations``.
    """
    start = time.perf_counter()
    check_bound(bound)
    counts = _vertex_counts(model)
    total = math.prod(counts)
    if total > _MAX_COMBINATIONS:
        raise TooManyCombinations(total, _MAX_COMBINATIONS)
    _require_reachable(model)
    reduce = np.minimum if bound == "lower" else np.maximum
    best = reduce.reduce([reduce.reduce(h, axis=0)
                          for _, h in _iter_chunks(model, counts)])
    best.flags.writeable = False
    return _vouched(SolveReport(
        bound=bound, method="brute", solution=HittingTimeVector(best),
        iterations=total, residual=fixed_point_residual(model, best, bound),
        trace=None, wall_time=time.perf_counter() - start))
