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

Iteration counting follows the convention that a run converged after
``n > 1`` iterations when the ``n``-th iterate first repeats the previous
one.  Policy iteration detects the repeat by policy equality on the
non-target rows, the only ones the linear system reads, which makes the
confirming iteration free: identical systems give identical solutions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (MaxIterationsExceeded, ReachabilityViolation,
                     TooManyCombinations)
from .linsolve import HittingTimeVector, solve_precise
from .model import Model, Policy
from .reachability import check_reachability
from .transition import OperatorResult, lower_apply, upper_apply

BOUNDS = ("lower", "upper")

_BRUTE_CHUNK = 4096


@dataclass(frozen=True)
class IterationStat:
    """Per-iteration trace entry."""

    sup_norm: float
    policy_changes: int


@dataclass(eq=False)
class SolveReport:
    """Outcome of one solver run."""

    bound: str
    method: str
    solution: HittingTimeVector
    iterations: int
    residual: float
    tolerance_limited: bool
    trace: tuple[IterationStat, ...] | None
    wall_time: float
    # full iterate vectors, kept only on request (diagnostics/tests)
    iterates: tuple[np.ndarray, ...] | None = None


def _operator(bound: str):
    if bound not in BOUNDS:
        raise ValueError(f"bound must be one of {BOUNDS}, got {bound!r}")
    return lower_apply if bound == "lower" else upper_apply


def fixed_point_residual(model: Model, h: np.ndarray, bound: str = "lower") -> float:
    """Sup-norm defect of ``h`` in the non-linear hitting-time system."""
    return _defect(model, h, _operator(bound)(model, h).value)


def _defect(model: Model, h: np.ndarray, value: np.ndarray) -> float:
    """Sup-norm defect of ``h``, given the operator's value at ``h``."""
    fixed_point = np.where(model.target_mask, 0.0, 1.0 + value)
    return float(np.max(np.abs(h - fixed_point)))


def _require_cap(max_iter: int) -> None:
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def _policy_changes(model: Model, new: Policy, old: Policy) -> int:
    """Number of non-target rows whose selector differs between policies."""
    return sum(new.selectors[x] != old.selectors[x]
               for x in model.nontarget_indices.tolist())


def _require_reachable(model: Model) -> None:
    report = check_reachability(model)
    if not report.holds:
        raise ReachabilityViolation(
            tuple(model.states.labels[x] for x in sorted(report.violating)))


def _initial(model: Model) -> OperatorResult:
    """Each row's choice with the most one-step mass on the target."""
    return upper_apply(model, model.target_mask.astype(float))


def solve_policy(model: Model, bound: str = "lower",
                 max_iter: int | None = None,
                 collect_iterates: bool = False) -> SolveReport:
    """Policy iteration; finitely convergent and independent of the
    magnitude of the solution.

    Terminates when an improvement leaves every non-target row's selector
    unchanged.  The safety cap (default ``10 * |X|``, at least 1) only
    trips on numerical cycling.
    """
    start = time.perf_counter()
    improve = _operator(bound)
    cap = max_iter if max_iter is not None else 10 * model.size
    _require_cap(cap)
    _require_reachable(model)
    # each improvement starts from the previous choice: simplex bases, and
    # interval vertices that are still optimal
    selected = _initial(model)
    policy = selected.policy
    h = solve_precise(selected.matrix(), model.nontarget_indices)
    trace = [IterationStat(float(np.max(h)), 0)]
    iterates = [h]
    iterations = 1
    while iterations < cap:
        selected = improve(model, h, start=selected)
        changes = _policy_changes(model, selected.policy, policy)
        iterations += 1
        if changes == 0:
            # h repeats; the operator was just applied at it: a free residual
            trace.append(IterationStat(float(np.max(h)), 0))
            iterates.append(h)
            return SolveReport(
                bound=bound, method="policy", solution=HittingTimeVector(h),
                iterations=iterations, residual=_defect(model, h, selected.value),
                tolerance_limited=False, trace=tuple(trace),
                wall_time=time.perf_counter() - start,
                iterates=tuple(iterates) if collect_iterates else None)
        policy = selected.policy
        h = solve_precise(selected.matrix(), model.nontarget_indices)
        trace.append(IterationStat(float(np.max(h)), changes))
        iterates.append(h)
    raise MaxIterationsExceeded(
        f"policy iteration exceeded {cap} iterations", tuple(trace))


def solve_value(model: Model, bound: str = "lower", tol: float = 1e-9,
                max_iter: int = 10 ** 6,
                collect_iterates: bool = False) -> SolveReport:
    """Fixed-point sweeps from the non-target indicator.

    The iterates increase monotonically towards the solution; the run is
    flagged tolerance-limited because stopping at ``tol`` leaves a
    truncation error that never fully vanishes.  ``tol`` must be finite
    and positive, and ``max_iter`` at least 1.
    """
    start = time.perf_counter()
    apply_op = _operator(bound)
    if not 0.0 < tol < math.inf:  # also false for nan
        raise ValueError(f"tol must be finite and positive, got {tol}")
    _require_cap(max_iter)
    _require_reachable(model)
    off_target = (~model.target_mask).astype(float)
    h = off_target.copy()
    previous_policy: Policy | None = None
    trace: list[IterationStat] = []
    iterates = [h]
    iterations = 0
    converged = False
    while iterations < max_iter:
        result = apply_op(model, h)
        h_next = off_target * (1.0 + result.value)
        iterations += 1
        changes = 0 if previous_policy is None \
            else _policy_changes(model, result.policy, previous_policy)
        trace.append(IterationStat(float(np.max(h_next)), changes))
        iterates.append(h_next)
        gap = float(np.max(np.abs(h_next - h)))
        previous_policy = result.policy
        h = h_next
        if gap <= tol:
            converged = True
            break
    if not converged:
        raise MaxIterationsExceeded(
            f"value iteration exceeded {max_iter} sweeps", tuple(trace))
    h.flags.writeable = False
    return SolveReport(
        bound=bound, method="value", solution=HittingTimeVector(h),
        iterations=iterations, residual=fixed_point_residual(model, h, bound),
        tolerance_limited=True, trace=tuple(trace),
        wall_time=time.perf_counter() - start,
        iterates=tuple(iterates) if collect_iterates else None)


def _vertex_counts(model: Model) -> list[int]:
    constrained = np.flatnonzero(model.vertex_counts == 0)
    if constrained.size:
        raise ValueError(
            f"brute force needs vertex-specified rows; state "
            f"{model.states.labels[constrained[0]]!r} is constraint-specified")
    return model.vertex_counts.tolist()


def _iter_chunks(model: Model) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    counts = _vertex_counts(model)
    total = math.prod(counts)
    for lo in range(0, total, _BRUTE_CHUNK):
        hi = min(lo + _BRUTE_CHUNK, total)
        selectors = np.stack(
            np.unravel_index(np.arange(lo, hi), counts), axis=1)
        matrices = model.vertex_stack[model.vertex_offsets + selectors]
        yield selectors, solve_precise(matrices, model.nontarget_indices)


def solve_brute(model: Model, bound: str = "lower",
                max_combinations: int = 10 ** 6) -> SolveReport:
    """Componentwise extremum over every combination of row vertices.

    Ground truth at test scale; the extremum is attained by a single
    combination, so it solves the non-linear system exactly.
    """
    start = time.perf_counter()
    _operator(bound)  # validates the bound string
    total = math.prod(_vertex_counts(model))
    if total > max_combinations:
        raise TooManyCombinations(total, max_combinations)
    _require_reachable(model)
    best: np.ndarray | None = None
    reduce = np.minimum if bound == "lower" else np.maximum
    for _, h in _iter_chunks(model):
        extremum = h.min(axis=0) if bound == "lower" else h.max(axis=0)
        best = extremum if best is None else reduce(best, extremum)
    best.flags.writeable = False
    return SolveReport(
        bound=bound, method="brute", solution=HittingTimeVector(best),
        iterations=total, residual=fixed_point_residual(model, best, bound),
        tolerance_limited=False, trace=None,
        wall_time=time.perf_counter() - start)
