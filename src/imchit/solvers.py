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
one.  Policy iteration detects the repeat by policy equality, which makes
the confirming iteration free: identical policies give identical linear
systems, hence identical solutions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import lp
from .errors import (MaxIterationsExceeded, ReachabilityViolation,
                     SingularSystem, TooManyCombinations)
from .linsolve import RESID_RTOL, HittingTimeVector, solve_precise
from .model import Model, Policy, RowPolytopeV, TransitionMatrix
from .reachability import check_reachability
from .transition import OperatorResult, lower_apply, record, upper_apply

BOUNDS = ("lower", "upper")
INIT_RULES = ("greedy", "first", "random")

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
    off_target = ~model.target_mask()
    fixed_point = np.where(off_target, 1.0 + value, 0.0)
    return float(np.max(np.abs(h - fixed_point)))


def _require_reachable(model: Model) -> None:
    report = check_reachability(model)
    if not report.holds:
        raise ReachabilityViolation(
            tuple(model.states.labels[x] for x in sorted(report.violating)))


def initial_policy(model: Model, rule: str = "greedy", seed: int = 0) -> Policy:
    """Pick the starting extreme point for policy iteration.

    ``greedy`` maximizes each row's one-step mass on the target,
    ``first`` takes a fixed canonical vertex per row, and ``random``
    draws one per row from a seeded generator.
    """
    return _initial(model, rule, seed).policy


def _initial(model: Model, rule: str, seed: int) -> OperatorResult:
    """The starting choice of ``initial_policy``, as an operator result
    whose value is each chosen row's one-step mass on the target."""
    if rule not in INIT_RULES:
        raise ValueError(f"init rule must be one of {INIT_RULES}, got {rule!r}")
    on_target = model.target_mask().astype(float)
    if rule == "greedy":
        return upper_apply(model, on_target)
    rng = np.random.default_rng(seed) if rule == "random" else None
    choices: list = []
    value = np.empty(model.size)
    for x, row in enumerate(model.rows):
        if isinstance(row, RowPolytopeV):
            k = 0 if rule == "first" else int(rng.integers(row.num_vertices))
            choices.append(k)
            value[x] = row.vertices[k] @ on_target
        else:
            objective = np.zeros(model.size) if rule == "first" \
                else rng.standard_normal(model.size)
            sol = lp.minimize_row(row, objective)
            choices.append(sol)
            value[x] = sol.vertex @ on_target
    return record(model, value, choices)


def _hitting_times(model: Model, selected: OperatorResult) -> np.ndarray:
    """Exact hitting times under the policy matrix ``selected`` records."""
    matrix = TransitionMatrix.checked(selected.matrix())
    return solve_precise(matrix, model.target).values


def solve_policy(model: Model, bound: str = "lower", init: str = "greedy",
                 tol: float = 1e-9, max_iter: int | None = None, seed: int = 0,
                 collect_iterates: bool = False) -> SolveReport:
    """Policy iteration; finitely convergent and independent of the
    magnitude of the solution.

    Terminates when the reselected policy equals the current one, or as a
    fallback for exact value ties across distinct policies, when
    successive solutions agree within ``tol`` relatively.  The safety cap
    (default ``10 * |X|``) only trips on numerical cycling.
    """
    start = time.perf_counter()
    improve = _operator(bound)
    _require_reachable(model)
    cap = max_iter if max_iter is not None else 10 * model.size
    # each improvement starts its simplex solves from the previous choice
    selected = _initial(model, init, seed)
    policy = selected.policy
    h = _hitting_times(model, selected)
    trace = [IterationStat(float(np.max(h)), 0)]
    iterates = [h]
    iterations = 1
    residual = None
    while iterations < cap:
        selected = improve(model, h, start=selected)
        if selected.policy == policy:
            # repeating policy => repeating linear system => repeating h;
            # the operator was just applied at h, so the residual is free
            iterations += 1
            trace.append(IterationStat(float(np.max(h)), 0))
            iterates.append(h)
            residual = _defect(model, h, selected.value)
            break
        h_next = _hitting_times(model, selected)
        iterations += 1
        trace.append(IterationStat(float(np.max(h_next)),
                                   selected.policy.changed_states(policy)))
        iterates.append(h_next)
        gap = float(np.max(np.abs(h_next - h)))
        policy = selected.policy
        h = h_next
        if gap <= tol * (1.0 + float(np.max(h_next))):
            residual = fixed_point_residual(model, h, bound)
            break
    if residual is None:
        raise MaxIterationsExceeded(
            f"policy iteration exceeded {cap} iterations", tuple(trace))
    return SolveReport(
        bound=bound, method="policy", solution=HittingTimeVector(h),
        iterations=iterations, residual=residual,
        tolerance_limited=False, trace=tuple(trace),
        wall_time=time.perf_counter() - start,
        iterates=tuple(iterates) if collect_iterates else None)


def solve_value(model: Model, bound: str = "lower", tol: float = 1e-9,
                max_iter: int = 10 ** 6,
                collect_iterates: bool = False) -> SolveReport:
    """Fixed-point sweeps from the non-target indicator.

    The iterates increase monotonically towards the solution; the run is
    flagged tolerance-limited because stopping at ``tol`` leaves a
    truncation error that never fully vanishes.
    """
    start = time.perf_counter()
    apply_op = _operator(bound)
    _require_reachable(model)
    off_target = (~model.target_mask()).astype(float)
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
            else result.policy.changed_states(previous_policy)
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
    counts = []
    for x, row in enumerate(model.rows):
        if not isinstance(row, RowPolytopeV):
            raise ValueError(
                f"brute force needs vertex-specified rows; state "
                f"{model.states.labels[x]!r} is constraint-specified")
        counts.append(row.num_vertices)
    return counts


def _solve_combination_chunk(model: Model, selectors: np.ndarray) -> np.ndarray:
    """Hitting times for a chunk of vertex selections, one solve per row."""
    n = model.size
    m = selectors.shape[0]
    mats = np.empty((m, n, n))
    for x, row in enumerate(model.rows):
        mats[:, x, :] = row.vertices[selectors[:, x]]
    nontarget = model.nontarget_indices
    sub = mats[:, nontarget][:, :, nontarget]
    k = nontarget.size
    try:
        u = np.linalg.solve(np.eye(k) - sub, np.ones((m, k, 1)))[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    if not np.isfinite(u).all() or u.min() < 1.0 - 1e-6:
        raise SingularSystem("a vertex combination cannot reach the target")
    residual = np.max(np.abs(u - 1.0 - (sub @ u[..., None])[..., 0]), axis=1)
    if (residual > RESID_RTOL * (1.0 + u.max(axis=1))).any():
        raise SingularSystem("a vertex combination left an excessive residual")
    h = np.zeros((m, n))
    h[:, nontarget] = u
    return h


def _iter_chunks(model: Model) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    counts = _vertex_counts(model)
    total = math.prod(counts)
    for lo in range(0, total, _BRUTE_CHUNK):
        hi = min(lo + _BRUTE_CHUNK, total)
        selectors = np.stack(
            np.unravel_index(np.arange(lo, hi), counts), axis=1)
        yield selectors, _solve_combination_chunk(model, selectors)


def iter_extreme_solutions(model: Model) -> Iterator[tuple[Policy, np.ndarray]]:
    """Yield (policy, hitting times) for every extreme transition matrix."""
    for selectors, h in _iter_chunks(model):
        for i in range(selectors.shape[0]):
            yield Policy(tuple(int(s) for s in selectors[i])), h[i]


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
