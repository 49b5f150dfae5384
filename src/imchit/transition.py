"""Row-wise evaluation of the lower and upper transition operators.

Both bounds run one operator, ``apply(model, f, bound)``: the lower bound
minimizes ``p . f`` over each state's row polytope independently, and the
upper bound is its conjugate, the same minimization of ``p . (-f)``.
Besides the value vector, each application records the extreme point
attaining it in each row, once: the policy that the policy-iteration
solver consumes.  A full scan scores every vertex with products of the
model's vertex stack, each of whole groups of four rows and few enough
rows for BLAS to run it on one thread (``_scan``), into an array whose
last slot holds +inf, and one ``argmin`` over the padded grid the model
packed when it was built (``Model.vertex_grid``, whose padding points at
that slot) picks each vertex row's first minimizer.  When fewer than an
eighth of the objective's entries are nonzero, as for the target
indicator of the policy-iteration start and of the early reachability
rounds, the products read only those columns of the stack.  A model
without vertex rows skips this kernel.
Interval rows ``lo <= p <= hi`` are solved together in closed form: one
sort of the objective, shared by every row solved, then every row starts
at ``lo`` and hands its free mass ``1 - sum(lo)`` to the cheapest
coordinates first, each up to its cap ``hi - lo`` (de Campos, Huete &
Moral 1994).  The model packs both when it is built
(``Model.interval_left``, ``Model.interval_caps``), so a call only
gathers them in sorted order.  Only general constraint rows run the
simplex, each from the phase-one start the model keeps for it
(``Model.simplex_starts``).

An application may start from an earlier result (``start=``); both
iterative solvers pass their previous improvement step.  Each
constraint row's simplex then starts from that row's basis, which is
usually optimal again or a few pivots away, and each interval row keeps
its vertex there while that vertex is still optimal within
``lp.PIVOT_TOL``, so that ties in ``f`` do not flip the choice; the
objective is sorted only when some interval row must be solved again.
A dense full scan of a stack of at least ``_TESTED_FLOATS`` floats
leaves a ``Reference`` in its result, and a call
started from that result scores only the vertices that can still be
their row's first minimizer (``_kept``), bit for bit as the full product
would (``_rescore``), when they are at most a quarter of the stack; the
reference then passes on to the new result.  Otherwise the call scans in
full, and its scan is the next reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import lp
from .model import PMF_TOL, Model

BOUNDS = ("lower", "upper")


def check_bound(bound: str) -> None:
    if bound not in BOUNDS:
        raise ValueError(f"bound must be one of {BOUNDS}, got {bound!r}")


@dataclass(eq=False)
class OperatorResult:
    """Operator value plus one attaining extreme point per row.

    Each row's point is recorded once, without copying a vertex:
    ``picks`` holds an index into the model's vertex stack (-1 on H-rep
    rows), ``interval_vertices`` the vertex of each of the model's
    ``interval_rows``, and ``solutions`` the ``LpSolution`` of each of its
    ``simplex_rows``.  ``changed`` tells which rows chose another point
    than an earlier result; the results themselves compare by identity.
    ``matrix`` assembles the policy matrix, or its block on some states,
    from them on request.  ``reference`` is the last full scan of the
    vertex stack, this call's or the one its start passed on, which a call
    started from this result re-scores against; None when the model has
    no vertex rows, a stack of fewer than ``_TESTED_FLOATS`` floats, or the
    scan read some columns only.
    """

    value: np.ndarray
    model: Model = field(repr=False)
    picks: np.ndarray = field(repr=False)
    interval_vertices: np.ndarray = field(repr=False)
    solutions: tuple[lp.LpSolution, ...] = field(repr=False)
    reference: Reference | None = field(repr=False)

    def changed(self, previous: OperatorResult) -> np.ndarray:
        """Boolean mask of the rows whose extreme point differs from the one
        ``previous``, a result of the same model, chose: another vertex
        index, an interval vertex that differs in any coordinate, or another
        simplex basis."""
        mask = self.picks != previous.picks
        mask[self.model.interval_rows] = (
            self.interval_vertices != previous.interval_vertices).any(axis=1)
        if self.solutions:
            mask[self.model.simplex_rows] = [
                new.basis != old.basis
                for new, old in zip(self.solutions, previous.solutions)]
        return mask

    def matrix(self, states: np.ndarray | None = None) -> np.ndarray:
        """The transition matrix of the recorded points, as a plain array; with
        ``states``, a strictly increasing index array, only its rows and
        columns ``states``, ``matrix()[np.ix_(states, states)]``.

        Every row's columns ``states`` are gathered once: vertex rows
        straight from the model's vertex stack in one indexing step
        (``gather``), interval and simplex rows copied in.  Its rows
        ``states`` are then a view when they are one run of indices, and a
        copy otherwise; either way the result is C-contiguous and writeable
        and shares memory with no model or result array.
        """
        model = self.model
        if states is None:
            states = np.arange(model.size)
        cols = columns(states)
        stack = model.vertex_stack
        # every row over the columns; an H-rep row's pick, -1, gathers a
        # placeholder its vertex replaces
        m = (gather(stack, self.picks, cols) if stack.size
             else np.empty((model.size, len(states))))
        m[model.interval_rows] = self.interval_vertices[:, cols]
        for x, sol in zip(model.simplex_rows.tolist(), self.solutions):
            m[x] = sol.vertex[cols]
        return m[cols] if isinstance(cols, slice) else m[states]


def columns(states: np.ndarray) -> slice | np.ndarray:
    """``states``, a strictly increasing index array, as a slice when it is
    one run of indices, as a singleton target at either end leaves the
    non-target states, and as itself otherwise."""
    first, k = int(states[0]), len(states)
    return slice(first, first + k) if states[-1] - first == k - 1 else states


def gather(stack: np.ndarray, picks: np.ndarray, cols: slice | np.ndarray
           ) -> np.ndarray:
    """``stack[picks][..., cols]``, for ``cols`` from ``columns``, as one
    fresh array and in one indexing step."""
    if isinstance(cols, slice):
        return stack[picks, cols]
    return stack[picks[..., None], cols]


def _interval_vertices(model: Model, order: np.ndarray,
                       rows: np.ndarray | None = None) -> np.ndarray:
    """Minimizing vertex of the model's interval rows ``rows``, or of all of
    them, at the objective that ``order`` sorts: every row starts at ``lo``
    and fills the cheapest coordinates first.  A fresh C-contiguous array."""
    lo, hi, caps = model.interval_lo, model.interval_hi, model.interval_caps
    left = model.interval_left
    if rows is not None:
        lo, hi, caps = lo.take(rows, 0), hi.take(rows, 0), caps.take(rows, 0)
        left = left.take(rows)
    lo, hi, caps = lo.take(order, 1), hi.take(order, 1), caps.take(order, 1)
    # the mass each coordinate takes: what its cheaper ones leave, up to its cap
    fill = np.add.accumulate(caps, axis=1)
    fill -= caps
    np.subtract(left[:, None], fill, out=fill)
    np.maximum(fill, 0.0, out=fill)
    np.minimum(fill, caps, out=fill)
    # rounding can leave a sliver past the partial coordinate; a vertex has
    # at most one coordinate strictly between its bounds
    fill[np.add.accumulate(fill < caps, axis=1, dtype=np.intp) > 1] = 0.0
    full = fill == caps
    np.add(lo, fill, out=lo)
    np.copyto(lo, hi, where=full)
    vertices = np.empty(lo.shape)
    vertices[:, order] = lo
    return vertices


def _interval_choice(model: Model, objective: np.ndarray,
                     start: OperatorResult | None) -> np.ndarray:
    """Minimizing vertex of each of the model's interval rows, after at most
    one sort of the objective."""
    lo, hi = model.interval_lo, model.interval_hi
    if not len(lo):
        return lo
    stale = None
    if start is not None:
        # the start's vertex stays while no coordinate that can give mass
        # costs more than one that can take it
        vertices = start.interval_vertices
        gives = np.maximum.reduce(np.where(vertices > lo, objective, -np.inf), axis=1)
        takes = np.minimum.reduce(np.where(vertices < hi, objective, np.inf), axis=1)
        stale = (gives > takes + lp.PIVOT_TOL).nonzero()[0]
        if not stale.size:
            return vertices
    order = objective.argsort(kind="stable")
    if stale is None or stale.size == len(lo):
        fresh = _interval_vertices(model, order)
    else:
        fresh = vertices.copy()
        fresh[stale] = _interval_vertices(model, order, stale)
    fresh.flags.writeable = False
    return fresh


def _support(objective: np.ndarray) -> np.ndarray | None:
    """The objective's nonzero columns when they are fewer than an eighth of
    the states, else None.  A column gather reads one 64-byte cache line
    (eight floats) per vertex and column, the full product n / 8 lines per
    vertex, so below that share a score reads only those columns."""
    support = np.flatnonzero(objective)
    return support if 8 * len(support) < len(objective) else None


_EPS = np.finfo(float).eps

# Vertex stacks of fewer floats are always scanned in full and leave no
# reference: below about this size, the test and the gathers cost more than
# the scans they save.  Policy iteration on random_model(n, k, s), one BLAS
# thread, against full scans only: 1.04 of the time at 245,000 floats and
# 0.98 at 320,000 (k = 50), 1.03 at 250,000 and 0.94 at 360,000 (k = 100);
# value iteration's first 1500 sweeps: 1.24 at 125,000, 0.87 at 320,000.
_TESTED_FLOATS = 300_000

# OpenBLAS scores a matrix-vector product of fewer entries than this on one
# thread (115200 times its GEMM_MULTITHREAD_THRESHOLD, 4 by default), and a
# larger one on every thread, split at ceil(rows / threads) rows.
_SERIAL_ENTRIES = 460_800

# Rows of the stack that one re-scoring product gathers, at most: a
# multiple of four, and a small temporary.
_CHUNK = 64


def _serial_rows(width: int) -> int:
    """Rows of ``width`` columns that one product takes, a multiple of four:
    with up to three more rows, BLAS still scores it on one thread."""
    return max(4, ((_SERIAL_ENTRIES - 1) // max(width, 1) - 3) // 4 * 4)


def _scan(stack: np.ndarray, objective: np.ndarray, out: np.ndarray) -> None:
    """``stack @ objective`` into ``out``, with the bits of one product on
    one thread whatever the number of BLAS threads.

    The BLAS matrix-vector kernel scores the rows of a product in groups of
    four, and the last ``len % 4`` rows, which fill no group, by another
    summation; a product split between threads sums each thread's share so.
    So the stack is scored in products of ``_serial_rows`` rows, each on one
    thread, and the last one also takes the stack's last ``len % 4`` rows."""
    body = len(stack) - len(stack) % 4
    cuts = list(range(0, body, _serial_rows(stack.shape[1]))) or [0]
    for lo, hi in zip(cuts, cuts[1:] + [len(stack)]):
        np.matmul(stack[lo:hi], objective, out=out[lo:hi])


def _rescore(stack: np.ndarray, rows: np.ndarray, objective: np.ndarray
             ) -> np.ndarray:
    """``(stack @ objective)[rows]`` for increasing stack indices ``rows``,
    bit for bit as ``_scan`` scores them, but read from those rows only, a
    few gathered rows at a time.

    The rows below the stack's last ``len(stack) % 4`` are gathered in
    groups of four, the last group padded with its last row, and any row
    among those last ones is scored with all of them, at the end of the
    gather, as the scan scores them.  Each product takes at most
    ``_CHUNK`` gathered rows, and no more than ``_scan`` takes."""
    body = len(stack) - len(stack) % 4
    split = int(np.searchsorted(rows, body))
    groups = rows[:split]
    if not split and split < len(rows) and body:
        # a product of the tail rows alone may take another path than the
        # full product's tail: put one group before them
        groups = np.array([body - 1])
    gathered = np.concatenate([groups, np.repeat(groups[-1:], -len(groups) % 4)])
    tail = len(gathered)
    if split < len(rows):
        gathered = np.concatenate([gathered, np.arange(body, len(stack))])
    out = np.empty(len(gathered))
    # the last product also takes the tail rows
    step = min(_CHUNK, _serial_rows(stack.shape[1]))
    cuts = list(range(0, tail, step)) or [0]
    for lo, hi in zip(cuts, cuts[1:] + [len(gathered)]):
        np.matmul(stack[gathered[lo:hi]], objective, out=out[lo:hi])
    return np.concatenate([out[:split], out[tail + rows[split:] - body]])


class Reference(NamedTuple):
    """What a full scan of the vertex stack leaves for later calls: the
    objective it scored, each vertex row's first minimizer (its column in
    ``Model.vertex_grid``), and, shaped like the grid, each vertex's score
    minus its row's best score, +inf on the grid's padding."""

    objective: np.ndarray
    first: np.ndarray
    gaps: np.ndarray


def _kept(model: Model, reference: Reference, objective: np.ndarray
          ) -> np.ndarray | None:
    """The positions in the flattened ``Model.vertex_grid``, increasing, of
    the vertices that can be their row's first minimizer at ``objective``,
    given a full scan at another objective; None when the change is too
    large to bound in floating point.

    Let d = objective - reference.objective, c1 and c2 the midpoints of
    its entries off and on the target, w the larger of their spans, and
    v_T a vertex's mass on the target.  For a pmf v, v . d lies within w / 2
    of c1 + (c2 - c1) v_T.  So a vertex v whose row's reference best is b
    scores at least ``gap_v - (c1 - c2)(v_T - b_T) - w`` more than b, and it
    is dropped where that exceeds a rounding margin.  The margin covers
    each score's rounding, n eps of the objective's size, and a vertex
    whose entries are off a pmf's within ``PMF_TOL``.  The target term is
    what keeps vertices out on the upper bound: h is 0 on the target,
    and a policy step shifts it by about the same amount on every other
    state, so d spans that whole shift while c1 - c2 carries it
    (MacQueen's test for suboptimal actions, Management Sci. 13 (1967),
    with spans taken per part of the state space)."""
    target = model.target_mask
    # an overflow here makes the bound non-finite, which the check below sees
    with np.errstate(over="ignore", invalid="ignore"):
        delta = objective - reference.objective
        off, on = delta[~target], delta[target]
        low, high, low_t, high_t = off.min(), off.max(), on.min(), on.max()
        shift = (high + low) / 2 - (high_t + low_t) / 2
        # at least the largest |objective| plus the largest |reference objective|
        scale = 2 * np.abs(objective).max() + max(high, high_t, -low, -low_t)
        margin = (max(high - low, high_t - low_t)
                  + 4 * (model.size + 8) * (_EPS + PMF_TOL) * scale)
    if not (np.isfinite(margin) and np.isfinite(shift)):
        return None
    # each vertex's mass on the target, from column views: a gather of the
    # columns would copy them
    stack, grid = model.vertex_stack, model.vertex_grid
    mass = np.zeros(len(stack) + 1)
    for t in np.flatnonzero(target).tolist():
        mass[:-1] += stack[:, t]
    # gap_v - shift (v_T - b_T); the padding's infinite gap keeps it out
    test = mass[grid]
    test -= test[np.arange(len(grid)), reference.first][:, None]
    test *= -shift
    test += reference.gaps
    return np.flatnonzero(test <= margin)


def _vertex_choice(model: Model, objective: np.ndarray,
                   reference: Reference | None
                   ) -> tuple[np.ndarray, np.ndarray, Reference | None]:
    """Each vertex row's first minimizer (a stack index) and its score, and
    the full scan that later calls may start from.

    With a ``reference``, only the vertices ``_kept`` keeps are scored,
    when they are at most a quarter of the stack; the reference then stays.
    Otherwise every vertex is scored, and the scan is the new reference,
    unless the stack has fewer than ``_TESTED_FLOATS`` floats, the scan
    read some columns only, or a row's best score is not finite."""
    stack, grid = model.vertex_stack, model.vertex_grid
    every = np.arange(len(grid))
    support = _support(objective)
    # a sparse objective is cheap to scan in full, and re-scoring could not
    # repeat the bits of a product over some columns
    if reference is not None and support is None:
        kept = _kept(model, reference, objective)
        if kept is not None and 4 * len(kept) <= len(stack):
            scores = np.full(grid.shape, np.inf)
            scores.reshape(-1)[kept] = _rescore(
                stack, grid.reshape(-1)[kept], objective)
            first = scores.argmin(axis=1)
            return grid[every, first], scores[every, first], reference
    # the grid's padding points at the +inf in dots' last slot
    dots = np.empty(len(stack) + 1)
    dots[-1] = np.inf
    if support is None:
        _scan(stack, objective, dots[:-1])
    else:
        _scan(stack[:, support], objective[support], dots[:-1])
    gaps = dots[grid]
    first = gaps.argmin(axis=1)
    chosen, best = grid[every, first], gaps[every, first]
    if (support is not None or stack.size < _TESTED_FLOATS
            or not np.isfinite(best).all()):
        return chosen, best, None
    gaps -= best[:, None]
    # later calls read the reference, so it holds a copy of the caller's f
    reference = Reference(objective.copy(), first, gaps)
    for array in reference:
        array.flags.writeable = False
    return chosen, best, reference


def apply(model: Model, f: np.ndarray, bound: str,
          start: OperatorResult | None = None) -> OperatorResult:
    """The ``bound`` transition operator at ``f``: the row-wise minimum of
    ``p . f`` for ``"lower"``, the maximum for ``"upper"``."""
    check_bound(bound)
    f = np.asarray(f, dtype=float)
    if f.shape != (model.size,) or not np.isfinite(f).all():
        raise ValueError(f"function must be finite with shape ({model.size},)")
    if start is not None and start.model is not model:
        raise ValueError("start is not a result of this model")
    lower = bound == "lower"
    objective = f if lower else -f
    picks = np.full(model.size, -1, dtype=np.intp)
    value = np.empty(model.size)
    reference = None
    if len(model.vertex_stack):
        rows = model.vertex_rows
        picks[rows], best, reference = _vertex_choice(
            model, objective, None if start is None else start.reference)
        value[rows] = best if lower else -best
    intervals = _interval_choice(model, objective, start)
    value[model.interval_rows] = intervals @ f
    solutions = []
    for x, row_start in zip(model.simplex_rows.tolist(),
                            model.simplex_starts if start is None else start.solutions):
        sol = lp.minimize_row(model.rows[x], objective, row_start)
        value[x] = float(f @ sol.vertex)
        solutions.append(sol)
    return OperatorResult(value, model, picks, intervals, tuple(solutions),
                          reference)
