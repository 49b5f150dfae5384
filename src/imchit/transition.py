"""Row-wise evaluation of the lower and upper transition operators.

Both bounds run one operator, ``apply(model, f, bound)``: the lower bound
minimizes ``p . f`` over each state's row polytope independently, and the
upper bound is its conjugate, the same minimization of ``p . (-f)``.
Besides the value vector, each application records the extreme point
attaining it in each row, once: the policy that the policy-iteration
solver consumes.  One product with the model's
vertex stack scores every vertex, into an array whose last slot holds
+inf, and one ``argmin`` over the padded grid the model packed when it
was built (``Model.vertex_grid``, whose padding points at that slot)
picks each vertex row's first minimizer.  When
fewer than an eighth of the objective's entries are nonzero, as for the
target indicator of the policy-iteration start and of the early
reachability rounds, the product reads only those columns of the stack.
A model without vertex rows skips this kernel.
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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .model import Model

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
    from them on request.
    """

    value: np.ndarray
    model: Model = field(repr=False)
    picks: np.ndarray = field(repr=False)
    interval_vertices: np.ndarray = field(repr=False)
    solutions: tuple[lp.LpSolution, ...] = field(repr=False)

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


def _scores(stack: np.ndarray, objective: np.ndarray, out: np.ndarray) -> None:
    """``stack @ objective`` into ``out``, read from the objective's nonzero
    columns when they are fewer than an eighth of the states.  A column gather
    reads one 64-byte cache line (eight floats) per vertex and column,
    the full product n / 8 lines per vertex, so the gather reads less
    below that share."""
    support = np.flatnonzero(objective)
    if 8 * len(support) < len(objective):
        np.matmul(stack[:, support], objective[support], out=out)
    else:
        np.matmul(stack, objective, out=out)


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
    stack = model.vertex_stack
    picks = np.full(model.size, -1, dtype=np.intp)
    value = np.empty(model.size)
    if len(stack):
        rows, grid = model.vertex_rows, model.vertex_grid
        # the grid's padding points at the +inf in dots' last slot
        dots = np.empty(len(stack) + 1)
        dots[-1] = np.inf
        _scores(stack, objective, dots[:-1])
        # each row's stack index, read off its grid row at the first minimizer
        chosen = grid[np.arange(len(rows)), dots[grid].argmin(axis=1)]
        picks[rows] = chosen
        value[rows] = dots[chosen] if lower else -dots[chosen]
    intervals = _interval_choice(model, objective, start)
    value[model.interval_rows] = intervals @ f
    solutions = []
    for x, row_start in zip(model.simplex_rows.tolist(),
                            model.simplex_starts if start is None else start.solutions):
        sol = lp.minimize_row(model.rows[x], objective, row_start)
        value[x] = float(f @ sol.vertex)
        solutions.append(sol)
    return OperatorResult(value, model, picks, intervals, tuple(solutions))
