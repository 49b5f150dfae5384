"""Row-wise evaluation of the lower and upper transition operators.

Applying the lower operator to a function ``f`` minimizes ``p . f`` over
each state's row polytope independently; the upper operator maximizes.
Besides the value vector, each application returns the policy of extreme
points attaining it row by row, which is what the policy-iteration solver
consumes.  One product with the model's vertex stack scores every vertex,
and one padded ``argmin`` picks each vertex row's first minimizer.
Interval rows ``lo <= p <= hi`` are solved together in closed form: one
sort of the objective, then every row starts at ``lo`` and hands its
remaining mass to the cheapest coordinates first (de Campos, Huete &
Moral 1994).  Only general constraint rows run the simplex.

An application may start from an earlier result (``start=``); the
policy-iteration solver passes the previous improvement step.  Each
constraint row's simplex then starts from that row's basis, which is
usually optimal again or a few pivots away, and each interval row keeps
its vertex there while that vertex is still optimal within
``lp.PIVOT_TOL``, so that ties in ``f`` do not flip the choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .model import Model, Policy


@dataclass
class OperatorResult:
    """Operator value plus one attaining extreme point per row.

    Each row's choice is recorded without copying its vertex: ``picks``
    holds an index into the model's vertex stack (-1 on H-rep rows),
    ``interval_vertices`` the vertex of each of the model's
    ``interval_rows``, and ``solutions`` the ``LpSolution`` of each other
    H-rep row.  ``matrix`` assembles the policy matrix from them on
    request.

    An interval row's selector names its vertex: the sorted coordinates
    of positive width at their upper bound, then the one coordinate
    strictly between its bounds, or -1 when there is none.
    """

    value: np.ndarray
    policy: Policy
    model: Model | None = field(default=None, repr=False, compare=False)
    picks: np.ndarray | None = field(default=None, repr=False, compare=False)
    solutions: dict[int, lp.LpSolution] = field(
        default_factory=dict, repr=False, compare=False)
    interval_vertices: np.ndarray | None = field(
        default=None, repr=False, compare=False)

    def matrix(self) -> np.ndarray:
        """The transition matrix ``policy`` selects, as a plain array."""
        n = self.model.size
        stack = self.model.vertex_stack
        # an H-rep row's pick, -1, gathers a placeholder its vertex replaces
        m = stack[self.picks] if stack.size else np.empty((n, n))
        m[self.model.interval_rows] = self.interval_vertices
        for x, sol in self.solutions.items():
            m[x] = sol.vertex
        return m


def _interval_vertices(lo: np.ndarray, hi: np.ndarray, objective: np.ndarray
                       ) -> tuple[np.ndarray, list]:
    """Minimizing vertex and selector of the interval rows ``lo <= p <= hi``:
    every row starts at ``lo`` and fills the cheapest coordinates first."""
    order = np.argsort(objective, kind="stable")
    lo_sorted, hi_sorted = lo[:, order], hi[:, order]
    caps = hi_sorted - lo_sorted
    left = 1.0 - lo.sum(axis=1)
    fill = np.minimum(np.maximum(
        left[:, None] - (np.cumsum(caps, axis=1) - caps), 0.0), caps)
    # rounding can leave a sliver past the partial coordinate; a vertex has
    # at most one coordinate strictly between its bounds
    fill[np.cumsum(fill < caps, axis=1) > 1] = 0.0
    vertices = np.empty_like(lo)
    vertices[:, order] = np.where(fill == caps, hi_sorted, lo_sorted + fill)
    vertices.flags.writeable = False
    rows, cols = np.nonzero((vertices == hi) & (lo < hi))
    ends = np.searchsorted(rows, np.arange(len(lo) + 1)).tolist()
    cols = cols.tolist()
    partial = (lo < vertices) & (vertices < hi)
    last = np.where(partial.any(axis=1), partial.argmax(axis=1), -1).tolist()
    return vertices, [tuple(cols[a:b]) + (j,) for a, b, j in zip(ends, ends[1:], last)]


def _interval_choice(model: Model, objective: np.ndarray,
                     start: OperatorResult | None) -> tuple[np.ndarray, list]:
    """Minimizing vertex and selector of each of the model's interval rows."""
    lo, hi = model.interval_lo, model.interval_hi
    if not len(lo):
        return lo, []
    if start is None:
        return _interval_vertices(lo, hi, objective)
    # the start's vertex stays while no coordinate that can give mass costs
    # more than one that can take it
    vertices = start.interval_vertices
    gives = np.where(vertices > lo, objective, -np.inf).max(axis=1)
    takes = np.where(vertices < hi, objective, np.inf).min(axis=1)
    stale = np.flatnonzero(gives > takes + lp.PIVOT_TOL)
    selectors = [start.policy.selectors[x] for x in model.interval_rows.tolist()]
    if stale.size:
        fresh, chosen = _interval_vertices(lo[stale], hi[stale], objective)
        vertices = vertices.copy()
        vertices[stale] = fresh
        vertices.flags.writeable = False
        for i, selector in zip(stale.tolist(), chosen):
            selectors[i] = selector
    return vertices, selectors


def _apply(model: Model, f: np.ndarray, sign: float,
           start: OperatorResult | None) -> OperatorResult:
    """Shared body: sign=+1 minimizes per row, sign=-1 maximizes."""
    f = np.asarray(f, dtype=float)
    if f.shape != (model.size,):
        raise ValueError(f"function must have shape ({model.size},)")
    if start is not None and start.model is not model:
        raise ValueError("start is not a result of this model")
    objective = sign * f
    stack, offsets = model.vertex_stack, model.vertex_offsets
    counts = model.vertex_counts
    rows = np.flatnonzero(counts)
    # at least one column, so that argmin has an axis to reduce when no
    # row is vertex-specified; padding points at the +inf appended to dots
    width = np.arange(counts.max(initial=1))
    grid = np.where(width < counts[rows, None],
                    offsets[rows, None] + width, stack.shape[0])
    dots = np.append(stack @ objective, np.inf)
    vertex = np.zeros(model.size, dtype=np.intp)
    vertex[rows] = dots[grid].argmin(axis=1)
    value = np.empty(model.size)
    value[rows] = sign * dots[offsets[rows] + vertex[rows]]
    selectors = vertex.tolist()
    intervals, chosen = _interval_choice(model, objective, start)
    value[model.interval_rows] = intervals @ f
    for x, selector in zip(model.interval_rows.tolist(), chosen):
        selectors[x] = selector
    solutions = {}
    for x in model.simplex_rows.tolist():
        sol = lp.minimize_row(model.rows[x], objective,
                              None if start is None else start.solutions[x])
        value[x] = float(f @ sol.vertex)
        selectors[x] = sol.basis
        solutions[x] = sol
    picks = np.where(counts > 0, offsets + vertex, -1)
    return OperatorResult(value, Policy(tuple(selectors)), model, picks,
                          solutions, intervals)


def lower_apply(model: Model, f: np.ndarray,
                start: OperatorResult | None = None) -> OperatorResult:
    """Lower transition operator: row-wise minimum of ``p . f``."""
    return _apply(model, f, 1.0, start)


def upper_apply(model: Model, f: np.ndarray,
                start: OperatorResult | None = None) -> OperatorResult:
    """Upper transition operator: row-wise maximum of ``p . f``."""
    return _apply(model, f, -1.0, start)

