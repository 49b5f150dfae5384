"""Row-wise evaluation of the lower and upper transition operators.

Applying the lower operator to a function ``f`` minimizes ``p . f`` over
each state's row polytope independently; the upper operator maximizes.
Besides the value vector, each application returns the policy of extreme
points attaining it row by row, which is what the policy-iteration solver
consumes.  One product with the model's vertex stack scores every vertex,
and one padded ``argmin`` picks each vertex row's first minimizer.  An
application may start each constraint row's simplex from the row's
solution in an earlier result (``start=``); the policy-iteration solver
passes the previous improvement step, whose bases are usually optimal
again or a few pivots away.
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
    holds an index into the model's vertex stack (-1 on H-rep rows) and
    ``solutions`` the ``LpSolution`` of each H-rep row.  ``matrix``
    assembles the policy matrix from them on request.
    """

    value: np.ndarray
    policy: Policy
    model: Model | None = field(default=None, repr=False, compare=False)
    picks: np.ndarray | None = field(default=None, repr=False, compare=False)
    solutions: dict[int, lp.LpSolution] = field(
        default_factory=dict, repr=False, compare=False)

    def matrix(self) -> np.ndarray:
        """The transition matrix ``policy`` selects, as a plain array."""
        n = self.model.size
        stack = self.model.vertex_stack
        # an H-rep row's pick, -1, gathers a placeholder its vertex replaces
        m = stack[self.picks] if stack.size else np.empty((n, n))
        for x, sol in self.solutions.items():
            m[x] = sol.vertex
        return m


def record(model: Model, value: np.ndarray, vertex: np.ndarray,
           solutions: dict[int, lp.LpSolution]) -> OperatorResult:
    """The result with ``value`` that picks vertex ``vertex[x]`` in each
    V-rep row ``x`` and the ``LpSolution`` ``solutions[x]`` in each H-rep
    row; ``vertex`` is ignored on H-rep rows."""
    selectors = vertex.tolist()
    for x, sol in solutions.items():
        selectors[x] = sol.basis
    picks = np.where(model.vertex_counts > 0, model.vertex_offsets + vertex, -1)
    return OperatorResult(value, Policy(tuple(selectors)), model, picks, solutions)


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
    solutions = {}
    for x in np.flatnonzero(counts == 0).tolist():
        sol = lp.minimize_row(model.rows[x], objective,
                              None if start is None else start.solutions[x])
        value[x] = float(f @ sol.vertex)
        solutions[x] = sol
    return record(model, value, vertex, solutions)


def lower_apply(model: Model, f: np.ndarray,
                start: OperatorResult | None = None) -> OperatorResult:
    """Lower transition operator: row-wise minimum of ``p . f``."""
    return _apply(model, f, 1.0, start)


def upper_apply(model: Model, f: np.ndarray,
                start: OperatorResult | None = None) -> OperatorResult:
    """Upper transition operator: row-wise maximum of ``p . f``."""
    return _apply(model, f, -1.0, start)


def lower_apply_n(model: Model, f: np.ndarray, n: int) -> np.ndarray:
    """Value of the n-fold composition of the lower operator."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    value = np.asarray(f, dtype=float)
    for _ in range(n):
        value = lower_apply(model, value).value
    return value


def upper_apply_n(model: Model, f: np.ndarray, n: int) -> np.ndarray:
    """Value of the n-fold composition of the upper operator."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    value = np.asarray(f, dtype=float)
    for _ in range(n):
        value = upper_apply(model, value).value
    return value
