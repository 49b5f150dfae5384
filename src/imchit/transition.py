"""Row-wise evaluation of the lower and upper transition operators.

Applying the lower operator to a function ``f`` minimizes ``p . f`` over
each state's row polytope independently; the upper operator maximizes.
Besides the value vector, each application returns the policy of extreme
points attaining it row by row, which is what the policy-iteration solver
consumes.  An application may start each constraint row's simplex from the
row's solution in an earlier result (``start=``); the policy-iteration
solver passes the previous improvement step, whose bases are usually
optimal again or a few pivots away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .model import Model, Policy, RowPolytopeV


@dataclass
class OperatorResult:
    """Operator value plus one attaining extreme point per row.

    Each row's choice is recorded without copying its vertex: ``picks``
    holds an index into the model's stacked V-rep vertices (-1 on H-rep
    rows) and ``solutions`` the ``LpSolution`` of each H-rep row.
    ``matrix`` assembles the policy matrix from them on request.
    """

    value: np.ndarray
    policy: Policy
    model: Model | None = field(default=None, repr=False, compare=False)
    picks: np.ndarray | None = field(default=None, repr=False, compare=False)
    solutions: dict[int, lp.LpSolution] = field(
        default_factory=dict, repr=False, compare=False)

    def matrix(self) -> np.ndarray:
        """The transition matrix ``policy`` selects, as a plain array."""
        stacked, _ = _vertex_cache(self.model)
        n = self.model.size
        m = np.empty((n, n)) if stacked is None else stacked[self.picks]
        for x, sol in self.solutions.items():
            m[x] = sol.vertex
        return m


def record(model: Model, value: np.ndarray, choices: list) -> OperatorResult:
    """The result that picks ``choices[x]`` in row ``x``, with ``value``.

    A choice is a vertex index for a V-rep row and an ``LpSolution`` of
    the row for an H-rep row.
    """
    _, slices = _vertex_cache(model)
    selectors: list = []
    picks: list[int] = []
    solutions = {}
    for x, choice in enumerate(choices):
        if slices[x] is not None:
            selectors.append(choice)
            picks.append(slices[x][0] + choice)
        else:
            selectors.append(choice.basis)
            picks.append(-1)
            solutions[x] = choice
    return OperatorResult(value, Policy(tuple(selectors)), model,
                          np.array(picks), solutions)


def _vertex_cache(model: Model):
    """Stacked vertex matrix over all V-rep rows, built once per model."""
    if model._vcache is None:
        blocks = []
        slices: list[tuple[int, int] | None] = []
        start = 0
        for row in model.rows:
            if isinstance(row, RowPolytopeV):
                blocks.append(row.vertices)
                slices.append((start, start + row.num_vertices))
                start += row.num_vertices
            else:
                slices.append(None)
        stacked = np.concatenate(blocks, axis=0) if blocks else None
        model._vcache = (stacked, slices)
    return model._vcache


def _apply(model: Model, f: np.ndarray, sign: float,
           start: OperatorResult | None) -> OperatorResult:
    """Shared body: sign=+1 minimizes per row, sign=-1 maximizes."""
    f = np.asarray(f, dtype=float)
    if f.shape != (model.size,):
        raise ValueError(f"function must have shape ({model.size},)")
    if start is not None and start.model is not model:
        raise ValueError("start is not a result of this model")
    stacked, slices = _vertex_cache(model)
    objective = sign * f
    dots = stacked @ objective if stacked is not None else None
    value = np.empty(model.size)
    choices: list = []
    for x, row in enumerate(model.rows):
        if slices[x] is not None:
            lo, hi = slices[x]
            seg = dots[lo:hi]
            k = int(np.argmin(seg))
            value[x] = sign * seg[k]
            choices.append(k)
        else:
            sol = lp.minimize_row(row, objective,
                                  None if start is None else start.solutions[x])
            value[x] = float(f @ sol.vertex)
            choices.append(sol)
    return record(model, value, choices)


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
