"""Vertex-returning linear programming over a single row polytope.

Constraint-specified rows are minimized by a dense two-phase simplex
method with Bland's anti-cycling rule, so the optimum is always attained
at a basic feasible solution, i.e. an extreme point of the row polytope.
The method is deterministic: identical inputs give identical optima,
vertices and basis identifiers.

Standard form used for a row over ``n`` states with constraints
``a_i . p (rel_i) b_i``:

* columns ``0..n-1`` are the probabilities ``p``,
* one slack (``<=``) or surplus (``>=``) column per inequality, in
  constraint order,
* equality rows carry no extra column,
* row ``0`` is the simplex constraint ``sum(p) == 1``.

A basis identifier is the sorted tuple of basic column indices of this
standard form; it pins down exactly one vertex.

Phase one depends only on the row: ``row_start`` runs it and returns
its outcome as the ``LpSolution`` of the zero objective, and a model
keeps that start for each of its rows that need the simplex
(``Model.simplex_starts``); the standard form itself is not kept.  The
start tableau is narrow: it keeps the structural columns and the rhs
only, because phase two never lets an artificial column enter and
pivoting updates each column on its own.  A ``minimize_row`` call copies
the tableau of its start and runs phase two only; without a start, it
runs ``row_start`` first.

Every basis of a row is primal feasible whatever the objective, so phase
two may also start from the final tableau of an earlier ``LpSolution`` of
the same row (``start=``).  Bland's rule then stays finite and exact, and
an incumbent that is still optimal makes no pivot and keeps its basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible
from .model import RowPolytopeH

PIVOT_TOL = 1e-10      # entering/leaving significance threshold
RATIO_TOL = 1e-12      # ratio-test tie threshold
PHASE1_TOL = 1e-8      # residual infeasibility accepted as zero
FEAS_TOL = 1e-9        # negative vertex entries rounded up to zero


@dataclass
class LpSolution:
    """Optimal value, the attaining vertex, and its basis identifier.

    It also keeps the row it solved, its final tableau (read-only) and the
    basic column of each tableau row, so that a later ``minimize_row``
    call on the same row can start from it.  They take no part in ``==``
    or ``repr``; nor does the vertex in ``==``, which the basis names.
    """

    optimum: float
    vertex: np.ndarray = field(compare=False)
    basis: tuple[int, ...]
    tableau: np.ndarray = field(repr=False, compare=False)
    basic: tuple[int, ...] = field(repr=False, compare=False)
    row: RowPolytopeH = field(repr=False, compare=False)


def row_start(row: RowPolytopeH) -> LpSolution:
    """Phase one's outcome on a constraint row: the ``LpSolution`` of the
    zero objective at the basis phase one ends with.

    Its tableau keeps the ``ncols`` structural columns of the row's
    standard form and the rhs; a basic column ``>= ncols`` is an
    artificial that stayed basic at zero in a redundant row.  Raises
    ``Infeasible`` when the row admits no pmf or its data are not finite.
    """
    n = row.num_states
    ncols = n + sum(c.rel != "=" for c in row.constraints)
    a = np.zeros((1 + len(row.constraints), ncols))
    b = np.zeros(a.shape[0])
    a[0, :n] = 1.0
    b[0] = 1.0
    slack_col = n
    for i, c in enumerate(row.constraints, 1):
        a[i, :n] = c.a
        b[i] = c.b
        if c.rel != "=":
            a[i, slack_col] = 1.0 if c.rel == "<=" else -1.0
            slack_col += 1
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        # NaN fails every tolerance test, so phase one would not notice
        raise Infeasible("row has non-finite constraint data")
    tab, basis, infeas = _phase1(a, b, ncols)
    if infeas > PHASE1_TOL:
        raise Infeasible(f"row polytope is empty (phase-one residual {infeas:.3g})")
    tab = np.hstack((tab[:, :ncols], tab[:, -1:]))
    tab[-1] = 0.0  # the zero objective's reduced costs and value
    return _solution(row, tab, basis, np.zeros(n))


def _solution(row: RowPolytopeH, tab: np.ndarray, basis: list[int],
              objective: np.ndarray) -> LpSolution:
    """The solution a final tableau ``tab`` and its ``basis`` stand for;
    ``tab`` is made read-only."""
    n = row.num_states
    basic = np.array(basis)
    priced = (basic < n).nonzero()[0]
    vertex = np.zeros(n)
    vertex[basic[priced]] = tab[priced, -1]
    vertex[(vertex < 0.0) & (vertex > -FEAS_TOL)] = 0.0
    vertex.flags.writeable = False
    tab.flags.writeable = False
    basis_id = tuple(sorted(basic[basic < tab.shape[1] - 1].tolist()))
    return LpSolution(float(objective @ vertex), vertex, basis_id,
                      tab, tuple(basis), row)


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    # a row whose factor is zero keeps its values, so only the rows with a
    # non-zero entry in the pivot column are updated; tableau columns are
    # sparse (about six non-zeros of 43 rows on a 20-state row that bounds
    # each coordinate and couples two).  Zeroing the pivot entry first
    # keeps the pivot row out of them.
    tab[row, col] = 0.0
    rows = tab[:, col].nonzero()[0]
    tab[rows] -= np.multiply.outer(tab[rows, col], tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _bland(tab: np.ndarray, basis: list[int], allowed: int) -> None:
    """Run Bland's-rule pivoting until no allowed column can improve.

    ``allowed`` restricts entering candidates to columns ``< allowed``.
    The objective row is the last tableau row, the rhs the last column.
    """
    m = tab.shape[0] - 1
    # Bland's rule terminates finitely; the guard only catches numerical
    # breakdown of the tolerance tests.
    for _ in range(1000 * tab.shape[1] + 1000):
        improving = tab[-1, :allowed] < -PIVOT_TOL
        enter = int(improving.argmax())
        if not improving[enter]:
            return
        column = tab[:m, enter]
        rows = (column > PIVOT_TOL).nonzero()[0]
        ratios = (tab[rows, -1] / column[rows]).tolist()
        # the tie rule is sequential, so it runs over plain floats
        leave = -1
        best = np.inf
        for i, ratio in zip(rows.tolist(), ratios):
            if ratio < best - RATIO_TOL or (
                    abs(ratio - best) <= RATIO_TOL
                    and leave >= 0 and basis[i] < basis[leave]):
                best = ratio
                leave = i
        if leave < 0:
            raise Infeasible("simplex step found no leaving row")
        _pivot(tab, basis, leave, enter)
    raise Infeasible("simplex failed to terminate")


def _phase1(a: np.ndarray, b: np.ndarray,
            ncols: int) -> tuple[np.ndarray, list[int], float]:
    """Find a basic feasible solution of ``A x = b, x >= 0`` via artificials.

    Returns ``(tableau, basis, residual_infeasibility)`` with the phase-one
    objective still in the last tableau row.
    """
    m = a.shape[0]
    tab = np.zeros((m + 1, ncols + m + 1))
    sign = np.where(b < 0.0, -1.0, 1.0)
    tab[:m, :ncols] = a * sign[:, None]
    tab[:m, -1] = b * sign
    tab[np.arange(m), ncols + np.arange(m)] = 1.0
    basis = list(range(ncols, ncols + m))
    # reduced costs of min(sum of artificials) under the artificial basis
    tab[-1] = -tab[:m].sum(axis=0)
    tab[-1, ncols:ncols + m] = 0.0
    _bland(tab, basis, ncols)
    infeas = -tab[-1, -1]
    # pivot lingering zero-valued artificials out where a structural
    # column is available; rows where none exists are redundant
    for i in range(m):
        if basis[i] >= ncols:
            for j in range(ncols):
                if abs(tab[i, j]) > PIVOT_TOL:
                    _pivot(tab, basis, i, j)
                    break
    return tab, basis, infeas


def minimize_row(row: RowPolytopeH, objective: np.ndarray,
                 start: LpSolution | None = None) -> LpSolution:
    """Minimize ``objective . p`` over a constraint row polytope.

    Returns a minimizing basic feasible solution, i.e. an extreme point
    of the row polytope, with its basis identifier.  Phase two starts
    from the basis of ``start``, an earlier solution of this same row,
    and from ``row_start(row)`` when none is given.
    """
    objective = np.asarray(objective, dtype=float)
    if start is None:
        start = row_start(row)
    elif start.row is not row:
        raise ValueError("start is not a solution of this row")
    tab, basis = start.tableau.copy(), list(start.basic)
    ncols = tab.shape[1] - 1
    n = row.num_states
    # reduced costs: subtract cost * row for every basic probability with a
    # non-zero cost, one after the other in row order; slacks and basic
    # artificials cost 0, and the artificials' columns are gone
    basic = np.array(basis)
    priced = (basic < n).nonzero()[0]
    cost = objective[basic[priced]]
    priced, cost = priced[cost != 0.0], cost[cost != 0.0]
    obj = np.zeros(ncols + 1)
    obj[:n] = objective
    tab[-1] = np.subtract.reduce(
        np.vstack((obj, cost[:, None] * tab[priced])), axis=0)
    _bland(tab, basis, ncols)
    return _solution(row, tab, basis, objective)
