"""Vertex-returning linear programming over a single row polytope.

Constraint-specified rows are minimized by a dense two-phase simplex
method with Bland's anti-cycling rule, so the optimum is always attained
at a basic feasible solution, i.e. an extreme point of the row polytope.
Vertex-specified rows are minimized by an exhaustive scan.  Both paths
are deterministic: identical inputs give identical optima, vertices and
basis identifiers.

Standard form used for a row over ``n`` states with constraints
``a_i . p (rel_i) b_i``:

* columns ``0..n-1`` are the probabilities ``p``,
* one slack (``<=``) or surplus (``>=``) column per inequality, in
  constraint order,
* equality rows carry no extra column,
* row ``0`` is the simplex constraint ``sum(p) == 1``.

A basis identifier is the sorted tuple of basic column indices of this
standard form; it pins down exactly one vertex.

Phase one depends only on the row, so it runs once per row, when the row
is built: ``RowPolytopeH`` keeps what ``row_start`` returns, the standard
form and the feasible tableau phase one ends with (or the ``Infeasible``
outcome it raised), read-only, as ``lp_start``.  That start tableau is
narrow: it keeps the structural columns and the rhs only, because phase
two never lets an artificial column enter and pivoting updates each
column on its own.  A ``minimize_row`` call copies it and runs phase two
only.

Every basis of a row is primal feasible whatever the objective, so phase
two may also start from the final tableau of an earlier ``LpSolution`` of
the same row (``start=``).  Bland's rule then stays finite and exact, and
an incumbent that is still optimal makes no pivot and keeps its basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, SelectorOutOfRange
from .model import FEAS_TOL, RowPolytopeH, RowPolytopeV

PIVOT_TOL = 1e-10      # entering/leaving significance threshold
RATIO_TOL = 1e-12      # ratio-test tie threshold
PHASE1_TOL = 1e-8      # residual infeasibility accepted as zero


@dataclass
class LpSolution:
    """Optimal value, the attaining vertex, and its basis identifier.

    A constraint-row solution also keeps the row it solved, its final
    tableau (read-only) and the basic column of each tableau row, so that
    a later ``minimize_row`` call on the same row can start from it.  They
    take no part in ``==`` or ``repr``.
    """

    optimum: float
    vertex: np.ndarray
    basis: int | tuple[int, ...]
    tableau: np.ndarray | None = field(default=None, repr=False, compare=False)
    basic: tuple[int, ...] = field(default=(), repr=False, compare=False)
    row: RowPolytopeH | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class _RowStart:
    """Standard form and phase-one outcome of one row; arrays are read-only.

    ``tableau`` and ``basis`` are the feasible start phase two copies.  The
    tableau keeps the ``ncols`` structural columns and the rhs; its last
    row, which phase two overwrites, is what is left of the phase-one
    objective.  A basis entry ``>= ncols`` is an artificial that stayed
    basic at zero in a redundant row.  When the row
    admits no pmf, or its data are not finite, ``tableau`` is None and
    ``error`` holds the message ``Infeasible`` is raised with.
    """

    a: np.ndarray
    b: np.ndarray
    ncols: int
    tableau: np.ndarray | None
    basis: tuple[int, ...]
    error: str | None


def _standard_form(row: RowPolytopeH) -> tuple[np.ndarray, np.ndarray, int]:
    n = row.num_states
    slacks = [i for i, c in enumerate(row.constraints) if c.rel != "="]
    ncols = n + len(slacks)
    m = 1 + len(row.constraints)
    a = np.zeros((m, ncols))
    b = np.zeros(m)
    a[0, :n] = 1.0
    b[0] = 1.0
    slack_col = n
    for i, c in enumerate(row.constraints):
        a[1 + i, :n] = c.a
        b[1 + i] = c.b
        if c.rel == "<=":
            a[1 + i, slack_col] = 1.0
            slack_col += 1
        elif c.rel == ">=":
            a[1 + i, slack_col] = -1.0
            slack_col += 1
    return a, b, ncols


def row_start(row: RowPolytopeH) -> _RowStart:
    """Standard form and phase-one outcome of a constraint row.

    ``RowPolytopeH`` calls it once, when the row is built, and keeps the
    result as ``lp_start``.
    """
    a, b, ncols = _standard_form(row)
    a.flags.writeable = False
    b.flags.writeable = False
    return _RowStart(a, b, ncols, *_feasible_start(a, b, ncols))


def _feasible_start(a: np.ndarray, b: np.ndarray, ncols: int
                    ) -> tuple[np.ndarray | None, tuple[int, ...], str | None]:
    """Phase one's feasible tableau and basis, or why there is none."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        # NaN fails every tolerance test, so phase one would not notice
        return None, (), "row has non-finite constraint data"
    try:
        tab, basis, infeas = _phase1(a, b, ncols)
    except Infeasible as exc:
        return None, (), str(exc)
    if infeas > PHASE1_TOL:
        return None, (), f"row polytope is empty (phase-one residual {infeas:.3g})"
    tab = np.hstack((tab[:, :ncols], tab[:, -1:]))
    tab.flags.writeable = False
    return tab, tuple(basis), None


def standard_form(row: RowPolytopeH) -> tuple[np.ndarray, np.ndarray, int]:
    """Equality standard form ``A x = b, x >= 0`` of a constraint row.

    Returns ``(A, b, num_structural)``, read-only, from ``row.lp_start``.
    """
    start = row.lp_start
    return start.a, start.b, start.ncols


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    # a row whose factor is zero keeps its values, so only the rows with a
    # non-zero entry in the pivot column are updated; tableau columns are
    # sparse (about six non-zeros on interval rows).  Zeroing the pivot
    # entry first keeps the pivot row out of them.
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


def row_feasible(row: RowPolytopeH) -> bool:
    """Phase-one check that the constraint row admits at least one pmf."""
    return row.lp_start.error is None


def minimize_row(row: RowPolytopeH, objective: np.ndarray,
                 start: LpSolution | None = None) -> LpSolution:
    """Minimize ``objective . p`` over a constraint row polytope.

    Returns a minimizing basic feasible solution, i.e. an extreme point
    of the row polytope, with its basis identifier.  Phase two starts
    from the basis of ``start``, an earlier solution of this same row,
    when it is given, and from the row's phase-one basis otherwise.
    """
    objective = np.asarray(objective, dtype=float)
    if start is None:
        phase_one = row.lp_start
        if phase_one.error is not None:
            raise Infeasible(phase_one.error)
        tab, basis = phase_one.tableau.copy(), list(phase_one.basis)
    elif start.row is not row:
        raise ValueError("start is not a solution of this row")
    else:
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
    basic = np.array(basis)
    priced = (basic < n).nonzero()[0]
    vertex = np.zeros(n)
    vertex[basic[priced]] = tab[priced, -1]
    vertex[(vertex < 0.0) & (vertex > -FEAS_TOL)] = 0.0
    vertex.flags.writeable = False
    tab.flags.writeable = False
    basis_id = tuple(sorted(basic[basic < ncols].tolist()))
    return LpSolution(float(objective @ vertex), vertex, basis_id,
                      tab, tuple(basis), row)


def minimize_row_vrep(row: RowPolytopeV, objective: np.ndarray) -> LpSolution:
    """Scan all vertices; ties broken towards the smallest vertex index."""
    dots = row.vertices @ np.asarray(objective, dtype=float)
    k = int(np.argmin(dots))
    return LpSolution(float(dots[k]), row.vertices[k], k)


def vertex_from_basis(row: RowPolytopeH, basis: tuple[int, ...],
                      state_label: str = "?") -> np.ndarray:
    """Reconstruct the vertex named by a basis identifier.

    Solves the standard-form system restricted to the basic columns and
    re-checks every constraint; raises ``SelectorOutOfRange`` when the
    identifier is not a feasible basis of this row.
    """
    a, b, ncols = standard_form(row)
    cols = list(basis)
    if len(set(cols)) != len(cols) or not all(
            isinstance(c, (int, np.integer)) and 0 <= c < ncols for c in cols):
        raise SelectorOutOfRange(state_label, f"basis {basis} has invalid columns")
    if len(cols) > a.shape[0]:
        raise SelectorOutOfRange(state_label, "basis has more columns than rows")
    sol, _, rank, _ = np.linalg.lstsq(a[:, cols], b, rcond=None)
    if rank < len(cols):
        raise SelectorOutOfRange(state_label, "basis columns are linearly dependent")
    x = np.zeros(ncols)
    x[cols] = sol
    if np.max(np.abs(a @ x - b)) > FEAS_TOL:
        raise SelectorOutOfRange(state_label, "basis does not solve the row system")
    if x.min() < -FEAS_TOL:
        raise SelectorOutOfRange(state_label, "basic solution is infeasible")
    vertex = x[:row.num_states].copy()
    vertex[(vertex < 0.0) & (vertex > -FEAS_TOL)] = 0.0
    return vertex
