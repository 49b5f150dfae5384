"""Model builders, oracles and a solver spy shared across the test modules."""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np
import pytest

from imchit import (Constraint, Model, RowPolytopeH, RowPolytopeV,
                    StateSpace, TargetSet, solvers)
from imchit.linsolve import solve_precise


def point_mass(n: int, i: int) -> np.ndarray:
    v = np.zeros(n)
    v[i] = 1.0
    return v


def precise_model(matrix: np.ndarray, target: set[int]) -> Model:
    """Wrap a row-stochastic matrix as a one-vertex-per-row model."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    rows = tuple(RowPolytopeV(matrix[x][None, :]) for x in range(n))
    return Model(StateSpace(tuple(f"s{i}" for i in range(n))),
                 TargetSet(target), rows)


def gambler_model(n: int) -> Model:
    """Symmetric walk on 0..n with absorbing ends, target {0, n}."""
    size = n + 1
    matrix = np.zeros((size, size))
    matrix[0, 0] = matrix[n, n] = 1.0
    for x in range(1, n):
        matrix[x, x - 1] = matrix[x, x + 1] = 0.5
    return precise_model(matrix, {0, n})


def line_model() -> Model:
    """Deterministic chain 0 -> 1 -> 2 -> 3 with 3 the absorbing target."""
    rows = tuple(RowPolytopeV(point_mass(4, min(x + 1, 3))[None, :])
                 for x in range(4))
    return Model(StateSpace(("0", "1", "2", "3")), TargetSet({3}), rows)


def isolated_cycle_model() -> Model:
    """States c, d cycle between themselves and never reach the target e."""
    rows = (RowPolytopeV(point_mass(5, 1)[None, :]),
            RowPolytopeV(point_mass(5, 4)[None, :]),
            RowPolytopeV(point_mass(5, 3)[None, :]),
            RowPolytopeV(point_mass(5, 2)[None, :]),
            RowPolytopeV(point_mass(5, 4)[None, :]))
    return Model(StateSpace(("a", "b", "c", "d", "e")), TargetSet({4}), rows)


def two_choice_model() -> Model:
    """Two states; row 0 picks between hitting rates 0.5 and 0.2.

    Hand oracle: h(0) = 1 / p(0 -> 1), so the candidate hitting times are
    2.0 and 5.0.
    """
    rows = (RowPolytopeV(np.array([[0.5, 0.5], [0.8, 0.2]])),
            RowPolytopeV(np.array([[0.0, 1.0]])))
    return Model(StateSpace(("a", "b")), TargetSet({1}), rows)


def drift_vertices(away: float = 0.6) -> tuple[tuple[float, float], ...]:
    """The two vertices of an interior state of ``drift_chain_model``: mass
    (away from the target, toward it).  For ``away >= 0.5`` each pair sums
    to 1 exactly."""
    return ((away, 1.0 - away), (0.5, 0.5))


def drift_chain_model(n: int, away: float = 0.6) -> Model:
    """Birth-death chain on 0..n-1 with target {n - 1}: state 0 stays or
    steps up with 0.5 each, and every interior state picks one of
    ``drift_vertices(away)``.  The upper bound drifts away from the target
    in every row, so its hitting times grow like ``(away / (1 - away)) ** n``;
    the lower bound is the symmetric walk, ``h_x = n(n-1) - x(x+1)``."""
    rows = [RowPolytopeV(0.5 * (point_mass(n, 0) + point_mass(n, 1))[None, :])]
    for x in range(1, n - 1):
        rows.append(RowPolytopeV(np.array(
            [a * point_mass(n, x - 1) + b * point_mass(n, x + 1)
             for a, b in drift_vertices(away)])))
    rows.append(RowPolytopeV(point_mass(n, n - 1)[None, :]))
    return Model(StateSpace(tuple(f"s{i}" for i in range(n))),
                 TargetSet({n - 1}), tuple(rows))


def drift_chain_exact(n: int, away: Fraction) -> list[Fraction]:
    """Exact hitting times of ``drift_chain_model``'s chain that puts mass
    ``away`` away from the target in every interior state.

    With ``d_x = h_x - h_{x+1}``, state 0 gives ``d_0 = 2`` and an interior
    state with mass ``a`` away and ``b`` toward the target gives
    ``d_x = (1 + a d_{x-1}) / b``; ``h`` sums the ``d`` from ``x`` on.
    Every ``d_x`` is positive, so ``h`` falls toward the target: the upper
    bound takes the vertex with the most mass away from it in every row,
    and the lower bound the one with the least.
    """
    toward = 1 - away
    d = [Fraction(2)]
    for _ in range(1, n - 1):
        d.append((1 + away * d[-1]) / toward)
    h = [Fraction(0)]
    for step in reversed(d):
        h.append(h[-1] + step)
    return h[::-1]


def drift_chain_upper(n: int, away: float = 0.6) -> list[Fraction]:
    """Exact upper hitting times of ``drift_chain_model(n, away)``."""
    return drift_chain_exact(n, max(Fraction(a) for a, _ in drift_vertices(away)))


def drift_chain_lower(n: int, away: float = 0.6) -> list[Fraction]:
    """Exact lower hitting times of ``drift_chain_model(n, away)``."""
    return drift_chain_exact(n, min(Fraction(a) for a, _ in drift_vertices(away)))


def box_row(n: int, lower: np.ndarray, upper: np.ndarray) -> RowPolytopeH:
    """Interval constraints lower <= p <= upper on top of the simplex."""
    cons = []
    for y in range(n):
        e = point_mass(n, y)
        if lower[y] > 0.0:
            cons.append(Constraint(e, ">=", float(lower[y])))
        if upper[y] < 1.0:
            cons.append(Constraint(e, "<=", float(upper[y])))
    return RowPolytopeH(n, tuple(cons))


def coupled_row(n: int, lower: np.ndarray, upper: np.ndarray) -> RowPolytopeH:
    """``box_row`` plus ``p[0] + p[1] <= c``, with ``c`` halfway between the
    least and the greatest ``p[0] + p[1]`` on the interval row: a general
    constraint row, which the simplex solves."""
    least = max(lower[0] + lower[1], 1.0 - upper[2:].sum())
    most = min(upper[0] + upper[1], 1.0 - lower[2:].sum())
    pair = np.zeros(n)
    pair[:2] = 1.0
    return RowPolytopeH(n, box_row(n, lower, upper).constraints
                        + (Constraint(pair, "<=", float(least + most) / 2),))


def edge_rows() -> list[RowPolytopeH]:
    """Constraint rows over six states, written in every way the interval
    detection reads, and one general row last."""
    e = np.eye(6)
    return [
        # zero width on state 0
        box_row(6, np.array([0.1, 0.2, 0.0, 0.0, 0.0, 0.05]),
                np.array([0.1, 0.5, 1.0, 1.0, 1.0, 1.0])),
        # an equality
        RowPolytopeH(6, (Constraint(e[1], "=", 0.25), Constraint(e[2], "<=", 0.3))),
        # negative coefficients: p0 >= 0.2, p3 <= 0.5, p1 == 0.25
        RowPolytopeH(6, (Constraint(-2.0 * e[0], "<=", -0.4),
                         Constraint(-e[3], ">=", -0.5),
                         Constraint(-4.0 * e[1], "=", -1.0))),
        # several bounds on one coordinate: 0.2 <= p0 <= 0.4, and p3 >= 0.1
        RowPolytopeH(6, (Constraint(e[0], "<=", 0.6), Constraint(e[0], "<=", 0.4),
                         Constraint(e[0], ">=", 0.1), Constraint(e[0], ">=", 0.2),
                         Constraint(2.0 * e[3], ">=", 0.2))),
        # no constraint at all
        RowPolytopeH(6, ()),
        # one constraint on two coordinates: the simplex solves it
        RowPolytopeH(6, (Constraint(e[0] + e[1], "<=", 0.5),
                         Constraint(e[5], ">=", 0.1))),
    ]


def box_bounds(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Interval rows ``lower <= p <= upper`` at +-50 % around flat-Dirichlet
    centres; row ``x`` of each array belongs to state ``x``."""
    centre = np.random.default_rng(seed).dirichlet(np.ones(n), size=n)
    return 0.5 * centre, np.minimum(1.5 * centre, 1.0)


def box_model(n: int, seed: int, coupled: Iterable[int] = ()) -> Model:
    """Interval rows from ``box_bounds(n, seed)``, the last state as target;
    the states in ``coupled`` get a ``coupled_row`` instead.

    Every row keeps positive mass on the target, so the target is reached
    in one step.
    """
    lower, upper = box_bounds(n, seed)
    coupled = set(coupled)
    rows = tuple((coupled_row if x in coupled else box_row)(n, lower[x], upper[x])
                 for x in range(n))
    return Model(StateSpace(tuple(f"s{i}" for i in range(n))),
                 TargetSet({n - 1}), rows)


def interval_minimum(lower, upper, f) -> list:
    """Closed-form minimizer of ``p . f`` over an interval row ``lower <= p
    <= upper``: start at ``lower`` and hand the remaining mass to the
    cheapest coordinates first, ties to the lowest index.  It uses plain
    Python arithmetic, so it serves floats and exact rationals alike."""
    p = list(lower)
    left = 1 - sum(p)
    for y in sorted(range(len(p)), key=lambda y: f[y]):
        step = min(upper[y] - lower[y], left)
        p[y] += step
        left -= step
    return p


def interval_extreme(lower: np.ndarray, upper: np.ndarray, h: np.ndarray,
                     bound: str) -> np.ndarray:
    """Row-wise min (lower) or max (upper) of ``p . h`` over interval rows,
    in closed form: sort ``h`` and fill greedily."""
    sign = 1.0 if bound == "lower" else -1.0
    return np.array([interval_minimum(lower[x], upper[x], sign * h) @ h
                     for x in range(h.size)])


def exact_bounds(row: RowPolytopeH) -> tuple[list[Fraction], list[Fraction]]:
    """An interval row's bounds ``(lower, upper)`` in exact rationals, read
    off its constraints, one coordinate each."""
    n = row.num_states
    lower, upper = [Fraction(0)] * n, [Fraction(1)] * n
    for c in row.constraints:
        (y,) = np.flatnonzero(c.a).tolist()
        bound = Fraction(c.b) / Fraction(float(c.a[y]))
        rel = c.rel if c.a[y] > 0.0 else {"<=": ">=", ">=": "<="}.get(c.rel, "=")
        if rel != "<=":
            lower[y] = max(lower[y], bound)
        if rel != ">=":
            upper[y] = min(upper[y], bound)
    return lower, upper


def interval_pattern(row: RowPolytopeH, vertex: np.ndarray) -> tuple[int, ...]:
    """The pattern that names an interval row's float ``vertex``: the
    coordinates of positive width at their upper bound, in order, then the
    one coordinate strictly between its bounds, or -1 when there is none.
    The bounds are the row's ``exact_bounds``, rounded once."""
    lower, upper = ([float(v) for v in bounds] for bounds in exact_bounds(row))
    v = vertex.tolist()
    full = [y for y in range(len(v)) if lower[y] < upper[y] and v[y] == upper[y]]
    partial = [y for y in range(len(v)) if lower[y] < v[y] < upper[y]]
    assert len(partial) <= 1, "a vertex has at most one partial coordinate"
    return tuple(full) + (partial[0] if partial else -1,)


def interval_vertex(row: RowPolytopeH, pattern: tuple[int, ...],
                    objective: np.ndarray | None = None) -> list[Fraction]:
    """The vertex an interval row's ``interval_pattern`` names, in exact
    rationals.

    The pattern's leading coordinates sit at their upper bound; its last
    entry, unless -1, takes the mass left over; every other coordinate
    sits at its lower bound.  A partial coordinate whose share or
    shortfall rounds to nothing sits at a bound in the float vertex, so
    the pattern names none and this point misses the simplex by that
    much.  Given the ``objective`` the vertex minimizes, the greedy fill
    settles it in ``interval_minimum``'s order: the first coordinate below
    its upper bound takes the share, or the last above its lower bound
    gives the shortfall up.
    """
    lower, upper = exact_bounds(row)
    *full, partial = pattern
    p = [upper[y] if y in full else lower[y] for y in range(row.num_states)]
    short = 1 - sum(p)
    if partial >= 0:
        p[partial] += short
    elif short and objective is not None:
        moves = [y for y in range(len(p))
                 if (p[y] < upper[y] if short > 0 else p[y] > lower[y])]
        y = (min if short > 0 else max)(moves, key=lambda y: (objective[y], y))
        p[y] += short
        assert lower[y] <= p[y] <= upper[y]
    return p


def standard_form(row: RowPolytopeH) -> tuple[np.ndarray, np.ndarray]:
    """``(a, b)`` of ``a x == b, x >= 0``, built from ``row.constraints`` in
    the layout the ``lp`` module documents: row 0 is ``sum(p) == 1``, the
    ``n`` probability columns come first, then one slack (``<=``) or
    surplus (``>=``) column per inequality, in constraint order."""
    n = row.num_states
    inequalities = [i for i, c in enumerate(row.constraints) if c.rel != "="]
    a = np.zeros((1 + len(row.constraints), n + len(inequalities)))
    a[0, :n] = 1.0
    b = np.array([1.0] + [c.b for c in row.constraints])
    for i, c in enumerate(row.constraints, 1):
        a[i, :n] = c.a
    for col, i in enumerate(inequalities, n):
        a[1 + i, col] = 1.0 if row.constraints[i].rel == "<=" else -1.0
    return a, b


def vertex_from_basis(row: RowPolytopeH, basis: tuple[int, ...]) -> np.ndarray:
    """The vertex a basis identifier names, rebuilt by least squares from
    the row's ``standard_form``; the simplex reads it off its final
    tableau instead."""
    a, b = standard_form(row)
    x = np.zeros(a.shape[1])
    x[list(basis)] = np.linalg.lstsq(a[:, list(basis)], b, rcond=None)[0]
    return x[:row.num_states]


def choices(model: Model, result) -> tuple:
    """The extreme point an ``OperatorResult`` records in each row, named
    apart from how it records it: a vertex row's index among its own
    vertices, an interval row's ``interval_pattern``, another constraint
    row's basis."""
    intervals = dict(zip(model.interval_rows.tolist(), result.interval_vertices))
    bases = dict(zip(model.simplex_rows.tolist(), result.solutions))
    return tuple(int(result.picks[x] - model.vertex_offsets[x])
                 if isinstance(row, RowPolytopeV)
                 else interval_pattern(row, intervals[x]) if x in intervals
                 else bases[x].basis
                 for x, row in enumerate(model.rows))


def policy_matrix(model: Model, result) -> np.ndarray:
    """The transition matrix of the extreme points ``result`` records,
    rebuilt from its ``choices`` alone: a vertex row's stored vertex, an
    interval row's ``interval_vertex``, another constraint row's basis
    vertex."""
    return np.stack([row.vertices[c] if isinstance(row, RowPolytopeV)
                     else np.array(interval_vertex(row, c), dtype=float)
                     if x in model.interval_rows else vertex_from_basis(row, c)
                     for x, (row, c) in enumerate(zip(model.rows,
                                                      choices(model, result)))])


def nontarget_block(entries: np.ndarray, nontarget: np.ndarray) -> np.ndarray:
    """A fresh copy of the block on the rows and columns ``nontarget`` of the
    matrix ``entries``, or of each matrix of a stack: ``solve_precise``'s
    input, which it overwrites."""
    entries = np.asarray(entries, dtype=float)
    return np.ascontiguousarray(entries[..., nontarget[:, None], nontarget])


def hitting_times(entries: np.ndarray, nontarget: np.ndarray) -> np.ndarray:
    """``solve_precise`` on the non-target block of the matrix ``entries``,
    or of each matrix of a stack, which stays as it is."""
    return solve_precise(nontarget_block(entries, nontarget), nontarget,
                         np.shape(entries)[-1])


@contextmanager
def solver_iterates(method: str) -> Iterator[list[np.ndarray]]:
    """The list of iterates that the ``"policy"`` or ``"value"`` solves run
    in the block compute, in order, read off the solver's own calls.

    Policy iteration's iterates are the hitting times each
    ``solvers.solve_precise`` call returns.  Value iteration's are the
    ``h`` each sweep passes to ``solvers.apply``, from the non-target
    indicator on; the last comes from the call that computes the residual.
    """
    seen: list[np.ndarray] = []
    if method == "policy":
        name, original = "solve_precise", solvers.solve_precise

        def spy(block, nontarget, size):
            seen.append(original(block, nontarget, size))
            return seen[-1]
    else:
        name, original = "apply", solvers.apply

        def spy(model, f, *args, **kwargs):
            seen.append(f)
            return original(model, f, *args, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, name, spy)
        yield seen


def random_vrep_model(rng: np.random.Generator, size_choices=(3, 4, 5),
                      max_vertices: int = 3) -> Model:
    """Random vertex-specified model with a random non-trivial target.

    Resamples until the reachability check passes (flat-Dirichlet rows
    make failures vanishingly rare).
    """
    while True:
        n = int(rng.choice(size_choices))
        rows = tuple(
            RowPolytopeV(rng.dirichlet(np.ones(n),
                                       size=int(rng.integers(1, max_vertices + 1))))
            for _ in range(n))
        target = set(map(int, rng.choice(n, size=int(rng.integers(1, n)),
                                         replace=False)))
        model = Model(StateSpace(tuple(f"s{i}" for i in range(n))),
                      TargetSet(target), rows)
        if model.reachability.holds:
            return model


def random_mixed_model(rng: np.random.Generator, size_choices=(2, 3, 4, 5),
                       coupled: bool = False) -> Model:
    """Random model mixing vertex rows and feasible constraint rows: interval
    rows, or ``coupled_row``s when ``coupled`` (the same draws either way)."""
    n = int(rng.choice(size_choices))
    rows = []
    for _ in range(n):
        if rng.random() < 0.5:
            rows.append(RowPolytopeV(
                rng.dirichlet(np.ones(n), size=int(rng.integers(1, 5)))))
        else:
            center = rng.dirichlet(np.ones(n))
            spread = rng.uniform(0.05, 0.6)
            lower = np.maximum(center - spread, 0.0)
            upper = np.minimum(center + spread, 1.0)
            rows.append((coupled_row if coupled else box_row)(n, lower, upper))
    target = set(map(int, rng.choice(n, size=int(rng.integers(1, n)),
                                     replace=False)))
    return Model(StateSpace(tuple(f"s{i}" for i in range(n))),
                 TargetSet(target), tuple(rows))
