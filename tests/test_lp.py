from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from imchit import (Constraint, Infeasible, RowPolytopeH, RowPolytopeV,
                    SelectorOutOfRange, minimize_row, minimize_row_vrep,
                    vertex_from_basis)
from imchit import lp
from imchit.lp import row_feasible
from modelzoo import box_row as interval_row
from modelzoo import interval_minimum

# hand-enumerated vertices of {p in simplex(3) : p0 <= 0.5, p1 <= 0.3}
BOX_VERTICES = np.array([
    [0.5, 0.3, 0.2],
    [0.5, 0.0, 0.5],
    [0.0, 0.3, 0.7],
    [0.0, 0.0, 1.0],
])


def box_row() -> RowPolytopeH:
    return RowPolytopeH(3, (Constraint(np.array([1.0, 0.0, 0.0]), "<=", 0.5),
                            Constraint(np.array([0.0, 1.0, 0.0]), "<=", 0.3)))


def test_bare_simplex_minimum_is_a_point_mass():
    row = RowPolytopeH(4, ())
    f = np.array([3.0, -1.0, 2.0, 0.5])
    sol = minimize_row(row, f)
    assert sol.optimum == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(sol.vertex, [0, 1, 0, 0])


def test_constant_objective_gives_constant_optimum():
    row = box_row()
    sol = minimize_row(row, np.array([0.7, 0.7, 0.7]))
    assert sol.optimum == pytest.approx(0.7, abs=1e-12)
    assert abs(sol.vertex.sum() - 1.0) <= 1e-9


def test_two_vertex_row_from_one_lower_bound():
    # {p : p(0) >= 0.4} over two states has vertices (1,0) and (0.4,0.6)
    row = RowPolytopeH(2, (Constraint(np.array([1.0, 0.0]), ">=", 0.4),))
    sol = minimize_row(row, np.array([0.0, 1.0]))
    assert sol.optimum == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.vertex, [1.0, 0.0])
    sol = minimize_row(row, np.array([1.0, 0.0]))
    assert sol.optimum == pytest.approx(0.4, abs=1e-12)
    assert np.allclose(sol.vertex, [0.4, 0.6])


def test_vrep_single_vertex_and_tie_break():
    v = np.array([[0.2, 0.8]])
    sol = minimize_row_vrep(RowPolytopeV(v), np.array([1.0, 2.0]))
    assert sol.optimum == pytest.approx(1.8) and sol.basis == 0

    ties = RowPolytopeV(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert minimize_row_vrep(ties, np.array([1.0, 3.0])).basis == 0


def test_vrep_matches_exhaustive_scan(rng):
    for _ in range(50):
        vertices = rng.dirichlet(np.ones(4), size=3)
        row = RowPolytopeV(vertices)
        f = rng.normal(size=4)
        sol = minimize_row_vrep(row, f)
        dots = [float(v @ f) for v in vertices]
        assert sol.optimum == pytest.approx(min(dots), abs=1e-12)
        assert sol.basis == int(np.argmin(dots))


def test_hrep_agrees_with_vertex_scan_on_box(rng):
    row = box_row()
    vrow = RowPolytopeV(BOX_VERTICES)
    for _ in range(100):
        f = rng.normal(size=3) * rng.uniform(0.1, 5.0)
        hsol = minimize_row(row, f)
        vsol = minimize_row_vrep(vrow, f)
        assert hsol.optimum == pytest.approx(vsol.optimum, abs=1e-8)
        # optimum never beats any vertex or any feasible mixture of them
        assert all(hsol.optimum <= float(v @ f) + 1e-9 for v in BOX_VERTICES)
        weights = rng.dirichlet(np.ones(len(BOX_VERTICES)))
        assert hsol.optimum <= float((weights @ BOX_VERTICES) @ f) + 1e-9


def test_determinism_of_basis_identifiers(rng):
    row = box_row()
    f = rng.normal(size=3)
    first = minimize_row(row, f)
    for _ in range(5):
        again = minimize_row(row, f)
        assert again.basis == first.basis
        assert np.array_equal(again.vertex, first.vertex)


def test_infeasible_row_raises():
    row = RowPolytopeH(2, (Constraint(np.array([1.0, 0.0]), ">=", 0.7),
                           Constraint(np.array([1.0, 0.0]), "<=", 0.2)))
    # the cached phase-one outcome keeps the row infeasible on every call
    for _ in range(3):
        assert not row_feasible(row)
        with pytest.raises(Infeasible):
            minimize_row(row, np.array([1.0, 0.0]))
    assert row.lp_start.tableau is None
    # mass demands exceeding the simplex are infeasible too
    row = RowPolytopeH(2, (Constraint(np.array([1.0, 0.0]), ">=", 0.7),
                           Constraint(np.array([0.0, 1.0]), ">=", 0.7)))
    assert not row_feasible(row)


def test_equality_constraints_are_supported():
    row = RowPolytopeH(3, (Constraint(np.array([1.0, 0.0, 0.0]), "=", 0.25),))
    sol = minimize_row(row, np.array([0.0, 1.0, 0.0]))
    assert sol.optimum == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.vertex, [0.25, 0.0, 0.75])


def test_redundant_equalities_do_not_break_the_basis():
    # the second equality restates the first; the simplex row makes it
    # rank-deficient but harmless
    row = RowPolytopeH(2, (Constraint(np.array([1.0, 0.0]), "=", 0.5),
                           Constraint(np.array([2.0, 0.0]), "=", 1.0)))
    sol = minimize_row(row, np.array([0.0, 1.0]))
    assert np.allclose(sol.vertex, [0.5, 0.5])
    assert np.allclose(vertex_from_basis(row, sol.basis), sol.vertex, atol=1e-9)


def test_vertex_from_basis_round_trip(rng):
    row = box_row()
    for _ in range(20):
        sol = minimize_row(row, rng.normal(size=3))
        rebuilt = vertex_from_basis(row, sol.basis)
        assert np.allclose(rebuilt, sol.vertex, atol=1e-9)


def test_vertex_from_basis_rejects_garbage():
    row = box_row()
    with pytest.raises(SelectorOutOfRange):
        vertex_from_basis(row, (0, 99))
    with pytest.raises(SelectorOutOfRange):
        vertex_from_basis(row, (0, 0, 1))
    with pytest.raises(SelectorOutOfRange):
        vertex_from_basis(row, (0, 1, 2, 3, 4))  # more columns than rows
    # a basis whose solution violates p >= 0 is refused: p0+s0=0.5 and
    # p1+s1=0.3 with p2 forced by the simplex row
    with pytest.raises(SelectorOutOfRange):
        vertex_from_basis(RowPolytopeH(2, (Constraint(np.array([0.0, 1.0]), ">=", 1.5),)),
                          (0, 1))


def random_interval_rows(rng, count=40):
    """Feasible interval rows ``lower <= p <= upper`` around a random pmf."""
    for _ in range(count):
        n = int(rng.integers(2, 9))
        center = rng.dirichlet(np.ones(n))
        spread = rng.uniform(0.02, 0.5)
        lower = np.maximum(center - spread * rng.random(n), 0.0)
        upper = np.minimum(center + spread * rng.random(n), 1.0)
        yield n, lower, upper


def test_cached_start_gives_the_fresh_answer(rng):
    objectives = [rng.normal(size=3) for _ in range(20)]
    warm = box_row()
    assert row_feasible(warm)
    for _ in range(50):
        minimize_row(warm, rng.normal(size=3))
    for f in objectives:
        fresh = minimize_row(box_row(), f)
        again = minimize_row(warm, f)
        assert np.array_equal(again.vertex, fresh.vertex)
        assert again.basis == fresh.basis
        assert again.optimum == fresh.optimum


def test_cached_start_is_read_only():
    row = box_row()
    minimize_row(row, np.array([1.0, 2.0, 3.0]))
    start = row.lp_start
    with pytest.raises(ValueError):
        lp._pivot(start.tableau, list(start.basis), 0, 0)
    for array in (start.tableau, start.a, start.b):
        with pytest.raises(ValueError):
            array[...] = 0.0
    # phase two pivots on a copy, so the cache is the same object after it
    minimize_row(row, np.array([3.0, 2.0, 1.0]))
    assert row.lp_start is start


def test_non_finite_row_is_never_solved():
    for b in (np.nan, np.inf):
        row = RowPolytopeH(2, (Constraint(np.array([1.0, 0.0]), "<=", b),))
        assert not row_feasible(row)
        with pytest.raises(Infeasible, match="non-finite"):
            minimize_row(row, np.array([1.0, 0.0]))


def test_interval_rows_match_the_closed_form(rng):
    for n, lower, upper in random_interval_rows(rng):
        row = interval_row(n, lower, upper)
        for _ in range(5):
            f = rng.normal(size=n)
            sol = minimize_row(row, f)
            expected = interval_minimum(lower, upper, f)
            assert np.max(np.abs(sol.vertex - expected)) <= 1e-12
            assert sol.optimum == pytest.approx(float(f @ expected), abs=1e-12)


def test_interval_rows_match_highs(rng):
    optimize = pytest.importorskip("scipy.optimize")
    for n, lower, upper in random_interval_rows(rng):
        row = interval_row(n, lower, upper)
        for _ in range(5):
            f = rng.normal(size=n)
            sol = minimize_row(row, f)
            ref = optimize.linprog(f, A_eq=np.ones((1, n)), b_eq=[1.0],
                                   bounds=list(zip(lower, upper)), method="highs")
            assert ref.status == 0
            assert sol.optimum == pytest.approx(ref.fun, abs=1e-9)
            assert np.max(np.abs(sol.vertex - ref.x)) <= 1e-9


def interval_feasible(p, lower, upper) -> bool:
    return (abs(p.sum() - 1.0) <= 1e-9 and (p >= lower - 1e-9).all()
            and (p <= upper + 1e-9).all())


def test_warm_start_matches_the_cold_solve(rng):
    for n, lower, upper in random_interval_rows(rng):
        row = interval_row(n, lower, upper)
        sol = minimize_row(row, rng.normal(size=n))
        # each solve starts from the one before, whatever its objective
        for _ in range(8):
            f = rng.normal(size=n) * rng.choice([-1.0, 1.0])
            warm = minimize_row(row, f, start=sol)
            cold = minimize_row(row, f)
            assert abs(warm.optimum - cold.optimum) <= 1e-12
            assert interval_feasible(warm.vertex, lower, upper)
            assert warm.optimum == pytest.approx(
                float(f @ interval_minimum(lower, upper, f)), abs=1e-12)
            sol = warm


def test_optimal_start_makes_no_pivot(rng, count_calls):
    pivots = count_calls(lp, "_pivot")
    for n, lower, upper in random_interval_rows(rng, count=10):
        row = interval_row(n, lower, upper)
        f = rng.normal(size=n)
        sol = minimize_row(row, f)
        before = len(pivots)
        again = minimize_row(row, f, start=sol)
        assert len(pivots) == before
        assert again.basis == sol.basis and again.basic == sol.basic
        assert np.array_equal(again.vertex, sol.vertex)


def test_start_from_another_row_is_refused():
    row, twin = box_row(), box_row()
    sol = minimize_row(row, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        minimize_row(twin, np.array([1.0, 2.0, 3.0]), start=sol)
    vsol = minimize_row_vrep(RowPolytopeV(BOX_VERTICES), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        minimize_row(row, np.array([1.0, 2.0, 3.0]), start=vsol)


def test_start_tableaux_are_narrow_and_read_only():
    row = box_row()
    sol = minimize_row(row, np.array([1.0, 2.0, 3.0]))
    start = row.lp_start
    # structural columns and the rhs; one row per constraint, the simplex
    # row and the objective row
    assert start.tableau.shape == (len(row.constraints) + 2, start.ncols + 1)
    assert sol.tableau.shape == start.tableau.shape
    assert sol.tableau is not start.tableau
    for tableau in (start.tableau, sol.tableau):
        with pytest.raises(ValueError):
            tableau[0, 0] = 1.0
    # the warm-start state stays out of comparisons and the repr
    assert "tableau" not in repr(sol)
    assert dataclasses.replace(sol, tableau=None, basic=(), row=None) == sol


# The simplex as it was written before its scans and pivots were
# vectorised and its start tableau narrowed: a loop-by-loop reference that
# works on the full tableau, artificial columns included.

def reference_pivot(tab, basis, row, col):
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def reference_bland(tab, basis, allowed):
    m = tab.shape[0] - 1
    while True:
        enter = next((j for j in range(allowed) if tab[-1, j] < -lp.PIVOT_TOL), -1)
        if enter < 0:
            return
        leave, best = -1, np.inf
        for i in range(m):
            aij = tab[i, enter]
            if aij > lp.PIVOT_TOL:
                ratio = tab[i, -1] / aij
                if ratio < best - lp.RATIO_TOL or (
                        abs(ratio - best) <= lp.RATIO_TOL
                        and leave >= 0 and basis[i] < basis[leave]):
                    best, leave = ratio, i
        reference_pivot(tab, basis, leave, enter)


def reference_phase1(a, b, ncols):
    m = a.shape[0]
    tab = np.zeros((m + 1, ncols + m + 1))
    sign = np.where(b < 0.0, -1.0, 1.0)
    tab[:m, :ncols] = a * sign[:, None]
    tab[:m, -1] = b * sign
    tab[np.arange(m), ncols + np.arange(m)] = 1.0
    basis = list(range(ncols, ncols + m))
    tab[-1] = -tab[:m].sum(axis=0)
    tab[-1, ncols:ncols + m] = 0.0
    reference_bland(tab, basis, ncols)
    for i in range(m):
        if basis[i] >= ncols:
            for j in range(ncols):
                if abs(tab[i, j]) > lp.PIVOT_TOL:
                    reference_pivot(tab, basis, i, j)
                    break
    return tab, basis


def reference_phase2(tab, basis, ncols, n, objective):
    tab, basis = tab.copy(), list(basis)
    obj = np.zeros(tab.shape[1])
    obj[:n] = objective
    for i, bv in enumerate(basis):
        if obj[bv] != 0.0:
            obj -= obj[bv] * tab[i]
    tab[-1] = obj
    reference_bland(tab, basis, ncols)
    return tab, basis


def test_simplex_matches_the_loop_reference(rng):
    # same arithmetic, column by column, so equal values (np.array_equal
    # lets a zero's sign differ) and equal bases, cold and warm
    for n, lower, upper in random_interval_rows(rng, count=25):
        row = interval_row(n, lower, upper)
        a, b, ncols = lp.standard_form(row)
        start, start_basis = reference_phase1(a, b, ncols)
        narrow = row.lp_start.tableau
        assert np.array_equal(narrow[:-1, :ncols], start[:-1, :ncols])
        assert np.array_equal(narrow[:-1, -1], start[:-1, -1])
        sol = ref = ref_basis = None
        for _ in range(6):
            f = rng.normal(size=n)
            cold_tab, cold_basis = reference_phase2(start, start_basis, ncols, n, f)
            cold = minimize_row(row, f)
            assert cold.basic == tuple(cold_basis)
            assert np.array_equal(cold.tableau[:, :ncols], cold_tab[:, :ncols])
            assert np.array_equal(cold.tableau[:, -1], cold_tab[:, -1])
            # a chain of warm starts, each from the solution before it
            if sol is None:
                sol, ref, ref_basis = cold, cold_tab, cold_basis
                continue
            ref, ref_basis = reference_phase2(ref, ref_basis, ncols, n, f)
            sol = minimize_row(row, f, start=sol)
            assert sol.basic == tuple(ref_basis)
            assert np.array_equal(sol.tableau[:, :ncols], ref[:, :ncols])
            assert np.array_equal(sol.tableau[:, -1], ref[:, -1])
