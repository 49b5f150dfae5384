from __future__ import annotations

import json

import numpy as np
import pytest

from imchit import (Constraint, ImcError, Infeasible, InvalidModel, Model,
                    RowPolytopeH, RowPolytopeV, StateSpace, TargetSet,
                    ValidationIssue, ValidationReport, apply, load_model,
                    model_from_dict, model_to_dict, random_model, save_model,
                    validate)
from imchit import lp
from imchit.model import _SUM_BLOCK, _interval_bounds
from modelzoo import (box_model, box_row, choices, coupled_row, edge_rows,
                      gambler_model, interval_vertex, isolated_cycle_model,
                      line_model, precise_model, two_choice_model,
                      vertex_from_basis)


def test_statespace_rejects_duplicates_and_singletons():
    with pytest.raises(ValueError):
        StateSpace(("a", "a"))
    with pytest.raises(ValueError):
        StateSpace(("a",))
    s = StateSpace(("x", "y", "z"))
    assert s.size == 3 and s.index("z") == 2
    with pytest.raises(ValueError):
        s.index("nope")


def test_degenerate_precise_chain_is_accepted():
    m = precise_model(np.array([[0.2, 0.3, 0.5],
                                [0.0, 0.5, 0.5],
                                [0.0, 0.0, 1.0]]), {2})
    report = validate(m)
    assert report.ok and report.issues == ()


def test_validation_report_is_ok_iff_it_lists_no_issue():
    issue = ValidationIssue("EmptyTarget", None, "target set is empty")
    assert ValidationReport(()).ok
    assert not ValidationReport((issue,)).ok
    with pytest.raises(TypeError):
        ValidationReport(ok=True, issues=(issue,))


def refused(*args) -> ValidationReport:
    """The report of the ``InvalidModel`` that ``Model(*args)`` raises."""
    with pytest.raises(InvalidModel) as exc:
        Model(*args)
    assert not exc.value.report.ok
    return exc.value.report


def test_non_stochastic_vertex_is_reported():
    report = refused(StateSpace(("a", "b", "c")), TargetSet({2}),
                     (RowPolytopeV(np.array([[0.5, 0.6, 0.0]])),
                      RowPolytopeV(np.eye(3)[:1]),
                      RowPolytopeV(np.eye(3)[2:])))
    assert [(i.code, i.state) for i in report.issues] == [("NonStochasticVertex", "a")]


def test_non_finite_data_is_reported():
    target_row = RowPolytopeV(np.array([[0.0, 1.0]]))
    states = StateSpace(("a", "b"))
    nan_vertex = RowPolytopeV(np.array([[0.5, 0.5], [np.nan, 1.0]]))
    report = refused(states, TargetSet({1}), (nan_vertex, target_row))
    assert [(i.code, i.state) for i in report.issues] == [("NonFinite", "a")]
    for a, b in ((np.array([np.nan, 0.0]), 0.5), (np.array([1.0, 0.0]), np.inf),
                 (np.array([-np.inf, 1.0]), 0.2)):
        row = RowPolytopeH(2, (Constraint(np.array([0.0, 1.0]), ">=", 0.1),
                               Constraint(a, "<=", b)))
        report = refused(states, TargetSet({1}), (row, target_row))
        assert [(i.code, i.state) for i in report.issues] == [("NonFinite", "a")]
        assert "[1]" in report.issues[0].detail


def test_contradictory_bounds_are_infeasible():
    row = RowPolytopeH(2, (Constraint(np.array([1.0, 0.0]), ">=", 0.7),
                           Constraint(np.array([1.0, 0.0]), "<=", 0.2)))
    report = refused(StateSpace(("a", "b")), TargetSet({1}),
                     (row, RowPolytopeV(np.array([[0.0, 1.0]]))))
    assert [(i.code, i.state) for i in report.issues] == [("InfeasibleRow", "a")]


def test_interval_bounds_are_read_off_the_constraints():
    expected = [
        ([0.1, 0.2, 0.0, 0.0, 0.0, 0.05], [0.1, 0.5, 1.0, 1.0, 1.0, 1.0]),
        ([0.0, 0.25, 0.0, 0.0, 0.0, 0.0], [1.0, 0.25, 0.3, 1.0, 1.0, 1.0]),
        ([0.2, 0.25, 0.0, 0.0, 0.0, 0.0], [1.0, 0.25, 1.0, 0.5, 1.0, 1.0]),
        ([0.2, 0.0, 0.0, 0.1, 0.0, 0.0], [0.4, 1.0, 1.0, 1.0, 1.0, 1.0]),
        ([0.0] * 6, [1.0] * 6),
    ]
    m = Model(StateSpace(tuple("abcdef")), TargetSet({5}), tuple(edge_rows()))
    assert m.interval_rows.tolist() == [0, 1, 2, 3, 4]
    assert m.interval_lo.tolist() == [lo for lo, _ in expected]
    assert m.interval_hi.tolist() == [hi for _, hi in expected]
    assert not (m.interval_lo.flags.writeable or m.interval_hi.flags.writeable)
    with pytest.raises(ValueError):
        m.interval_lo[0, 0] = 0.5
    assert m.simplex_rows.tolist() == [5]
    assert len(m.simplex_starts) == 1 and m.simplex_starts[0].row is m.rows[5]


def test_interval_rows_pack_their_caps_and_free_mass():
    models = [box_model(8, 1), box_model(8, 1, coupled=(5, 2)),
              Model(StateSpace(tuple("abcdef")), TargetSet({5}), tuple(edge_rows()))]
    for m in models:
        lo, hi = m.interval_lo, m.interval_hi
        # bit for bit what the closed form computed from the bounds per call
        assert m.interval_caps.tobytes() == (hi - lo).tobytes()
        assert m.interval_left.tobytes() == (1.0 - lo.sum(axis=1)).tobytes()
        assert m.interval_caps.shape == lo.shape
        assert m.interval_left.shape == (len(m.interval_rows),)
        for packed in (m.interval_caps, m.interval_left):
            assert not packed.flags.writeable and packed.flags.c_contiguous
        with pytest.raises(ValueError):
            m.interval_left[0] = 0.5
    m = random_model(5, 3, 1)
    assert m.interval_caps.shape == (0, 5) and m.interval_left.shape == (0,)


def test_simplex_rows_are_the_general_constraint_rows():
    assert box_model(8, 1).simplex_rows.tolist() == []
    assert box_model(8, 1).simplex_starts == ()
    m = box_model(8, 1, coupled=(5, 2))
    assert m.simplex_rows.tolist() == [2, 5]
    assert [start.row for start in m.simplex_starts] == [m.rows[2], m.rows[5]]
    assert m.interval_rows.tolist() == [0, 1, 3, 4, 6, 7]
    assert not m.simplex_rows.flags.writeable


def test_rows_feasible_only_within_tolerance_keep_the_simplex():
    e = np.eye(2)
    # phase one accepts 1e-10 of excess mass; the closed form does not
    near = RowPolytopeH(2, (Constraint(e[0], ">=", 0.5),
                            Constraint(e[1], ">=", 0.5 + 1e-10)))
    m = Model(StateSpace(("a", "b")), TargetSet({1}), (near, RowPolytopeV(e[1:])))
    assert m.interval_rows.size == 0 and m.simplex_rows.tolist() == [0]
    assert m.simplex_starts[0] is not None
    # crossed bounds and non-finite data are phase one's to report
    crossed = RowPolytopeH(2, (Constraint(e[0], ">=", 0.7), Constraint(e[0], "<=", 0.2)))
    nan = RowPolytopeH(2, (Constraint(e[0], "<=", np.nan),))
    for row in (crossed, nan):
        assert _interval_bounds(row) is None
        with pytest.raises(Infeasible):
            lp.row_start(row)


def test_a_subnormal_coefficient_builds_without_overflow():
    # b / 1e-320 overflows to inf; the division must not warn, and the
    # upper bound it gives is clipped to 1
    e = np.eye(2)
    row = RowPolytopeH(2, (Constraint(1e-320 * e[0], "<=", 1.0),))
    m = Model(StateSpace(("a", "b")), TargetSet({1}), (row, RowPolytopeV(e[1:])))
    assert m.interval_rows.tolist() == [0] and m.interval_hi[0, 0] == 1.0
    twin = RowPolytopeH(2, (Constraint(1e-320 * e[0], ">=", 1e-5),))
    report = refused(StateSpace(("a", "b")), TargetSet({1}), (twin, RowPolytopeV(e[1:])))
    assert [(i.code, i.state) for i in report.issues] == [("InfeasibleRow", "a")]


def test_empty_and_full_targets_are_reported():
    rows = (RowPolytopeV(np.array([[0.5, 0.5]])),
            RowPolytopeV(np.array([[0.5, 0.5]])))
    states = StateSpace(("a", "b"))
    assert [i.code for i in refused(states, TargetSet(set()), rows).issues] \
        == ["EmptyTarget"]
    assert [i.code for i in refused(states, TargetSet({0, 1}), rows).issues] \
        == ["TargetIsWholeSpace"]


def test_model_shape_errors():
    rows = (RowPolytopeV(np.array([[0.5, 0.5]])),)
    with pytest.raises(ValueError):
        Model(StateSpace(("a", "b")), TargetSet({1}), rows)
    with pytest.raises(ValueError):
        Model(StateSpace(("a", "b")), TargetSet({7}), rows * 2)
    for vertices in (np.array([0.5, 0.5]), np.empty((0, 2))):
        with pytest.raises(ValueError, match="non-empty 2-d array"):
            RowPolytopeV(vertices)
    with pytest.raises(ValueError, match="relation must be one of"):
        Constraint(np.array([1.0, 0.0]), "<", 0.5)
    with pytest.raises(ValueError, match="wrong length"):
        RowPolytopeH(2, (Constraint(np.ones(3), "<=", 0.5),))
    with pytest.raises(ValueError, match="row 1 is over 3 states, expected 2"):
        Model(StateSpace(("a", "b")), TargetSet({1}),
              rows + (RowPolytopeV(np.array([[0.2, 0.3, 0.5]])),))


def test_policy_to_matrix_on_vertex_rows():
    u = np.array([0.3, 0.7, 0.0])
    v = np.array([0.0, 0.2, 0.8])
    m = Model(StateSpace(("a", "b", "c")), TargetSet({2}),
              (RowPolytopeV(np.stack([u, v])),
               RowPolytopeV(np.eye(3)[2:]),
               RowPolytopeV(np.eye(3)[2:])))
    # single-vertex rows leave no choice; the two-vertex row follows the
    # pick: u . f = 0.7, v . f = 0.2
    f = np.array([0.0, 1.0, 0.0])
    for bound, selected in (("lower", (1, 0, 0)), ("upper", (0, 0, 0))):
        res = apply(m, f, bound)
        assert choices(m, res) == selected
        assert np.array_equal(res.matrix(), np.stack(
            [(u, v)[selected[0]], np.eye(3)[2], np.eye(3)[2]]))


def check_row_vertex(row, p, f, value) -> None:
    """``p`` is a pmf meeting ``row``'s constraints, and ``p . f`` is ``value``."""
    assert p.min() >= -1e-9
    assert abs(p.sum() - 1.0) <= 1e-9
    for c in row.constraints:
        value_c = float(c.a @ p)
        if c.rel == "<=":
            assert value_c <= c.b + 1e-9
        elif c.rel == ">=":
            assert value_c >= c.b - 1e-9
        else:
            assert value_c == pytest.approx(c.b, abs=1e-9)
    assert float(p @ f) == pytest.approx(value, abs=1e-9)


def test_policy_to_matrix_reconstructs_hrep_vertices(rng):
    row = coupled_row(3, np.array([0.1, 0.0, 0.2]), np.array([0.6, 0.5, 1.0]))
    m = Model(StateSpace(("a", "b", "c")), TargetSet({2}),
              (row, RowPolytopeV(np.eye(3)[2:]), RowPolytopeV(np.eye(3)[2:])))
    assert m.simplex_rows.tolist() == [0]
    assert validate(m).ok
    for _ in range(25):
        f = rng.normal(size=3)
        res = apply(m, f, "lower")
        p = res.matrix()[0]
        # the basis names the vertex the simplex returned
        assert np.allclose(vertex_from_basis(row, res.solutions[0].basis), p,
                           atol=1e-9)
        # check the vertex against the constraint list
        check_row_vertex(row, p, f, res.value[0])


def test_policy_to_matrix_reconstructs_interval_vertices(rng):
    row = box_row(3, np.array([0.1, 0.0, 0.2]), np.array([0.6, 0.5, 1.0]))
    m = Model(StateSpace(("a", "b", "c")), TargetSet({2}),
              (row, RowPolytopeV(np.eye(3)[2:]), RowPolytopeV(np.eye(3)[2:])))
    assert validate(m).ok
    for _ in range(25):
        f = rng.normal(size=3)
        for bound in ("lower", "upper"):
            res = apply(m, f, bound)
            p = res.matrix()[0]
            # the pattern of the float vertex names the exact vertex the
            # closed form returned
            exact = np.array(interval_vertex(row, choices(m, res)[0]), dtype=float)
            assert np.max(np.abs(exact - p)) <= 1e-15
            check_row_vertex(row, p, f, res.value[0])


def test_json_round_trip(tmp_path):
    m = Model(StateSpace(("a", "b", "c")), TargetSet({1}),
              (RowPolytopeV(np.array([[0.25, 0.5, 0.25], [1.0, 0.0, 0.0]])),
               box_row(3, np.array([0.0, 0.1, 0.0]), np.array([0.7, 1.0, 0.9])),
               RowPolytopeV(np.array([[0.0, 1.0, 0.0]]))))
    again = model_from_dict(model_to_dict(m))
    assert again.states.labels == m.states.labels
    assert again.target.members == m.target.members
    assert np.array_equal(again.rows[0].vertices, m.rows[0].vertices)
    assert len(again.rows[1].constraints) == len(m.rows[1].constraints)
    for c1, c2 in zip(again.rows[1].constraints, m.rows[1].constraints):
        assert np.array_equal(c1.a, c2.a) and c1.rel == c2.rel and c1.b == c2.b

    path = tmp_path / "model.json"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded.states.labels == m.states.labels
    assert np.array_equal(loaded.rows[0].vertices, m.rows[0].vertices)


def test_parse_errors():
    with pytest.raises(ValueError, match="must be a JSON object"):
        model_from_dict([["a", "b"], ["b"]])
    with pytest.raises(ValueError):
        model_from_dict({"states": ["a", "b"], "target": ["b"]})
    with pytest.raises(ValueError, match=r"unknown states: \['c'\]"):
        model_from_dict({"states": ["a", "b"], "target": ["b"],
                         "rows": {"a": {"vertices": [[1.0, 0.0]]},
                                  "b": {"vertices": [[0.0, 1.0]]},
                                  "c": {"vertices": [[0.0, 1.0]]}}})
    with pytest.raises(ValueError):
        model_from_dict({"states": ["a", "b"], "target": ["b"],
                         "rows": {"a": {"vertices": [[1.0, 0.0]]}}})
    with pytest.raises(ValueError):
        model_from_dict({"states": ["a", "b"], "target": ["zzz"],
                         "rows": {"a": {"vertices": [[1.0, 0.0]]},
                                  "b": {"vertices": [[0.0, 1.0]]}}})
    with pytest.raises(ValueError):
        model_from_dict({"states": ["a", "b"], "target": ["b"],
                         "rows": {"a": {"nonsense": 1},
                                  "b": {"vertices": [[0.0, 1.0]]}}})
    rows = {"a": {"vertices": [[1.0, 0.0]]}, "b": {"vertices": [[0.0, 1.0]]}}
    # a string is not iterated one label per character
    for states, target in ((["a", "b"], "b"), ("ab", ["b"]), ("ab", "b")):
        with pytest.raises(ValueError, match="must be a JSON array"):
            model_from_dict({"states": states, "target": target, "rows": rows})
    with pytest.raises(ValueError, match="must be a JSON object"):
        model_from_dict({"states": ["a", "b"], "target": ["b"],
                         "rows": list(rows.values())})
    fine = {"a": {"b": 1.0}, "rel": "<=", "b": 0.3}
    for spec in ([1.0, 0.0], "vertices",
                 {"constraints": [{"a": {"b": 1.0}, "b": 0.3}]},
                 {"constraints": [{"a": [1.0, 0.0], "rel": "<=", "b": 0.3}]},
                 {"constraints": [fine, {"rel": "<=", "b": 0.3}]},
                 {"constraints": [fine, {"a": {"b": 1.0}, "rel": "<="}]},
                 {"constraints": ["a"]}, {"constraints": 3},
                 {"vertices": {"a": 1.0}},
                 # JSON strings, booleans and nulls are not numbers, even
                 # where numpy or float() would convert them
                 {"vertices": [["0.5", "0.5"]]}, {"vertices": [[False, True]]},
                 {"vertices": [[1, True]]}, {"vertices": [[0.5, None]]},
                 {"constraints": [{"a": {"a": "1"}, "rel": "<=", "b": 0.3}]},
                 {"constraints": [{"a": {"a": 1}, "rel": "<=", "b": "0.3"}]},
                 {"constraints": [{"a": {"a": True}, "rel": "<=", "b": 0.3}]},
                 {"constraints": [{"a": {"a": 1}, "rel": "<=", "b": False}]},
                 # one kind or the other, not both
                 {"vertices": [[0.5, 0.5]], "constraints": [fine]}):
        with pytest.raises(ValueError, match="state 'a'"):
            model_from_dict({"states": ["a", "b"], "target": ["b"],
                             "rows": {"a": spec, "b": rows["b"]}})


def test_target_members_must_be_integers():
    assert TargetSet([np.int64(2), np.uint8(0), 1]).members == {0, 1, 2}
    assert all(type(i) is int for i in TargetSet([np.int64(2)]).members)
    for member in (1.7, 2.0, "1"):
        with pytest.raises(ValueError, match=f"target: {member!r} is not"):
            TargetSet({member})


def test_index_order_follows_file_order():
    doc = {"states": ["zeta", "alpha", "mid"], "target": ["alpha"],
           "rows": {lab: {"vertices": [[0.0, 1.0, 0.0]]}
                    for lab in ("zeta", "alpha", "mid")}}
    m = model_from_dict(doc)
    assert m.states.labels == ("zeta", "alpha", "mid")
    assert np.flatnonzero(m.target_mask).tolist() == [1]


def reference_issues(labels: tuple[str, ...], rows) -> list[ValidationIssue]:
    """Row issues found one vertex at a time, as ``validate`` reports them."""
    issues = []
    for label, row in zip(labels, rows):
        if isinstance(row, RowPolytopeV):
            bad = [k for k, v in enumerate(row.vertices) if not np.isfinite(v).all()]
            if bad:
                issues.append(ValidationIssue(
                    "NonFinite", label, f"vertices {bad} are not finite"))
                continue
            for k, v in enumerate(row.vertices):
                total = v.sum()
                if v.min() < -1e-12 or abs(total - 1.0) > 1e-12:
                    issues.append(ValidationIssue(
                        "NonStochasticVertex", label,
                        f"vertex {k} has min {v.min():.3g}, sum {float(total)!r}"))
        else:
            try:
                lp.row_start(row)
            except Infeasible:
                issues.append(ValidationIssue(
                    "InfeasibleRow", label, "constraints admit no pmf"))
    return issues


def broken_model_args(rng) -> tuple[StateSpace, TargetSet, tuple]:
    """``Model`` arguments whose vertex rows may be scaled off the simplex,
    have a negative entry, or a NaN or infinite entry, mixed with sound
    rows and interval rows, some of them empty."""
    n = int(rng.integers(2, 7))
    rows = []
    for _ in range(n):
        kind = int(rng.integers(0, 5))
        if kind == 4:
            upper = np.full(n, rng.choice([0.1, 1.0]))
            rows.append(box_row(n, np.full(n, 0.01), upper))
            continue
        v = rng.dirichlet(np.ones(n), size=int(rng.integers(1, 5)))
        k = int(rng.integers(0, len(v)))
        if kind == 1:
            v[k] *= 1.1
        elif kind == 2:
            v[k, int(rng.integers(0, n))] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == 3:
            v[k, 0] -= 0.3
            v[k, -1] += 0.3
        rows.append(RowPolytopeV(v))
    return (StateSpace(tuple(f"s{i}" for i in range(n))),
            TargetSet({0}), tuple(rows))


def block_edge_model_args(rng) -> tuple[StateSpace, TargetSet, tuple]:
    """``Model`` arguments whose vertex stack spans more than two blocks of
    the validity scan, with constraint rows, some of them empty, between
    the vertex rows.  Stack vertices 0, B - 1, B and 2B - 1 (B the block
    size) are off the simplex, row s5 has a NaN and the last vertex is
    off the simplex too."""
    n, block = 9, _SUM_BLOCK
    feasible = box_row(n, np.full(n, 0.01), np.ones(n))
    empty = box_row(n, np.full(n, 0.01), np.full(n, 0.1))
    counts = {0: block - 24, 2: 24, 4: block + 76, 5: 100, 8: 89}
    stack = rng.dirichlet(np.ones(n), size=sum(counts.values()))
    stack[0] *= 1.1
    stack[block - 1, 0] -= 0.3
    stack[block - 1, -1] += 0.3
    stack[block] *= 0.9
    stack[2 * block - 1, 3] = -0.25
    stack[2 * block + 76 + 40, 2] = np.nan
    stack[-1] *= 1.0 + 1e-9
    offsets = np.cumsum([0] + list(counts.values()))
    vertex_rows = {x: RowPolytopeV(stack[lo:hi]) for x, lo, hi
                   in zip(counts, offsets[:-1], offsets[1:])}
    rows = [vertex_rows.get(x, empty if x in (3, 6) else feasible) for x in range(n)]
    return (StateSpace(tuple(f"s{i}" for i in range(n))),
            TargetSet({0}), tuple(rows))


def test_validate_matches_the_per_vertex_scan(rng):
    flagged = 0
    draws = [broken_model_args(rng) for _ in range(60)]
    for states, target, rows in draws + [block_edge_model_args(rng)]:
        expected = reference_issues(states.labels, rows)
        try:
            issues = validate(Model(states, target, rows)).issues
        except InvalidModel as exc:
            issues = exc.report.issues
        assert list(issues) == expected
        flagged += bool(issues)
    assert flagged >= 40


def test_rows_leave_the_callers_array_writeable():
    vertices = np.eye(3)
    row = RowPolytopeV(vertices)
    vertices[0, 0] = 2.0
    assert not row.vertices.flags.writeable
    a = np.ones(3)
    constraint = Constraint(a, "<=", 0.5)
    a[0] = 5.0
    assert constraint.a.tolist() == [1.0, 1.0, 1.0]
    assert not constraint.a.flags.writeable


def test_a_read_only_vertex_array_is_kept_as_given():
    vertices = np.eye(3)
    vertices.flags.writeable = False
    assert RowPolytopeV(vertices).vertices is vertices
    # a writeable or non-contiguous array still gets a read-only view
    for given in (np.eye(3), np.eye(4)[:3, :3]):
        row = RowPolytopeV(given)
        assert row.vertices is not given and not row.vertices.flags.writeable


def test_model_ignores_later_writes_to_its_inputs():
    vertices = np.array([[0.5, 0.5], [0.2, 0.8]])
    a = np.array([1.0, 0.0])
    m = Model(StateSpace(("a", "b")), TargetSet({1}),
              (RowPolytopeV(vertices),
               RowPolytopeH(2, (Constraint(a, ">=", 0.25),))))
    stack, row_a = m.vertex_stack.copy(), m.rows[1].constraints[0].a.copy()
    vertices[:] = np.nan
    a[:] = np.nan
    assert np.array_equal(m.vertex_stack, stack)
    assert np.array_equal(m.rows[0].vertices, stack)
    assert np.array_equal(m.rows[1].constraints[0].a, row_a)
    assert validate(m).ok


def motivating_doc() -> dict:
    """``random_model(4, 3, 1)`` with row ``s0`` replaced by one vertex that
    sums to 1.1; unchecked, value iteration and brute force solve it."""
    doc = model_to_dict(random_model(4, 3, 1))
    doc["rows"]["s0"] = {"vertices": [[0.5, 0.2, 0.2, 0.2]]}
    return doc


SOUND_ROWS = {"a": {"vertices": [[0.5, 0.5]]}, "b": {"vertices": [[0.0, 1.0]]}}
INVALID_DOCS = {
    "EmptyTarget": ({"states": ["a", "b"], "target": [], "rows": SOUND_ROWS},
                    [("EmptyTarget", None)]),
    "TargetIsWholeSpace": (
        {"states": ["a", "b"], "target": ["a", "b"], "rows": SOUND_ROWS},
        [("TargetIsWholeSpace", None)]),
    "NonFinite": (
        {"states": ["a", "b", "c"], "target": ["c"],
         "rows": {"a": {"vertices": [[0.5, 0.5, 0.0], [np.nan, 0.5, 0.5]]},
                  "b": {"constraints": [{"a": {"c": 1.0}, "rel": "<=", "b": np.inf}]},
                  "c": {"vertices": [[0.0, 0.0, 1.0]]}}},
        [("NonFinite", "a"), ("NonFinite", "b")]),
    "NonStochasticVertex": (motivating_doc(), [("NonStochasticVertex", "s0")]),
    "InfeasibleRow": (
        {"states": ["a", "b"], "target": ["b"],
         "rows": {"a": {"constraints": [{"a": {"a": 1.0}, "rel": ">=", "b": 0.7},
                                        {"a": {"a": 1.0}, "rel": "<=", "b": 0.2}]},
                  "b": {"vertices": [[0.0, 1.0]]}}},
        [("InfeasibleRow", "a")]),
}


def model_args(doc: dict) -> tuple[StateSpace, TargetSet, tuple]:
    """``Model`` arguments for a model document, built without the parser."""
    states = StateSpace(tuple(doc["states"]))
    rows = []
    for label in states.labels:
        spec = doc["rows"][label]
        if "vertices" in spec:
            rows.append(RowPolytopeV(np.array(spec["vertices"])))
        else:
            rows.append(RowPolytopeH(states.size, tuple(
                Constraint(np.array([c["a"].get(s, 0.0) for s in states.labels]),
                           c["rel"], c["b"])
                for c in spec["constraints"])))
    return states, TargetSet(map(states.index, doc["target"])), tuple(rows)


@pytest.mark.parametrize("code", sorted(INVALID_DOCS))
def test_every_entry_point_refuses_an_invalid_model(tmp_path, code):
    doc, expected = INVALID_DOCS[code]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    reports = [refused(*model_args(doc))]
    for load, source in ((model_from_dict, doc), (load_model, path)):
        with pytest.raises(InvalidModel) as exc:
            load(source)
        reports.append(exc.value.report)
    assert reports[0] == reports[1] == reports[2]
    assert [(i.code, i.state) for i in reports[0].issues] == expected
    assert str(exc.value).startswith(code)
    assert isinstance(exc.value, ImcError)


def test_building_a_model_leaves_the_callers_rows_as_given():
    first = random_model(5, 3, 1)
    second = Model(first.states, first.target, first.rows)
    for mine, theirs in zip(first.rows, second.rows):
        assert np.shares_memory(mine.vertices, first.vertex_stack)
        assert np.shares_memory(theirs.vertices, second.vertex_stack)
    # a refused build keeps no row pointing into its stack
    args = model_args(INVALID_DOCS["NonStochasticVertex"][0])
    given = [row.vertices for row in args[2]]
    refused(*args)
    assert all(row.vertices is v for row, v in zip(args[2], given))


def stacked(model: Model, vertices: np.ndarray | None = None) -> Model:
    """``model``'s vertex rows, rebuilt by the stacked constructor from
    ``vertices`` (a copy of ``model``'s stack by default)."""
    if vertices is None:
        vertices = model.vertex_stack.copy()
    return Model.from_vertex_stack(model.states, model.target, vertices,
                                   model.vertex_counts)


def stack_of(k: int, n: int) -> np.ndarray:
    return np.full((k, n), 1.0 / n)


STACK_ARGUMENTS = {
    "counts_short_of_the_rows": (stack_of(4, 2), [2, 1]),
    "counts_beyond_the_rows": (stack_of(4, 2), [3, 2]),
    "empty_row": (stack_of(3, 2), [0, 3]),
    "negative_count": (stack_of(3, 2), [-1, 4]),
    "count_per_state": (stack_of(3, 2), [1, 1, 1]),
    "fractional_counts": (stack_of(3, 2), [1.5, 1.5]),
    "width": (stack_of(3, 3), [1, 2]),
    "view": (stack_of(4, 2)[1:], [1, 2]),
    "fortran_order": (np.asfortranarray(stack_of(3, 2)), [1, 2]),
    "float32": (stack_of(3, 2).astype(np.float32), [1, 2]),
    "list": (stack_of(3, 2).tolist(), [1, 2]),
}


@pytest.mark.parametrize("case", sorted(STACK_ARGUMENTS))
def test_stacked_constructor_rejects_what_it_cannot_adopt(case):
    vertices, counts = STACK_ARGUMENTS[case]
    with pytest.raises(ValueError):
        Model.from_vertex_stack(StateSpace(("a", "b")), TargetSet({1}),
                                vertices, counts)
    # a refused argument is left as given
    assert not isinstance(vertices, np.ndarray) or vertices.flags.writeable


def test_stacked_constructor_adopts_its_array_read_only():
    vertices = random_model(5, 3, 1).vertex_stack.copy()
    m = stacked(random_model(5, 3, 1), vertices)
    assert m.vertex_stack is vertices
    assert not vertices.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        vertices[0, 0] = 0.5
    rows_built = Model(m.states, m.target, m.rows)
    for x, row in enumerate(m.rows):
        assert isinstance(row, RowPolytopeV)
        assert not row.vertices.flags.writeable
        assert row.vertices.base is vertices
        assert row.num_vertices == m.vertex_counts[x] == 3
        lo = m.vertex_offsets[x]
        assert np.array_equal(row.vertices, vertices[lo:lo + m.vertex_counts[x]])
        assert np.array_equal(row.vertices, rows_built.rows[x].vertices)
    # the rows path adopts its concatenated stack the same way
    assert rows_built.vertex_stack.flags.owndata
    assert not rows_built.vertex_stack.flags.writeable
    for row in rows_built.rows:
        assert row.vertices.base is rows_built.vertex_stack


def test_stacked_constructor_keeps_a_copy_of_the_counts():
    m = random_model(5, 3, 1)
    counts = np.full(5, 3, dtype=np.intp)
    again = Model.from_vertex_stack(m.states, m.target, m.vertex_stack.copy(), counts)
    counts[0] = 1
    assert again.vertex_counts.tolist() == [3] * 5


def test_stacked_constructor_rejects_an_out_of_range_target():
    vertices = stack_of(3, 2)
    with pytest.raises(ValueError, match="target"):
        Model.from_vertex_stack(StateSpace(("a", "b")), TargetSet({2}),
                                vertices, [1, 2])
    assert vertices.flags.writeable


@pytest.mark.parametrize("value, code", [(-0.25, "NonStochasticVertex"),
                                         (np.nan, "NonFinite")])
def test_stacked_model_reports_a_bad_vertex_as_the_rows_path(value, code):
    m = random_model(5, 3, 1)
    vertices = m.vertex_stack.copy()
    vertices[4, 2] = value  # row s1's second vertex
    rows = tuple(RowPolytopeV(vertices[lo:lo + k]) for lo, k
                 in zip(m.vertex_offsets.tolist(), m.vertex_counts.tolist()))
    expected = refused(m.states, m.target, rows)
    with pytest.raises(InvalidModel) as exc:
        stacked(m, vertices)
    assert exc.value.report == expected
    assert [(i.code, i.state) for i in expected.issues] == [(code, "s1")]


@pytest.mark.parametrize("build", [line_model, isolated_cycle_model,
                                   two_choice_model, lambda: gambler_model(5),
                                   lambda: random_model(8, 2, 3)])
def test_stacked_model_reaches_as_the_rows_path(build):
    m = build()
    rows_built = Model(m.states, m.target, m.rows)
    again = stacked(m)
    assert again.reachability.reach_step == rows_built.reachability.reach_step
    for name in ("vertex_stack", "vertex_offsets", "vertex_counts",
                 "target_mask", "nontarget_indices"):
        assert np.array_equal(getattr(again, name), getattr(rows_built, name))
    for x, (mine, theirs) in enumerate(zip(again.rows, rows_built.rows)):
        assert not mine.vertices.flags.writeable
        assert mine.vertices.base is again.vertex_stack
        assert mine.num_vertices == again.vertex_counts[x]
        assert np.array_equal(mine.vertices, theirs.vertices)


def test_stacked_model_round_trips_through_json():
    m = stacked(random_model(6, 3, 2))
    doc = model_to_dict(m)
    again = model_from_dict(json.loads(json.dumps(doc)))
    assert model_to_dict(again) == doc
    assert np.array_equal(again.vertex_stack, m.vertex_stack)
    assert again.reachability.reach_step == m.reachability.reach_step
