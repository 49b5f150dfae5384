from __future__ import annotations

import numpy as np
import pytest

from imchit import (Constraint, Model, Policy, RowPolytopeH, RowPolytopeV,
                    SelectorOutOfRange, StateSpace, TargetSet,
                    TransitionMatrix, ValidationIssue, load_model,
                    model_from_dict, model_to_dict, policy_to_matrix,
                    save_model, validate)
from imchit.lp import row_feasible
from modelzoo import box_row, precise_model


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


def test_non_stochastic_vertex_is_reported():
    m = Model(StateSpace(("a", "b", "c")), TargetSet({2}),
              (RowPolytopeV(np.array([[0.5, 0.6, 0.0]])),
               RowPolytopeV(np.eye(3)[:1]),
               RowPolytopeV(np.eye(3)[2:])))
    report = validate(m)
    assert not report.ok
    assert [(i.code, i.state) for i in report.issues] == [("NonStochasticVertex", "a")]


def test_non_finite_data_is_reported():
    target_row = RowPolytopeV(np.array([[0.0, 1.0]]))
    states = StateSpace(("a", "b"))
    nan_vertex = RowPolytopeV(np.array([[0.5, 0.5], [np.nan, 1.0]]))
    report = validate(Model(states, TargetSet({1}), (nan_vertex, target_row)))
    assert not report.ok
    assert [(i.code, i.state) for i in report.issues] == [("NonFinite", "a")]
    for a, b in ((np.array([np.nan, 0.0]), 0.5), (np.array([1.0, 0.0]), np.inf),
                 (np.array([-np.inf, 1.0]), 0.2)):
        row = RowPolytopeH(2, (Constraint(np.array([0.0, 1.0]), ">=", 0.1),
                               Constraint(a, "<=", b)))
        report = validate(Model(states, TargetSet({1}), (row, target_row)))
        assert [(i.code, i.state) for i in report.issues] == [("NonFinite", "a")]
        assert "[1]" in report.issues[0].detail


def test_contradictory_bounds_are_infeasible():
    row = RowPolytopeH(2, (Constraint(np.array([1.0, 0.0]), ">=", 0.7),
                           Constraint(np.array([1.0, 0.0]), "<=", 0.2)))
    m = Model(StateSpace(("a", "b")), TargetSet({1}),
              (row, RowPolytopeV(np.array([[0.0, 1.0]]))))
    report = validate(m)
    assert [(i.code, i.state) for i in report.issues] == [("InfeasibleRow", "a")]


def test_empty_and_full_targets_are_reported():
    rows = (RowPolytopeV(np.array([[0.5, 0.5]])),
            RowPolytopeV(np.array([[0.5, 0.5]])))
    states = StateSpace(("a", "b"))
    assert [i.code for i in validate(Model(states, TargetSet(set()), rows)).issues] \
        == ["EmptyTarget"]
    assert [i.code for i in validate(Model(states, TargetSet({0, 1}), rows)).issues] \
        == ["TargetIsWholeSpace"]


def test_model_shape_errors():
    rows = (RowPolytopeV(np.array([[0.5, 0.5]])),)
    with pytest.raises(ValueError):
        Model(StateSpace(("a", "b")), TargetSet({1}), rows)
    with pytest.raises(ValueError):
        Model(StateSpace(("a", "b")), TargetSet({7}), rows * 2)


def test_transition_matrix_checks():
    with pytest.raises(ValueError):
        TransitionMatrix.checked(np.array([[0.5, 0.6], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        TransitionMatrix.checked(np.array([[-0.1, 1.1], [0.0, 1.0]]))
    m = TransitionMatrix.checked(np.array([[0.5, 0.5], [1e-15, 1.0 - 1e-15]]))
    assert m.entries.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)


def test_policy_to_matrix_on_vertex_rows():
    u = np.array([0.3, 0.7, 0.0])
    v = np.array([0.0, 0.2, 0.8])
    m = Model(StateSpace(("a", "b", "c")), TargetSet({2}),
              (RowPolytopeV(np.stack([u, v])),
               RowPolytopeV(np.eye(3)[2:]),
               RowPolytopeV(np.eye(3)[2:])))
    # single-vertex rows leave no choice; the two-vertex row follows the selector
    got = policy_to_matrix(m, Policy((1, 0, 0)))
    assert np.allclose(got.entries[0], v)
    got = policy_to_matrix(m, Policy((0, 0, 0)))
    assert np.allclose(got.entries[0], u)
    with pytest.raises(SelectorOutOfRange):
        policy_to_matrix(m, Policy((2, 0, 0)))
    with pytest.raises(SelectorOutOfRange):
        policy_to_matrix(m, Policy(((0, 1), 0, 0)))


def test_policy_to_matrix_reconstructs_hrep_vertices(rng):
    from imchit import lower_apply

    row = box_row(3, np.array([0.1, 0.0, 0.2]), np.array([0.6, 0.5, 1.0]))
    m = Model(StateSpace(("a", "b", "c")), TargetSet({2}),
              (row, RowPolytopeV(np.eye(3)[2:]), RowPolytopeV(np.eye(3)[2:])))
    assert validate(m).ok
    for _ in range(25):
        f = rng.normal(size=3)
        res = lower_apply(m, f)
        matrix = policy_to_matrix(m, res.policy)
        p = matrix.entries[0]
        # re-check the reconstructed vertex against the constraint list
        assert p.min() >= -1e-9
        assert abs(p.sum() - 1.0) <= 1e-9
        for c in row.constraints:
            value = float(c.a @ p)
            if c.rel == "<=":
                assert value <= c.b + 1e-9
            elif c.rel == ">=":
                assert value >= c.b - 1e-9
            else:
                assert value == pytest.approx(c.b, abs=1e-9)
        assert float(p @ f) == pytest.approx(res.value[0], abs=1e-9)


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
    with pytest.raises(ValueError):
        model_from_dict({"states": ["a", "b"], "target": ["b"]})
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


def test_index_order_follows_file_order():
    doc = {"states": ["zeta", "alpha", "mid"], "target": ["alpha"],
           "rows": {lab: {"vertices": [[0.0, 1.0, 0.0]]}
                    for lab in ("zeta", "alpha", "mid")}}
    m = model_from_dict(doc)
    assert m.states.labels == ("zeta", "alpha", "mid")
    assert m.target_indices.tolist() == [1]


def reference_issues(model: Model) -> list[ValidationIssue]:
    """Row issues found one vertex at a time, as ``validate`` reports them."""
    issues = []
    for x, row in enumerate(model.rows):
        label = model.states.labels[x]
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
                        f"vertex {k} has min {v.min():.3g}, sum {total!r}"))
        elif not row_feasible(row):
            issues.append(ValidationIssue(
                "InfeasibleRow", label, "constraints admit no pmf"))
    return issues


def broken_model(rng) -> Model:
    """Vertex rows scaled off the simplex, with a negative entry, or with a
    NaN or infinite entry, mixed with sound rows and interval rows, some
    of them empty."""
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
    return Model(StateSpace(tuple(f"s{i}" for i in range(n))),
                 TargetSet({0}), tuple(rows))


def test_validate_matches_the_per_vertex_scan(rng):
    flagged = 0
    for _ in range(60):
        m = broken_model(rng)
        issues = validate(m).issues
        assert list(issues) == reference_issues(m)
        flagged += bool(issues)
    assert flagged >= 40
