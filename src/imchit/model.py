"""Domain types for imprecise Markov chain instances.

A model consists of a finite state space, a non-trivial target set of
states, and one credal row polytope per state.  A row polytope is the set
of admissible one-step transition distributions out of that state, given
either by its vertices (a list of probability mass functions) or by linear
constraints on top of the implicit simplex constraints ``p >= 0`` and
``sum(p) == 1``.  Any combination of admissible rows forms an admissible
transition matrix (rows are separately specified).

Row storage is packed once, when it is built: a model stacks the vertices
of its vertex rows into one read-only array, of which each of the model's
own vertex rows is a view (the rows it was given keep their arrays), and
a constraint row keeps its standard form and phase-one outcome
(``RowPolytopeH.lp_start``).  A constraint row whose constraints each
bound one coordinate is an interval row ``lo <= p <= hi``; it keeps its
bounds (``RowPolytopeH.bounds``), and a model stacks them next to the
vertices.  The other constraint rows, which need the simplex, are listed
in ``Model.simplex_rows``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from .errors import InvalidModel

# Row vertices must be pmfs up to this tolerance; stricter than the
# geometric feasibility tolerance because vertices are literal input data.
PMF_TOL = 1e-12
# Feasibility slack for vertices reconstructed by the LP machinery.
FEAS_TOL = 1e-9

Relation = str  # one of "<=", ">=", "="
_RELATIONS = ("<=", ">=", "=")


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    """A read-only view; the array it views, maybe the caller's, stays writeable."""
    a = np.ascontiguousarray(a, dtype=dtype).view()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class StateSpace:
    """Ordered set of state labels; index order is the file order."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ValueError("a state space needs at least two states")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("state labels must be unique")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown state label {label!r}") from None


@dataclass(frozen=True)
class TargetSet:
    """Set of target state indices (the set whose hitting time is sought)."""

    members: frozenset[int]

    def __init__(self, members: Iterable[int]):
        object.__setattr__(self, "members", frozenset(int(i) for i in members))

    def __contains__(self, i: int) -> bool:
        return i in self.members


@dataclass(eq=False)
class RowPolytopeV:
    """Row credal set given by its vertices (one pmf per row of ``vertices``)."""

    vertices: np.ndarray  # shape (k, n)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("vertices must be a non-empty 2-d array")
        self.vertices = _readonly(v)

    @property
    def num_states(self) -> int:
        return self.vertices.shape[1]

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class Constraint:
    """One linear constraint ``a . p (rel) b`` on a transition row."""

    a: np.ndarray
    rel: Relation
    b: float

    def __post_init__(self):
        if self.rel not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}, got {self.rel!r}")
        # a copy, so that the caller's later writes cannot outdate lp_start
        object.__setattr__(self, "a", _readonly(np.array(self.a, dtype=float)))
        object.__setattr__(self, "b", float(self.b))


@dataclass(eq=False)
class RowPolytopeH:
    """Row credal set cut out of the probability simplex by linear constraints.

    The simplex constraints are implicit and always enforced; ``constraints``
    only lists the additional ones.  ``lp_start`` holds the row's standard
    form and phase-one outcome, computed once when the row is built.
    ``bounds`` holds the read-only ``(lo, hi)`` of an interval row, whose
    extreme points have a closed form, and None for a row that needs the
    simplex.
    """

    num_states: int
    constraints: tuple[Constraint, ...]
    lp_start: "lp._RowStart" = field(init=False, repr=False)
    bounds: tuple[np.ndarray, np.ndarray] | None = field(init=False, repr=False)

    def __post_init__(self):
        from . import lp  # deferred: lp imports the row types from here

        self.constraints = tuple(self.constraints)
        for c in self.constraints:
            if c.a.shape != (self.num_states,):
                raise ValueError("constraint coefficient vector has wrong length")
        self.lp_start = lp.row_start(self)
        self.bounds = _interval_bounds(self)


def _interval_bounds(row: RowPolytopeH) -> tuple[np.ndarray, np.ndarray] | None:
    """``(lo, hi)`` when every constraint of ``row`` bounds one coordinate.

    A row that phase one rejected has none: its data may not be finite.  A
    row whose bounds admit a pmf only within phase one's tolerance keeps
    the simplex: the closed form needs ``lo <= hi`` and ``sum(lo) <= 1 <=
    sum(hi)`` exactly.
    """
    if row.lp_start.error is not None:
        return None
    n = row.num_states
    a = np.reshape([c.a for c in row.constraints], (-1, n))
    if (np.count_nonzero(a, axis=1) != 1).any():
        return None
    which = a.nonzero()[1]  # each constraint's coordinate, in constraint order
    coef = a[np.arange(len(which)), which]
    bound = np.array([c.b for c in row.constraints]) / coef
    rel = np.array([c.rel for c in row.constraints], dtype=object)
    # dividing by a negative coefficient flips the relation
    equal, flip = rel == "=", coef < 0.0
    lo, hi = np.zeros(n), np.ones(n)
    below = equal | ((rel == ">=") != flip)
    above = equal | ((rel == "<=") != flip)
    np.maximum.at(lo, which[below], bound[below])
    np.minimum.at(hi, which[above], bound[above])
    if not ((lo <= hi).all() and lo.sum() <= 1.0 <= hi.sum()):
        return None
    return _readonly(lo), _readonly(hi)


Row = Union[RowPolytopeV, RowPolytopeH]


@dataclass(eq=False)
class Model:
    """A valid imprecise Markov chain instance.

    Building one raises ``ValueError`` when the rows or the target do not
    fit the state space, and ``InvalidModel`` when ``validate``, run once
    the arrays are packed, fails.
    The read-only arrays after ``rows`` are computed when it is built.
    Row ``x``'s vertices are ``vertex_stack[o:o + k]`` with ``o =
    vertex_offsets[x]`` and ``k = vertex_counts[x]`` (0 on H-rep rows).
    Row ``interval_rows[i]`` is the interval row ``interval_lo[i] <= p <=
    interval_hi[i]``.  The other H-rep rows, which need the simplex, are
    ``simplex_rows``.
    """

    states: StateSpace
    target: TargetSet
    rows: tuple[Row, ...]
    vertex_stack: np.ndarray = field(init=False, repr=False)
    vertex_offsets: np.ndarray = field(init=False, repr=False)
    vertex_counts: np.ndarray = field(init=False, repr=False)
    interval_rows: np.ndarray = field(init=False, repr=False)
    interval_lo: np.ndarray = field(init=False, repr=False)
    interval_hi: np.ndarray = field(init=False, repr=False)
    simplex_rows: np.ndarray = field(init=False, repr=False)
    target_mask: np.ndarray = field(init=False, repr=False)
    nontarget_indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.states.size
        self.rows = tuple(self.rows)
        if len(self.rows) != n:
            raise ValueError("exactly one row polytope per state is required")
        for i, row in enumerate(self.rows):
            if row.num_states != n:
                raise ValueError(f"row {i} is over {row.num_states} states, expected {n}")
        for i in self.target.members:
            if not 0 <= i < n:
                raise ValueError(f"target index {i} out of range")
        counts = np.array([row.num_vertices if isinstance(row, RowPolytopeV) else 0
                           for row in self.rows])
        offsets = np.cumsum(counts) - counts
        # The model's own vertex rows view its stack; the caller's stay as
        # given.  Made after the stack, their small buffers sat above it in
        # glibc's thread arenas, and run_experiment(n=200, jobs=2) peaked
        # about 15 MB higher (2-vCPU host).
        rows = [RowPolytopeV(row.vertices) if isinstance(row, RowPolytopeV) else row
                for row in self.rows]
        self.vertex_stack = _readonly(np.concatenate(
            [np.empty((0, n))] + [row.vertices for row in self.rows
                                  if isinstance(row, RowPolytopeV)]))
        for row, lo, k in zip(rows, offsets.tolist(), counts.tolist()):
            if k:
                row.vertices = self.vertex_stack[lo:lo + k]
        self.rows = tuple(rows)
        self.vertex_offsets = _readonly(offsets, np.intp)
        self.vertex_counts = _readonly(counts, np.intp)
        constrained = [x for x, row in enumerate(self.rows)
                       if isinstance(row, RowPolytopeH)]
        intervals = [x for x in constrained if self.rows[x].bounds is not None]
        self.interval_rows = _readonly(intervals, np.intp)
        self.simplex_rows = _readonly(
            [x for x in constrained if self.rows[x].bounds is None], np.intp)
        self.interval_lo = _readonly(np.reshape(
            [self.rows[x].bounds[0] for x in intervals], (-1, n)))
        self.interval_hi = _readonly(np.reshape(
            [self.rows[x].bounds[1] for x in intervals], (-1, n)))
        self.target_mask = _readonly(np.isin(range(n), list(self.target.members)), bool)
        self.nontarget_indices = _readonly(np.flatnonzero(~self.target_mask), np.intp)
        report = validate(self)
        if not report.ok:
            raise InvalidModel(report)

    @property
    def size(self) -> int:
        return self.states.size

    @property
    def target_indices(self) -> np.ndarray:
        return np.flatnonzero(self.target_mask)


# A selector is a vertex index for V-rep rows and a sorted tuple of basic
# column indices of the row's standard-form LP for H-rep rows.
Selector = Union[int, tuple[int, ...]]


@dataclass(frozen=True)
class Policy:
    """One extreme-row choice per state; equality is selector-wise."""

    selectors: tuple[Selector, ...]


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    state: str | None
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[ValidationIssue, ...]


def validate(model: Model) -> ValidationReport:
    """Check all model invariants and report per-row diagnostics.

    The model is accepted iff the target is a non-empty strict subset of
    the state space, every row's data are finite, every V-rep vertex is a
    pmf within ``PMF_TOL``, and every H-rep row is feasible.  Building a
    ``Model`` runs this check, so every built model passes it.
    """
    if _passes(model):
        return ValidationReport(ok=True, issues=())
    issues = _issues(model)
    return ValidationReport(ok=not issues, issues=tuple(issues))


# Vertices per block of the row-sum screen.  One stack-long temporary
# (80 KB at n=200) changed how glibc trims ``run_experiment``'s thread
# arenas: three times the page faults of 8 KB blocks, a 6 % longer batch.
_SUM_BLOCK = 1024


def _passes(model: Model) -> bool:
    """Whether ``validate`` accepts ``model``, from two reductions over the
    vertex stack; NaN fails the first comparison, -inf the minimum and
    +inf the sums.  An interval row passed phase one: it has bounds."""
    stack = model.vertex_stack
    return (0 < len(model.target.members) < model.size
            and stack.min(initial=0.0) >= -PMF_TOL
            and all(_sums_near_one(stack[lo:lo + _SUM_BLOCK])
                    for lo in range(0, len(stack), _SUM_BLOCK))
            and all(model.rows[x].lp_start.error is None
                    for x in model.simplex_rows.tolist()))


def _sums_near_one(block: np.ndarray) -> bool:
    """Whether every row of ``block`` sums to 1 within ``PMF_TOL``."""
    sums = block.sum(axis=1)
    sums -= 1.0
    return bool(np.abs(sums, out=sums).max() <= PMF_TOL)


def _issues(model: Model) -> list[ValidationIssue]:
    """Every issue ``validate`` reports, row by row."""
    from . import lp  # deferred: lp only needs the row data structures

    issues: list[ValidationIssue] = []
    n = model.size
    if not model.target.members:
        issues.append(ValidationIssue("EmptyTarget", None, "target set is empty"))
    elif len(model.target.members) >= n:
        issues.append(ValidationIssue(
            "TargetIsWholeSpace", None, "no non-target states remain"))
    stack = model.vertex_stack
    finite = np.isfinite(stack).all(axis=1)
    mins = stack.min(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite vertex
        sums = stack.sum(axis=1)
    off_simplex = (mins < -PMF_TOL) | (np.abs(sums - 1.0) > PMF_TOL)
    for x, row in enumerate(model.rows):
        label = model.states.labels[x]
        if isinstance(row, RowPolytopeV):
            lo = model.vertex_offsets[x]
            block = slice(lo, lo + model.vertex_counts[x])
            if not finite[block].all():
                issues.append(ValidationIssue(
                    "NonFinite", label,
                    f"vertices {np.nonzero(~finite[block])[0].tolist()} are not finite"))
                continue
            for k in np.flatnonzero(off_simplex[block]).tolist():
                issues.append(ValidationIssue(
                    "NonStochasticVertex", label,
                    f"vertex {k} has min {mins[lo + k]:.3g}, sum {sums[lo + k]!r}"))
        else:
            bad = [i for i, c in enumerate(row.constraints)
                   if not (np.isfinite(c.a).all() and np.isfinite(c.b))]
            if bad:
                # a code of its own: the data are bad, not the polytope
                issues.append(ValidationIssue(
                    "NonFinite", label, f"constraints {bad} are not finite"))
            elif not lp.row_feasible(row):
                issues.append(ValidationIssue(
                    "InfeasibleRow", label, "constraints admit no pmf"))
    return issues


# ---------------------------------------------------------------------------
# JSON serialization.  The schema is shared by the CLI and bench modules:
#
#   {"states": ["a", "b", ...],
#    "target": ["b", ...],
#    "rows": {"a": {"vertices": [[...], ...]},
#             "b": {"constraints": [{"a": {"a": 1.0}, "rel": "<=", "b": 0.3}]}}}
# ---------------------------------------------------------------------------

def model_to_dict(model: Model) -> dict:
    labels = model.states.labels
    rows: dict[str, dict] = {}
    for x, row in enumerate(model.rows):
        if isinstance(row, RowPolytopeV):
            rows[labels[x]] = {"vertices": [list(map(float, v)) for v in row.vertices]}
        else:
            cons = []
            for c in row.constraints:
                coef = {labels[y]: float(c.a[y]) for y in range(model.size) if c.a[y] != 0.0}
                cons.append({"a": coef, "rel": c.rel, "b": float(c.b)})
            rows[labels[x]] = {"constraints": cons}
    return {
        "states": list(labels),
        "target": [labels[i] for i in model.target_indices],
        "rows": rows,
    }


def model_from_dict(doc: dict) -> Model:
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    for key, kind, name in (("states", list, "array"), ("target", list, "array"),
                            ("rows", dict, "object")):
        if key not in doc:
            raise ValueError(f"model document is missing {key!r}")
        if not isinstance(doc[key], kind):
            raise ValueError(f"{key!r} must be a JSON {name}")
    states = StateSpace(tuple(str(s) for s in doc["states"]))
    target = TargetSet(states.index(str(s)) for s in doc["target"])
    rows: list[Row] = []
    for label in states.labels:
        if label not in doc["rows"]:
            raise ValueError(f"no row polytope given for state {label!r}")
        try:
            rows.append(_row_from_dict(doc["rows"][label], states))
        except KeyError as exc:
            raise ValueError(
                f"row for state {label!r}: a constraint is missing {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"row for state {label!r}: {exc}") from None
    extra = set(doc["rows"]) - set(states.labels)
    if extra:
        raise ValueError(f"rows given for unknown states: {sorted(extra)}")
    return Model(states, target, tuple(rows))


def _row_from_dict(spec: dict, states: StateSpace) -> Row:
    if not isinstance(spec, dict):
        raise TypeError("a row must be a JSON object")
    if "vertices" in spec:
        return RowPolytopeV(np.asarray(spec["vertices"], dtype=float))
    if "constraints" not in spec:
        raise ValueError("needs 'vertices' or 'constraints'")
    cons = []
    for c in spec["constraints"]:
        if not (isinstance(c, dict) and isinstance(c.get("a"), dict)):
            raise TypeError("a constraint must be a JSON object whose 'a' "
                            "maps state labels to coefficients")
        a = np.zeros(states.size)
        for lab, coef in c["a"].items():
            a[states.index(str(lab))] = float(coef)
        cons.append(Constraint(a, str(c["rel"]), float(c["b"])))
    return RowPolytopeH(states.size, tuple(cons))


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
