"""Domain types for imprecise Markov chain instances.

A model consists of a finite state space, a non-trivial target set of
states, and one credal row polytope per state.  A row polytope is the set
of admissible one-step transition distributions out of that state, given
either by its vertices (a list of probability mass functions) or by linear
constraints on top of the implicit simplex constraints ``p >= 0`` and
``sum(p) == 1``.  Any combination of admissible rows forms an admissible
transition matrix (rows are separately specified).

Row storage is packed once, when it is built: a model keeps the vertices
of its vertex rows in one read-only array, of which each of the model's
own vertex rows is a view.  ``Model(states, target, rows)`` concatenates
the rows it is given into a new array (those rows keep their arrays);
``Model.from_vertex_stack`` adopts an array the caller has already
stacked, without a copy, and both then run the same build, which also
packs the padded index grid of the vertex rows that the operators'
``argmin`` reads.  Constraint
rows are plain input data, and the build decides each one's kind once.
A row whose finite constraints each bound one coordinate, and whose
bounds admit a pmf exactly, is an interval row ``lo <= p <= hi``: the
model stacks its bounds next to the vertices, with each row's caps
``hi - lo`` and free mass ``1 - sum(lo)``, which the operators' closed
form reads instead of the simplex.  The other constraint rows need the
simplex; the model lists them in ``Model.simplex_rows`` and keeps the
phase-one start of each in ``Model.simplex_starts``.

A model is checked once, when it is built: ``validate`` scans the vertex
stack block by block and then looks only at the vertex rows with a bad
vertex and the simplex rows that phase one rejected.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from .errors import Infeasible, InvalidModel

# Row vertices must be pmfs up to this tolerance; stricter than the
# simplex's lp.FEAS_TOL because vertices are literal input data.
PMF_TOL = 1e-12

Relation = str  # one of "<=", ">=", "="
_RELATIONS = ("<=", ">=", "=")


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    """``a`` itself if it is a read-only C-contiguous array of ``dtype``, else
    a read-only view; the array it views, maybe the caller's, stays writeable."""
    a = np.ascontiguousarray(a, dtype=dtype)
    if a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


def _integer(name: str, value) -> int:
    """``value`` as an int if it is an integer (a Python or numpy one)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}: {value!r} is not an integer") from None


def _number(value) -> float:
    """A JSON number as a float; ``float`` alone would take "0.5" and true."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


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
        object.__setattr__(self, "members",
                           frozenset(_integer("target", i) for i in members))


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


@dataclass(frozen=True, eq=False)
class Constraint:
    """One linear constraint ``a . p (rel) b`` on a transition row; it
    compares and hashes by identity."""

    a: np.ndarray
    rel: Relation
    b: float

    def __post_init__(self):
        if self.rel not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}, got {self.rel!r}")
        # a copy, so that the caller's later writes cannot outdate a model
        object.__setattr__(self, "a", _readonly(np.array(self.a, dtype=float)))
        object.__setattr__(self, "b", float(self.b))


@dataclass(eq=False)
class RowPolytopeH:
    """Row credal set cut out of the probability simplex by linear constraints.

    The simplex constraints are implicit and always enforced; ``constraints``
    only lists the additional ones.
    """

    num_states: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        self.constraints = tuple(self.constraints)
        for c in self.constraints:
            if c.a.shape != (self.num_states,):
                raise ValueError("constraint coefficient vector has wrong length")


def _interval_bounds(row: RowPolytopeH) -> tuple[np.ndarray, np.ndarray] | None:
    """``(lo, hi)`` when every constraint of ``row`` bounds one coordinate.

    The closed form needs finite data, ``lo <= hi`` and ``sum(lo) <= 1 <=
    sum(hi)`` exactly; any other row, even one whose bounds admit a pmf
    only within phase one's tolerance, keeps the simplex.
    """
    n = row.num_states
    a = np.reshape([c.a for c in row.constraints], (-1, n))
    b = np.array([c.b for c in row.constraints])
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return None
    if (np.count_nonzero(a, axis=1) != 1).any():
        return None
    which = a.nonzero()[1]  # each constraint's coordinate, in constraint order
    coef = a[np.arange(len(which)), which]
    # b over a tiny coefficient may overflow to +-inf: a bound that the
    # clip to [0, 1] absorbs or the check below rejects
    with np.errstate(over="ignore"):
        bound = b / coef
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
    return lo, hi


Row = Union[RowPolytopeV, RowPolytopeH]


@dataclass(eq=False)
class Model:
    """A valid imprecise Markov chain instance.

    Building one raises ``ValueError`` when the rows or the target do not
    fit the state space, and ``InvalidModel`` when ``validate``, run once
    the arrays are packed, fails.  A valid model then runs
    ``check_reachability`` once and keeps its report as ``reachability``;
    a model that fails that check still builds, and the solvers refuse it.
    The read-only arrays after ``rows`` are computed when it is built;
    ``from_vertex_stack`` builds a model of vertex rows from their stack.
    Row ``x``'s vertices are ``vertex_stack[o:o + k]`` with ``o =
    vertex_offsets[x]`` and ``k = vertex_counts[x]`` (0 on H-rep rows).
    ``vertex_grid[i]`` holds the stack indices of row ``vertex_rows[i]``'s
    vertices, padded to the longest row with ``len(vertex_stack)``.
    Row ``interval_rows[i]`` is the interval row ``interval_lo[i] <= p <=
    interval_hi[i]``; the closed form reads its caps ``interval_caps[i] =
    interval_hi[i] - interval_lo[i]`` and its free mass ``interval_left[i]
    = 1 - sum(interval_lo[i])``, packed with the bounds.  The other H-rep
    rows, which need the simplex, are ``simplex_rows``, and
    ``simplex_starts[i]`` is row ``simplex_rows[i]``'s phase-one start
    (``lp.row_start``), or None where phase one rejected the row, which
    makes the model invalid.
    """

    states: StateSpace
    target: TargetSet
    rows: tuple[Row, ...]
    vertex_stack: np.ndarray = field(init=False, repr=False)
    vertex_offsets: np.ndarray = field(init=False, repr=False)
    vertex_counts: np.ndarray = field(init=False, repr=False)
    vertex_rows: np.ndarray = field(init=False, repr=False)
    vertex_grid: np.ndarray = field(init=False, repr=False)
    interval_rows: np.ndarray = field(init=False, repr=False)
    interval_lo: np.ndarray = field(init=False, repr=False)
    interval_hi: np.ndarray = field(init=False, repr=False)
    interval_caps: np.ndarray = field(init=False, repr=False)
    interval_left: np.ndarray = field(init=False, repr=False)
    simplex_rows: np.ndarray = field(init=False, repr=False)
    simplex_starts: tuple["lp.LpSolution | None", ...] = field(init=False, repr=False)
    target_mask: np.ndarray = field(init=False, repr=False)
    nontarget_indices: np.ndarray = field(init=False, repr=False)
    reachability: "reachability.ReachabilityReport" = field(init=False, repr=False)

    def __post_init__(self):
        n = self.states.size
        self.rows = tuple(self.rows)
        if len(self.rows) != n:
            raise ValueError("exactly one row polytope per state is required")
        for i, row in enumerate(self.rows):
            if row.num_states != n:
                raise ValueError(f"row {i} is over {row.num_states} states, expected {n}")
        counts = np.array([row.num_vertices if isinstance(row, RowPolytopeV) else 0
                           for row in self.rows])
        # the model's own vertex rows view its stack; the caller's stay as given
        self._pack(self.rows, np.concatenate(
            [np.empty((0, n))] + [row.vertices for row in self.rows
                                  if isinstance(row, RowPolytopeV)]), counts)

    @classmethod
    def from_vertex_stack(cls, states: StateSpace, target: TargetSet,
                          vertices: np.ndarray, counts) -> Model:
        """A model of vertex rows only, which adopts ``vertices`` as its stack.

        ``vertices`` is a float64 ``(sum(counts), n)`` array that owns its
        data and is C-contiguous; row ``x``'s vertices are the next
        ``counts[x]`` (at least 1) of its rows.  The array is not copied:
        the model makes the array itself read-only, so that no caller keeps
        a writeable alias of the checked data, and views it from each row.
        An argument it cannot adopt raises ``ValueError`` and is left as
        given; after that the build, checks included, is ``Model``'s, and
        an ``InvalidModel`` leaves the array read-only.
        """
        n = states.size
        counts = np.array(counts)  # a copy: the model keeps it
        if not (isinstance(vertices, np.ndarray) and vertices.dtype == np.float64
                and vertices.ndim == 2 and vertices.shape[1] == n):
            raise ValueError(f"vertices must be a 2-d float64 array of width {n}")
        if not (vertices.flags.owndata and vertices.flags.c_contiguous):
            raise ValueError("vertices must own their data and be C-contiguous")
        if counts.shape != (n,) or counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be {n} integers, one per state")
        if counts.min() < 1:
            raise ValueError("every row needs at least one vertex")
        if counts.sum() != len(vertices):
            raise ValueError(f"counts sum to {counts.sum()}, "
                             f"but there are {len(vertices)} vertices")
        model = cls.__new__(cls)
        model.states, model.target = states, target
        model._pack([None] * n, vertices, counts)
        return model

    def _pack(self, rows: Iterable[Row | None], stack: np.ndarray,
              counts: np.ndarray) -> None:
        """Adopt ``stack``, which owns its data and holds ``counts[x]``
        vertices for each row ``x`` in row order, as the model's read-only
        vertex stack; view it from a new vertex row for each ``x`` with
        vertices, keep ``rows[x]`` for the others, pack those, and check."""
        n = self.states.size
        for i in self.target.members:
            if not 0 <= i < n:
                raise ValueError(f"target index {i} out of range")
        offsets = np.cumsum(counts) - counts
        # read-only first, so that each row's slice is its view as it is
        stack.flags.writeable = False
        self.vertex_stack = stack
        self.rows = tuple(RowPolytopeV(stack[lo:lo + k]) if k else row
                          for row, lo, k in zip(rows, offsets.tolist(), counts.tolist()))
        self.vertex_offsets = _readonly(offsets, np.intp)
        self.vertex_counts = _readonly(counts, np.intp)
        self.vertex_rows = _readonly(np.flatnonzero(counts), np.intp)
        listed, width = self.vertex_rows[:, None], np.arange(counts.max())
        # a short row's padding points one past the stack, where the
        # operator keeps +inf
        self.vertex_grid = _readonly(np.where(
            width < counts[listed], offsets[listed] + width, len(stack)), np.intp)
        from . import lp  # deferred: lp imports the row types from here
        intervals, bounds, simplex, starts = [], [], [], []
        for x, row in enumerate(self.rows):
            if isinstance(row, RowPolytopeV):
                continue
            interval = _interval_bounds(row)
            if interval is not None:
                intervals.append(x)
                bounds.append(interval)
                continue
            simplex.append(x)
            try:
                starts.append(lp.row_start(row))
            except Infeasible:
                starts.append(None)
        self.interval_rows = _readonly(intervals, np.intp)
        self.interval_lo = _readonly(np.reshape([lo for lo, _ in bounds], (-1, n)))
        self.interval_hi = _readonly(np.reshape([hi for _, hi in bounds], (-1, n)))
        self.interval_caps = _readonly(self.interval_hi - self.interval_lo)
        self.interval_left = _readonly(1.0 - self.interval_lo.sum(axis=1))
        self.simplex_rows = _readonly(simplex, np.intp)
        self.simplex_starts = tuple(starts)
        self.target_mask = _readonly(np.isin(range(n), list(self.target.members)), bool)
        self.nontarget_indices = _readonly(np.flatnonzero(~self.target_mask), np.intp)
        report = validate(self)
        if not report.ok:
            raise InvalidModel(report)
        from . import reachability  # deferred: reachability imports Model from here
        self.reachability = reachability.check_reachability(self)

    @property
    def size(self) -> int:
        return self.states.size


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    state: str | None
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """Every issue ``validate`` found; the model is valid iff there is none."""

    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def validate(model: Model) -> ValidationReport:
    """Check all model invariants and report per-row diagnostics.

    The model is accepted iff the target is a non-empty strict subset of
    the state space, every row's data are finite, every V-rep vertex is a
    pmf within ``PMF_TOL``, and every H-rep row is feasible.  Building a
    ``Model`` runs this check, so every built model passes it, and a
    failed build's ``InvalidModel`` carries the report.  The check is one
    scan of the vertex stack, which then looks only at the rows that fail.
    """
    return ValidationReport(tuple(_issues(model)))


# Vertices per block of the stack scan.  One stack-long temporary (80 KB
# at n=200) changed how glibc trims ``run_experiment``'s thread arenas:
# three times the page faults of 8 KB blocks, a 6 % longer batch.
_SUM_BLOCK = 1024


def _issues(model: Model) -> list[ValidationIssue]:
    """Every issue ``validate`` reports, in row order.

    A block of the vertex stack passes on two reductions, its minimum and
    its rows' distances from sum 1; NaN fails both comparisons, -inf the
    minimum and +inf the sums.  Only a failing block is searched for its
    bad vertices.  Non-finite constraint data always fail phase one.
    """
    issues: list[ValidationIssue] = []
    if not model.target.members:
        issues.append(ValidationIssue("EmptyTarget", None, "target set is empty"))
    elif len(model.target.members) >= model.size:
        issues.append(ValidationIssue(
            "TargetIsWholeSpace", None, "no non-target states remain"))
    stack = model.vertex_stack
    flagged: list[int] = []
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite vertex
        for lo in range(0, len(stack), _SUM_BLOCK):
            block = stack[lo:lo + _SUM_BLOCK]
            dev = block.sum(axis=1)
            dev -= 1.0
            np.abs(dev, out=dev)
            if not (block.min() >= -PMF_TOL and dev.max() <= PMF_TOL):
                fits = (block.min(axis=1) >= -PMF_TOL) & (dev <= PMF_TOL)
                flagged.extend((lo + np.flatnonzero(~fits)).tolist())
    bad_rows: dict[int, list[int]] = {
        x: [] for x, start in zip(model.simplex_rows.tolist(), model.simplex_starts)
        if start is None}
    # a constraint row shares its offset with the next vertex row
    owners = np.searchsorted(model.vertex_offsets, flagged, side="right") - 1
    for x, k in zip(owners.tolist(), flagged):
        bad_rows.setdefault(x, []).append(k)
    for x in sorted(bad_rows):
        row, label = model.rows[x], model.states.labels[x]
        if isinstance(row, RowPolytopeH):
            bad = [i for i, c in enumerate(row.constraints)
                   if not (np.isfinite(c.a).all() and np.isfinite(c.b))]
            if bad:
                # a code of its own: the data are bad, not the polytope
                issues.append(ValidationIssue(
                    "NonFinite", label, f"constraints {bad} are not finite"))
            else:
                issues.append(ValidationIssue(
                    "InfeasibleRow", label, "constraints admit no pmf"))
            continue
        vertices = stack[bad_rows[x]]
        ks = np.array(bad_rows[x]) - model.vertex_offsets[x]
        finite = np.isfinite(vertices).all(axis=1)
        if not finite.all():
            issues.append(ValidationIssue(
                "NonFinite", label, f"vertices {ks[~finite].tolist()} are not finite"))
            continue
        for k, low, total in zip(ks.tolist(), vertices.min(axis=1).tolist(),
                                 vertices.sum(axis=1).tolist()):
            issues.append(ValidationIssue(
                "NonStochasticVertex", label,
                f"vertex {k} has min {low:.3g}, sum {total!r}"))
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
        "target": [labels[i] for i in np.flatnonzero(model.target_mask)],
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
    if ("vertices" in spec) == ("constraints" in spec):
        raise ValueError("needs exactly one of 'vertices' and 'constraints'")
    if "vertices" in spec:
        return RowPolytopeV(np.array([[_number(p) for p in vertex]
                                      for vertex in spec["vertices"]]))
    cons = []
    for c in spec["constraints"]:
        if not (isinstance(c, dict) and isinstance(c.get("a"), dict)):
            raise TypeError("a constraint must be a JSON object whose 'a' "
                            "maps state labels to coefficients")
        a = np.zeros(states.size)
        for lab, coef in c["a"].items():
            a[states.index(str(lab))] = _number(coef)
        cons.append(Constraint(a, str(c["rel"]), _number(c["b"])))
    return RowPolytopeH(states.size, tuple(cons))


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
