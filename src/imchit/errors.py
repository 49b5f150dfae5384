"""Exception types shared across the package."""

from __future__ import annotations


class ImcError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidModel(ImcError):
    """A model failed validation when it was built; ``report`` is the
    ``ValidationReport`` listing every issue found."""

    def __init__(self, report):
        self.report = report
        super().__init__("; ".join(
            f"{i.code}{f' [{i.state}]' if i.state else ''}: {i.detail}"
            for i in report.issues))


class Infeasible(ImcError):
    """Phase one of the simplex method found no feasible point."""


class SingularSystem(ImcError):
    """Hitting times could not be solved, or not to the accuracy a solver
    vouches for: the target is unreachable under a selected transition
    matrix, or the system is too ill-conditioned."""


class ReachabilityViolation(ImcError):
    """The model fails the reachability check required by the solvers."""

    def __init__(self, violating: tuple[str, ...]):
        self.violating = violating
        super().__init__(
            "target not reachable with positive lower probability from: "
            + ", ".join(violating))


class MaxIterationsExceeded(ImcError):
    """An iterative solver hit its safety cap before converging."""

    def __init__(self, message: str, trace=None):
        self.trace = trace
        super().__init__(message)


class TooManyCombinations(ImcError):
    """Brute-force enumeration would exceed its cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(
            f"{count} extreme-matrix combinations exceed the cap of {cap}")
