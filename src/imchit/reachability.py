"""Check that the target is reachable with positive lower probability.

The check grows an absorbed set, starting from the target, by adding
every state whose entire row polytope puts positive mass on the current
set.  The fixed point is reached within ``|X|`` rounds; the model passes
iff the fixed point is the whole state space.

Building a ``Model`` runs the check once, after validation, and keeps the
report as ``Model.reachability``; the solvers and ``imchit reach`` read
that report rather than running the check again.  The solvers refuse a
model that fails it, which guarantees that the restricted hitting-time
system is uniquely solvable for every admissible transition matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Model
from .transition import apply

# LP round-off must not fabricate reachability, so "positive" means
# exceeding this threshold.
EPS_REACH = 1e-12


@dataclass(frozen=True)
class ReachabilityReport:
    """Outcome of the reachability check.

    ``reach_step[x]`` is the round at which state ``x`` was absorbed
    (0 for target states) and ``None`` for a violating state, one never
    absorbed; the check ``holds`` iff there is none.
    """

    reach_step: tuple[int | None, ...]

    @property
    def violating(self) -> frozenset[int]:
        return frozenset(x for x, step in enumerate(self.reach_step) if step is None)

    @property
    def holds(self) -> bool:
        return None not in self.reach_step


def check_reachability(model: Model) -> ReachabilityReport:
    absorbed = model.target_mask.copy()
    steps: list[int | None] = [0 if absorbed[x] else None for x in range(model.size)]
    for round_no in range(1, model.size + 1):
        value = apply(model, absorbed.astype(float), "lower").value
        fresh = ~absorbed & (value > EPS_REACH)
        if not fresh.any():
            break
        for x in np.nonzero(fresh)[0]:
            steps[x] = round_no
        absorbed |= fresh
        if absorbed.all():
            break
    return ReachabilityReport(tuple(steps))
