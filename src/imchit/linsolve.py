"""Exact expected hitting times for precise transition matrices.

With ``T`` row-stochastic and ``A`` the target set, the hitting-time
vector ``h`` is zero on ``A`` and solves ``(I - T|) u = 1`` on the
complement, where ``T|`` is the submatrix of ``T`` on non-target
coordinates.  The system is uniquely solvable exactly when every state
reaches the target with positive probability under ``T``.

``solve_precise`` is the package's one hitting-time solve: policy
iteration calls it on the matrix each policy selects, and brute force on
stacks of vertex combinations.  It solves one matrix or a stack of them
with one target; the solver that returns an answer judges its accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem


@dataclass(eq=False)
class HittingTimeVector:
    """Expected steps until the target, per start state; zero on the target."""

    values: np.ndarray


def solve_precise(entries: np.ndarray, nontarget: np.ndarray) -> np.ndarray:
    """Hitting times of the matrix ``entries``, of shape ``(n, n)``, or of
    each matrix of a stack of shape ``(..., n, n)``, with the states
    outside ``nontarget`` (an index array) as the target.

    Returns a read-only array of shape ``entries.shape[:-1]``.  Raises
    ``ValueError`` unless ``0 < len(nontarget) < n``, and
    ``SingularSystem`` when a solve fails or produces non-finite entries
    or entries below 1 on non-target states: the target is unreachable, or
    the system is too ill-conditioned to solve in double precision.
    """
    k = len(nontarget)
    if not 0 < k < entries.shape[-1]:
        raise ValueError("target must be a non-empty strict subset of the states")
    sub = entries[..., nontarget[:, None], nontarget]
    try:
        u = np.linalg.solve(np.eye(k) - sub, np.ones(sub.shape[:-1] + (1,)))[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    if not np.isfinite(u).all() or u.min() < 1.0 - 1e-6:
        raise SingularSystem(
            "solution is not a hitting-time vector; the target is unreachable "
            "or the system too ill-conditioned")
    h = np.zeros(entries.shape[:-1])
    h[..., nontarget] = u
    h.flags.writeable = False
    return h
