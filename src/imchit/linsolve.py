"""Exact expected hitting times for precise transition matrices.

With ``T`` row-stochastic and ``A`` the target set, the hitting-time
vector ``h`` is zero on ``A`` and solves ``(I - T|) u = 1`` on the
complement, where ``T|`` is the submatrix of ``T`` on non-target
coordinates.  The system is uniquely solvable exactly when every state
reaches the target with positive probability under ``T``.  The kernel,
``solve_stack``, solves and checks a stack of systems with one target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem
from .model import TargetSet, TransitionMatrix

# accepted relative residual of the defining fixed-point equation
RESID_RTOL = 1e-9


@dataclass(eq=False)
class HittingTimeVector:
    """Expected steps until the target, per start state; zero on the target."""

    values: np.ndarray


def solve_stack(entries: np.ndarray, nontarget: np.ndarray) -> np.ndarray:
    """Hitting times for each matrix of a stack ``entries`` of shape
    ``(m, n, n)``, with the states outside ``nontarget`` as the target.

    Returns an ``(m, n)`` array.  Raises ``SingularSystem`` when a solve
    fails, produces entries below 1 on non-target states, or leaves a
    residual above ``RESID_RTOL * (1 + sup norm)``; all three signal an
    unreachable target or severe ill-conditioning.
    """
    m, n, _ = entries.shape
    k = nontarget.size
    sub = entries[:, nontarget[:, None], nontarget]
    try:
        u = np.linalg.solve(np.eye(k) - sub, np.ones((m, k, 1)))[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    if not np.isfinite(u).all() or u.min() < 1.0 - 1e-6:
        raise SingularSystem(
            "solution is not a hitting-time vector; target likely unreachable")
    scale = 1.0 + u.max(axis=1)
    residual = np.max(np.abs(u - 1.0 - (sub @ u[..., None])[..., 0]), axis=1)
    bad = np.flatnonzero(residual > RESID_RTOL * scale)
    if bad.size:
        i = bad[0]
        raise SingularSystem(
            f"residual {residual[i]:.3g} exceeds {RESID_RTOL:.1g} * {scale[i]:.3g}")
    h = np.zeros((m, n))
    h[:, nontarget] = u
    return h


def solve_precise(matrix: TransitionMatrix, target: TargetSet) -> HittingTimeVector:
    """Solve the restricted linear system of one matrix (``solve_stack``)."""
    n = matrix.entries.shape[0]
    nontarget = np.array([i for i in range(n) if i not in target.members], dtype=int)
    if nontarget.size == 0 or nontarget.size == n:
        raise ValueError("target must be a non-empty strict subset of the states")
    h = solve_stack(matrix.entries[None], nontarget)[0]
    h.flags.writeable = False
    return HittingTimeVector(h)
