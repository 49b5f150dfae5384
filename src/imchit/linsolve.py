"""Exact expected hitting times for precise transition matrices.

With ``T`` row-stochastic and ``A`` the target set, the hitting-time
vector ``h`` is zero on ``A`` and solves ``(I - T|) u = 1`` on the
complement, where ``T|`` is the submatrix of ``T`` on non-target
coordinates.  The system is uniquely solvable exactly when every state
reaches the target with positive probability under ``T``.

``solve_precise`` is the package's one hitting-time solve: policy
iteration calls it on the matrix each policy selects, and brute force on
stacks of vertex combinations.  It solves one matrix or a stack of them
with one target, and checks every solution it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem

# Accepted residual ``max |1 + Q u - u|`` of a solution ``u``.  As
# ``(I - Q)^-1 >= 0`` has the exact solution as its row sums, the residual
# bounds the relative error of every entry.
RESID_RTOL = 1e-9


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
    ``SingularSystem`` when a solve fails, produces non-finite entries or
    entries below 1 on non-target states, or leaves a residual above
    ``RESID_RTOL``, which would allow a relative error above it; all of
    these signal an unreachable target or severe ill-conditioning.
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
            "solution is not a hitting-time vector; target likely unreachable")
    residual = np.max(np.abs(u - 1.0 - (sub @ u[..., None])[..., 0]), axis=-1)
    excess = residual > RESID_RTOL
    if excess.any():
        i = np.argmax(excess)  # the first failing system, as a flat index
        raise SingularSystem(
            f"residual {residual.flat[i]:.3g} exceeds {RESID_RTOL:.1g}; it bounds "
            f"the relative error of hitting times as large as "
            f"{u.max(axis=-1).flat[i]:.3g}, so the system is too ill-conditioned")
    h = np.zeros(entries.shape[:-1])
    h[..., nontarget] = u
    h.flags.writeable = False
    return h
