"""Exact expected hitting times for precise transition matrices.

With ``T`` row-stochastic and ``A`` the target set, the hitting-time
vector ``h`` is zero on ``A`` and solves ``(I - Q) u = 1`` on the
complement, where ``Q`` is the block of ``T`` on non-target rows and
columns.  The system is uniquely solvable exactly when every state
reaches the target with positive probability under ``T``.

``solve_precise`` is the package's one hitting-time solve: policy
iteration calls it on the block of the matrix each policy selects, and
brute force on stacks of the blocks of vertex combinations.  It takes
``Q`` itself, one block or a stack of them with one target, which the
caller gathers once (``OperatorResult.matrix(states)``), overwrites it
with ``I - Q`` and makes one LAPACK call; the solver that returns an
answer judges its accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem


@dataclass(eq=False)
class HittingTimeVector:
    """Expected steps until the target, per start state; zero on the target."""

    values: np.ndarray


def solve_precise(block: np.ndarray, nontarget: np.ndarray, size: int) -> np.ndarray:
    """Hitting times over ``size`` states of the chain whose block on the
    states ``nontarget`` (an index array of length ``k``) is ``block``, of
    shape ``(k, k)``, or of each chain of a stack of shape ``(..., k, k)``;
    the states outside ``nontarget`` are the target.

    ``block``, a writeable C-contiguous float64 array, is overwritten with
    ``I - block``, rounded as ``np.eye(k) - block`` is.  Returns a
    read-only array of shape ``block.shape[:-2] + (size,)``.  Raises
    ``ValueError`` unless ``0 < k < size`` and ``block`` fits, and
    ``SingularSystem`` when a solve fails or produces non-finite entries
    or entries below 1 on non-target states: the target is unreachable, or
    the system is too ill-conditioned to solve in double precision.
    """
    k = len(nontarget)
    if not 0 < k < size:
        raise ValueError("target must be a non-empty strict subset of the states")
    if block.shape[-2:] != (k, k) or not block.flags.c_contiguous:
        raise ValueError(f"block must be C-contiguous of shape (..., {k}, {k})")
    # 0 - q off the diagonal (a negation would turn 0 into -0) and then
    # 1 + (0 - q) == 1 - q on it: the bits of eye - q, without an identity
    # or a second k x k array
    np.subtract(0.0, block, out=block)
    block.reshape(block.shape[:-2] + (k * k,))[..., ::k + 1] += 1.0
    try:
        u = np.linalg.solve(block, np.ones(block.shape[:-1] + (1,)))[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    if not np.isfinite(u).all() or u.min() < 1.0 - 1e-6:
        raise SingularSystem(
            "solution is not a hitting-time vector; the target is unreachable "
            "or the system too ill-conditioned")
    h = np.zeros(block.shape[:-2] + (size,))
    h[..., nontarget] = u
    h.flags.writeable = False
    return h
