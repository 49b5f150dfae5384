"""Seeded workload inputs and package-independent oracles.

Nothing in this file imports ``imchit``.  The arrays a workload hands to the
program, and the checks its answers must pass, are plain numpy and
``fractions`` code, so an edit to the package can change neither.  The
V-rep rows use the same flat-Dirichlet recipe as ``imchit.random_model``
(normalised i.i.d. unit exponentials, last state as the singleton target)
without calling it.  A ``seed`` is anything ``numpy.random.default_rng``
takes, such as an int or a tuple of ints.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Accepted sup-norm defect of an answer in the hitting-time fixed point,
# relative to 1 + max h.  An exact fixed point computed by an LU solve
# meets it by orders of magnitude; a wrong policy misses it by O(1).
FIXED_POINT_RTOL = 1e-9

# Chain probabilities are multiples of 2**-20, so that q and 1 - q are
# both exact doubles and the exact recurrence sees the model's numbers.
_DYADIC = 2 ** 20


def flat_dirichlet(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    draws = rng.exponential(1.0, size=(rows, n))
    draws /= draws.sum(axis=1, keepdims=True)
    return draws


def vrep_vertices(seed, n: int, k: int) -> np.ndarray:
    """Array of shape (n, k, n): k flat-Dirichlet vertices per row."""
    rng = np.random.default_rng(seed)
    return flat_dirichlet(rng, n * k, n).reshape(n, k, n)


def chain_drifts(seed, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-state probabilities of a step toward state 0, for two vertices.

    Entry ``i`` belongs to state ``i``; entry 0 (the target) is unused.
    The slow vertex moves toward the target with probability about 0.6,
    the fast one with about 0.9, each jittered by the seed.
    """
    rng = np.random.default_rng(seed)
    slow = np.round((0.6 + rng.uniform(-0.02, 0.02, n)) * _DYADIC) / _DYADIC
    fast = np.round((0.9 + rng.uniform(-0.02, 0.02, n)) * _DYADIC) / _DYADIC
    return slow, fast


def chain_row(n: int, i: int, toward: float) -> np.ndarray:
    """Birth-death row of state ``i`` over ``n`` states; the top reflects."""
    p = np.zeros(n)
    p[i - 1] = toward
    p[min(i + 1, n - 1)] += 1.0 - toward
    return p


def chain_exact(toward: np.ndarray) -> np.ndarray:
    """Exact hitting times of state 0 for the chain with these drifts.

    With d_i = h_i - h_{i-1}, the top state gives d_{n-1} = 1/q and an
    interior state gives d_i = (1 + (1 - q_i) d_{i+1}) / q_i.  Every d_i is
    positive, so h increases in i; the lower bound therefore takes the
    fast vertex in every row and the upper bound the slow one.
    """
    n = toward.size
    d = [Fraction(0)] * n
    q = Fraction(float(toward[n - 1]))
    d[n - 1] = 1 / q
    for i in range(n - 2, 0, -1):
        q = Fraction(float(toward[i]))
        d[i] = (1 + (1 - q) * d[i + 1]) / q
    h = np.zeros(n)
    total = Fraction(0)
    for i in range(1, n):
        total += d[i]
        h[i] = float(total)
    return h


def box_bounds(seed, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Interval rows ``lo <= p <= hi`` at +-50 % around Dirichlet centres."""
    centre = flat_dirichlet(np.random.default_rng(seed), n, n)
    return 0.5 * centre, np.minimum(1.5 * centre, 1.0)


def interval_extreme(lo: np.ndarray, hi: np.ndarray, h: np.ndarray,
                     bound: str) -> np.ndarray:
    """Row-wise min (lower) or max (upper) of p . h over interval rows.

    Closed form: start every row at ``lo`` and hand the remaining mass to
    the coordinates in order of increasing (lower) or decreasing (upper)
    h, each up to its cap ``hi - lo``.
    """
    order = np.argsort(h, kind="stable")
    if bound == "upper":
        order = order[::-1]
    caps = (hi - lo)[:, order]
    left = 1.0 - lo.sum(axis=1)
    before = np.cumsum(caps, axis=1) - caps
    fill = np.clip(left[:, None] - before, 0.0, caps)
    return lo @ h + fill @ h[order]


def vertex_extreme(vertices: np.ndarray, h: np.ndarray, bound: str) -> np.ndarray:
    """Row-wise min (lower) or max (upper) of p . h by a vertex scan."""
    n, k, _ = vertices.shape
    dots = (vertices.reshape(n * k, n) @ h).reshape(n, k)
    return dots.min(axis=1) if bound == "lower" else dots.max(axis=1)


def fixed_point_defect(h: np.ndarray, extreme: np.ndarray,
                       target: np.ndarray) -> str | None:
    """Why ``h`` is not the hitting-time fixed point, or None if it is.

    ``extreme`` is the row-wise operator value at ``h``; ``target`` a
    boolean mask.
    """
    if h.shape != extreme.shape or not np.isfinite(h).all():
        return "answer has the wrong shape or non-finite entries"
    if (h[target] != 0.0).any():
        return "answer is non-zero on the target"
    if (h[~target] < 1.0).any():
        return "answer is below 1 off the target"
    defect = float(np.max(np.abs(h - np.where(target, 0.0, 1.0 + extreme))))
    limit = FIXED_POINT_RTOL * (1.0 + float(np.max(h)))
    if defect > limit:
        return f"fixed-point defect {defect:.3g} exceeds {limit:.3g}"
    return None


def ordered_defect(lower: np.ndarray, upper: np.ndarray) -> str | None:
    """Why the pair violates lower <= upper, or None if it holds."""
    slack = FIXED_POINT_RTOL * (1.0 + float(np.max(upper)))
    if (lower > upper + slack).any():
        return "lower bound exceeds upper bound"
    return None


def close_defect(h: np.ndarray, exact: np.ndarray) -> str | None:
    """Why ``h`` differs from the exact answer, or None if it agrees."""
    error = float(np.max(np.abs(h - exact)))
    limit = FIXED_POINT_RTOL * (1.0 + float(np.max(exact)))
    if error > limit:
        return f"error {error:.3g} against the exact recurrence exceeds {limit:.3g}"
    return None
