"""Adaptive Simpson quadrature.

Classic recursive bisection with the Richardson correction S2 +
(S2 - S1)/15 (McKeeman, CACM Algorithm 145, 1962).  The tolerance is
absolute and is halved per split, which keeps the summed error below
the requested bound.  Written in-house so integration failures surface
as a package error with a controlled depth limit rather than a
library-specific warning.

A private batched engine, _simpson_batch, integrates many intervals
[a_i, b_i] at once, level by level: each level of bisection is one call
of an array integrand at the quarter points of every live interval,
with the arithmetic of the recursion done elementwise in numpy, which
rounds each element as the float operations do.  Each interval's tree
is then summed bottom-up in the recursion's own order, ``left + right +
delta/15.0`` where an interval converges and ``sum(left child) +
sum(right child)`` where it splits, so every integral has the float64
bits adaptive_simpson gives on the same interval.  A level may hold at
most WIDTH_PER_INTERVAL live intervals per interval of the input.  A
batch that outgrows that bound, stalls, or whose integrand raises,
fails as a whole, and its caller integrates one interval at a time
through adaptive_simpson instead (_simpson_each does so in order), so
values and errors are those of that loop.  In the spirit of
errors.in_grid_order, the fast path never decides an error.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureFailureError

__all__ = ["adaptive_simpson"]

# Live intervals in one level of a batch, per interval of its input.
# Over the first 96 construct benchmark jobs at seeds 1, 401 and 501 the
# widest level holds 12.3 times its batch's intervals (444 from 36),
# and the widest of all 684 (from 100 GRW t-samples); a batch that
# outgrows five times that ratio is a runaway, left to the recursion
# and its depth limit.
WIDTH_PER_INTERVAL = 64


def _step(fn: Callable[[float], float], a: float, b: float,
          fa: float, fm: float, fb: float, whole: float,
          tol: float, depth: int) -> float:
    m = 0.5 * (a + b)
    flm = fn(0.5 * (a + m))
    frm = fn(0.5 * (m + b))
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureFailureError(
            f"adaptive quadrature stalled on [{a}, {b}] (residual {abs(delta):.3e})"
        )
    half = 0.5 * tol
    return (
        _step(fn, a, m, fa, flm, fm, left, half, depth - 1)
        + _step(fn, m, b, fm, frm, fb, right, half, depth - 1)
    )


def adaptive_simpson(fn: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-10, max_depth: int = 40) -> float:
    """Integrate ``fn`` over finite [a, b] to absolute tolerance ``tol`` > 0."""
    a = float(a)
    b = float(b)
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if a == b:
        return 0.0
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    return _step(fn, a, b, fa, fm, fb, whole, tol, max_depth)


class _TooWide(Exception):
    """A level of a batch would hold more than WIDTH_PER_INTERVAL
    intervals per interval of its input."""


def _simpson_batch(fn: Callable[[np.ndarray], np.ndarray],
                   a: Sequence[float], b: Sequence[float],
                   tol: float = 1e-10, max_depth: int = 40) -> np.ndarray:
    """adaptive_simpson over each [a[i], b[i]], bit for bit, with one
    call of the array integrand ``fn`` per level of bisection.

    Raises what ``fn`` raises, QuadratureFailureError where an interval
    stalls, and _TooWide past WIDTH_PER_INTERVAL live intervals per
    interval of the input.  A level's intervals are kept in the
    recursion's depth-first order, the left child of a split before its
    right one, so the first stall reported is the first the recursion,
    run over the intervals in order, would reach if the integrand raised
    nowhere.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("integration limits must be finite")
    out = np.zeros(len(a))
    live = np.flatnonzero(a != b)
    n = len(live)
    if not n:
        return out
    widest = WIDTH_PER_INTERVAL * n
    levels = []
    depth = max_depth
    with np.errstate(all="ignore"):
        # The live intervals on axis 2, each as five points on axis 1:
        # a, the left quarter point, m, the right quarter point and b;
        # their coordinates on axis 0, row 0, the integrand on row 1.
        fine = np.empty((2, 5, n))
        x, f = fine
        x[0], x[4] = a[live], b[live]
        x[2] = 0.5 * (x[0] + x[4])
        f[0::2] = fn(x[0::2].ravel()).reshape(3, n)
        whole = (x[4] - x[0]) * (f[0] + 4.0 * f[2] + f[4]) / 6.0
        while True:
            x[1::2] = 0.5 * (x[:-1:2] + x[2::2])
            f[1::2] = fn(x[1::2].ravel()).reshape(2, n)
            halves = (x[2::2] - x[:-1:2]) * (f[:-1:2] + 4.0 * f[1::2] + f[2::2]) / 6.0
            both = halves[0] + halves[1]
            delta = both - whole
            # Not `>`: a NaN delta splits, as it does in the recursion.
            split = ~(np.abs(delta) <= 15.0 * tol)
            levels.append((both + delta / 15.0, split))
            k = np.count_nonzero(split)
            if not k:
                break
            if depth <= 0:
                i = int(np.argmax(split))
                raise QuadratureFailureError(
                    f"adaptive quadrature stalled on [{float(x[0, i])}, "
                    f"{float(x[4, i])}] (residual {abs(float(delta[i])):.3e})"
                )
            n = 2 * k
            if n > widest:
                raise _TooWide
            # The children of each split interval, left then right: [a, m]
            # has the points on rows 0-2 and [m, b] those on rows 2-4, and
            # each has its half of the Simpson sum as its whole.
            kept = fine[:, :, split]
            fine = np.empty((2, 5, n))
            fine[:, 0::2, 0::2] = kept[:, :3]
            fine[:, 0::2, 1::2] = kept[:, 2:]
            x, f = fine
            whole = halves[:, split].T.ravel()
            tol = 0.5 * tol
            depth -= 1
        # Bottom-up: a split interval's integral is its left child's
        # plus its right child's, the children of level k being level
        # k + 1 in pairs.
        for level in range(len(levels) - 2, -1, -1):
            sums, split = levels[level]
            children = levels[level + 1][0]
            sums[split] = children[0::2] + children[1::2]
    out[live] = levels[0][0]
    return out


def _simpson_each(fn_many: Callable[[np.ndarray], np.ndarray],
                  fn: Callable[[float], float],
                  a: Sequence[float], b: Sequence[float],
                  tol: float = 1e-10) -> list[float]:
    """The integrals of ``fn`` over each [a[i], b[i]]: one batch over
    ``fn_many``, the same integrand over arrays, or, if the batch fails
    in any way, adaptive_simpson on each interval in order."""
    try:
        return _simpson_batch(fn_many, a, b, tol).tolist()
    except Exception:  # noqa: BLE001 - the loop raises the loop's error
        return [adaptive_simpson(fn, ai, bi, tol=tol) for ai, bi in zip(a, b)]
