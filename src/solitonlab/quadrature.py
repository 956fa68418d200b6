"""Adaptive Simpson quadrature.

Classic recursive bisection with the Richardson correction S2 +
(S2 - S1)/15 (McKeeman, CACM Algorithm 145, 1962).  The tolerance is
absolute and is halved per split, which keeps the summed error below
the requested bound.  Written in-house so integration failures surface
as a package error with a controlled depth limit rather than a
library-specific warning.

A private batched engine, _simpson_batch, is the loop of
adaptive_simpson over many intervals, with an integrand over arrays.
It walks depth first over blocks of at most BLOCK intervals at one
depth, one array call per block, doing the recursion's arithmetic
elementwise in numpy, which rounds as the float operations do, and
summing each integral bottom-up in the recursion's order: the bits are
adaptive_simpson's.  Where a block's array call raises, its points are
evaluated again one at a time in the recursion's order, and only the
intervals before the first that raises are finished.  So, whatever
BLOCK is, a batch reports the error the loop meets first, with the
integrals before it: as in errors.in_grid_order, the fast path never
decides an error.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureFailureError

__all__ = ["adaptive_simpson"]

# Intervals in one block of a batch; no value changes a bit or an
# error.  The widest level of a construct benchmark batch holds 684
# intervals (from 100 GRW t-samples), so it is one array call.  A batch
# keeps, per level it is down, the sums of one block and at most one
# block still to run: about 66 KB a level.
BLOCK = 1024


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


def _evaluate(fn: Callable[[np.ndarray], np.ndarray], fine: np.ndarray,
              rows: slice) -> tuple[np.ndarray, Exception | None]:
    """``fine`` (see _block) with ``fn`` at the points ``rows`` of each
    interval, from one array call; if that raises, from one point at a
    time in the recursion's order, cut before the interval of the first
    point that raises, whose error comes with it."""
    x, f = fine
    try:
        f[rows] = fn(x[rows].ravel()).reshape(-1, fine.shape[2])
        return fine, None
    except Exception:  # noqa: BLE001 - found again one point at a time
        pass
    for i in range(fine.shape[2]):
        for row in range(5)[rows]:
            try:
                f[row, i] = fn(x[row, i:i + 1])[0]
            except Exception as exc:  # noqa: BLE001 - the loop's error
                return fine[:, :, :i], exc
    return fine, None


def _block(fn: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray,
           whole: np.ndarray | None, tol: float,
           depth: int) -> tuple[np.ndarray, Exception | None]:
    """The integrals of a block of intervals at one depth up to the
    first error the recursion would meet in them, and that error or
    None.  ``nodes`` holds each interval's a, m and b on axis 1, their
    coordinates on row 0 and the integrand on row 1, and ``whole`` their
    Simpson sums; for the roots of a batch, only the coordinates and
    None."""
    # Each interval as five points on axis 1: a, the left quarter point,
    # m, the right quarter point and b.
    fine = np.empty((2, 5, nodes.shape[-1]))
    fine[:, 0::2] = nodes
    error = None
    if whole is None:
        fine, error = _evaluate(fn, fine, slice(0, 5, 2))
        if not fine.shape[2]:
            return np.zeros(0), error
        x, f = fine
        whole = (x[4] - x[0]) * (f[0] + 4.0 * f[2] + f[4]) / 6.0
    x, f = fine
    x[1::2] = 0.5 * (x[:-1:2] + x[2::2])
    fine, failed = _evaluate(fn, fine, slice(1, 5, 2))
    if failed is not None:
        error, whole = failed, whole[:fine.shape[2]]
        x, f = fine
    halves = (x[2::2] - x[:-1:2]) * (f[:-1:2] + 4.0 * f[1::2] + f[2::2]) / 6.0
    both = halves[0] + halves[1]
    delta = both - whole
    sums = both + delta / 15.0
    # Not `>`: a NaN delta splits, as it does in the recursion.
    split = ~(np.abs(delta) <= 15.0 * tol)
    count = np.count_nonzero(split)
    if not count:
        return sums, error
    if depth <= 0:
        i = int(np.argmax(split))
        return sums[:i], QuadratureFailureError(
            f"adaptive quadrature stalled on [{float(x[0, i])}, "
            f"{float(x[4, i])}] (residual {abs(float(delta[i])):.3e})"
        )
    # The children of each split interval, left then right: [a, m] has
    # the points on rows 0-2 and [m, b] those on rows 2-4, and each has
    # its half of the Simpson sum as its whole.
    kept = fine[:, :, split]
    children = np.empty((2, 3, 2 * count))
    children[:, :, 0::2] = kept[:, :3]
    children[:, :, 1::2] = kept[:, 2:]
    wholes = halves[:, split].T.ravel()
    # The blocks to run, leftmost last, to be taken first.  Several are
    # copies, each freed once it has run, so that a runaway keeps at
    # most one block to run a level.
    blocks, wholes = [children], [wholes]
    if 2 * count > BLOCK:
        starts = range(0, 2 * count, BLOCK)[::-1]
        blocks = [children[:, :, lo:lo + BLOCK].copy() for lo in starts]
        wholes = [wholes[0][lo:lo + BLOCK].copy() for lo in starts]
    del nodes, whole, fine, x, f, halves, both, delta, kept, children
    done = []
    while blocks:
        part, failed = _block(fn, blocks.pop(), wholes.pop(), 0.5 * tol,
                              depth - 1)
        done.append(part)
        if failed is not None:
            break
    done = np.concatenate(done) if len(done) > 1 else done[0]
    # A split interval's integral is its left child's plus its right
    # child's; an interval whose children did not both finish did not.
    if failed is None:
        sums[split] = done[0::2] + done[1::2]
        return sums, error
    split = np.flatnonzero(split)
    pairs = len(done) // 2
    sums[split[:pairs]] = done[0:2 * pairs:2] + done[1:2 * pairs:2]
    return sums[:split[pairs]], failed


def _simpson_batch(fn: Callable[[np.ndarray], np.ndarray],
                   a: Sequence[float], b: Sequence[float],
                   tol: float = 1e-10, max_depth: int = 40,
                   ) -> tuple[np.ndarray, Exception | None]:
    """The loop of adaptive_simpson over each [a[i], b[i]]: the
    integrals before the first interval that fails, bit for bit, and the
    loop's error there, or None.  ``fn`` maps an array of points to
    their values, each element as a one-element array would give it."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    if len(a) and not tol > 0.0:
        return np.zeros(0), ValueError("tolerance must be positive")
    finite = np.isfinite(a) & np.isfinite(b)
    stop = len(a) if finite.all() else int(np.argmin(finite))
    out = np.zeros(stop)
    live = np.flatnonzero(a[:stop] != b[:stop])
    with np.errstate(all="ignore"):
        for lo in range(0, len(live), BLOCK):
            roots = live[lo:lo + BLOCK]
            x = np.array([a[roots], 0.5 * (a[roots] + b[roots]), b[roots]])
            sums, error = _block(fn, x, None, tol, max_depth)
            out[roots[:len(sums)]] = sums
            if error is not None:
                return out[:roots[len(sums)]], error
    return out, None if stop == len(a) else ValueError(
        "integration limits must be finite")
