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
adaptive_simpson's.  A block to run is seven rows, one column an
interval: its a, m and b, the integrand there and its Simpson sum.  A
level of a block is one call of _block and about twenty numpy calls:
one take lays the rows out as pairs (see _LEVEL), so that the quarter
points, the Simpson sums of the halves and the test are each a few
ufunc calls on contiguous rows, the quarter points one array call, and
one take of interleaved columns gives the seven rows of the children
of the intervals that split.
Where a block's array call raises, its points are evaluated again one
at a time in the recursion's order, and only the intervals before the
first that raises are finished.  So, whatever
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


def _evaluate(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
              out: np.ndarray) -> tuple[int, Exception | None]:
    """``fn`` at the points ``x``, one row a kind of point and one
    column an interval, into ``out``, from one array call; if that
    raises, from one point at a time in the recursion's order, cut
    before the interval of the first point that raises.  The number of
    intervals evaluated, and the error that cut them or None."""
    try:
        values = fn(x.ravel()).reshape(x.shape)
    except Exception:  # noqa: BLE001 - found again one point at a time
        for i in range(x.shape[1]):
            for row in range(x.shape[0]):
                try:
                    out[row, i] = fn(x[row, i:i + 1])[0]
                except Exception as exc:  # noqa: BLE001 - the loop's error
                    return i, exc
        return x.shape[1], None
    out[...] = values
    return x.shape[1], None


def _simpson(x0: np.ndarray, x2: np.ndarray, f0: np.ndarray, f1: np.ndarray,
             f2: np.ndarray, out: np.ndarray) -> None:
    """(x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0 into ``out``: the
    expression's float operations in its order (+ and * commute
    exactly)."""
    np.multiply(f1, _FOUR, out)
    np.add(f0, out, out)
    out += f2
    out *= x2 - x0
    out /= _SIX


# A level's rows, as pairs: the starts (a, m), the midpoints (the
# quarter points, m until they are computed) and the ends (m, b) of each
# interval's two halves, their integrand values likewise, and the
# halves' Simpson sums; then the interval's own Simpson sum.  Taken
# column by column, pair p is the rows of the children of the intervals
# that split, left then right: a, m, b, their values, and the sum; a
# block to run keeps these seven rows, one column an interval.
_LEVEL = np.array([0, 1, 1, 1, 1, 2, 3, 4, 4, 4, 4, 5, 6, 6, 6])
# The constants of the float operations as 0-d arrays, which a ufunc
# takes as they are, where it converts a float on every call.
_HALF, _FOUR, _SIX, _FIFTEEN = map(np.array, (0.5, 4.0, 6.0, 15.0))


def _block(fn: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray,
           tol: float, depth: int) -> tuple[np.ndarray, Exception | None]:
    """The integrals of a block of intervals at one depth up to the
    first error the recursion would meet in them, and that error or
    None.  ``nodes`` holds the block's seven rows (see _LEVEL)."""
    level = nodes.take(_LEVEL, axis=0)
    del nodes
    quarters = level[2:4]
    np.add(level[:2], level[4:6], quarters)
    quarters *= _HALF
    n, error = _evaluate(fn, quarters, level[8:10])
    if error is not None:
        level = level[:, :n]
    _simpson(level[:2], level[4:6], level[6:8], level[8:10], level[10:12],
             level[12:14])
    both = level[12] + level[13]
    delta = both - level[14]
    sums = delta / _FIFTEEN
    sums += both
    np.abs(delta, delta)
    # Not `>`: a NaN delta splits, as it does in the recursion.
    split = ~(delta <= 15.0 * tol)
    cols = split.nonzero()[0]
    count = len(cols)
    if not count:
        return sums, error
    if depth <= 0:
        i = cols[0]
        return sums[:i], QuadratureFailureError(
            f"adaptive quadrature stalled on [{float(level[0, i])}, "
            f"{float(level[5, i])}] (residual {float(delta[i]):.3e})"
        )
    # The children as one take of the columns cols and cols + n of each
    # pair of rows, interleaved.
    columns = np.empty(2 * count, cols.dtype)
    columns[::2] = cols
    np.add(cols, n, columns[1::2])
    children = level[:14].reshape(7, 2 * n).take(columns, axis=1)
    # The blocks to run, leftmost last, to be taken first.  Several are
    # copies, each freed once it has run, so that a runaway keeps at
    # most one block to run a level.
    blocks = [children]
    if 2 * count > BLOCK:
        starts = range(0, 2 * count, BLOCK)[::-1]
        blocks = [children[:, lo:lo + BLOCK].copy() for lo in starts]
    del level, quarters, both, delta, cols, columns, children
    done = []
    while blocks:
        part, failed = _block(fn, blocks.pop(), 0.5 * tol, depth - 1)
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
    limits = np.array((a, b), dtype=float)
    if limits.shape[1] and not tol > 0.0:
        return np.zeros(0), ValueError("tolerance must be positive")
    finite = np.isfinite(limits)
    stop = limits.shape[1]
    if np.count_nonzero(finite) != finite.size:
        stop = int(np.argmin(finite.all(axis=0)))
    out = np.zeros(stop)
    live = (limits[0, :stop] != limits[1, :stop]).nonzero()[0]
    with np.errstate(all="ignore"):
        for lo in range(0, len(live), BLOCK):
            roots = live[lo:lo + BLOCK]
            nodes = np.empty((7, len(roots)))
            x = nodes[:3]
            limits.take(roots, axis=1, out=x[::2])
            np.add(x[0], x[2], x[1])
            x[1] *= _HALF
            n, error = _evaluate(fn, x, nodes[3:6])
            sums = np.zeros(0)
            if n:
                nodes = nodes[:, :n]
                _simpson(nodes[0], nodes[2], nodes[3], nodes[4], nodes[5],
                         nodes[6])
                sums, failed = _block(fn, nodes, tol, max_depth)
                error = error if failed is None else failed
            out[roots[:len(sums)]] = sums
            if error is not None:
                return out[:roots[len(sums)]], error
    return out, None if stop == limits.shape[1] else ValueError(
        "integration limits must be finite")
