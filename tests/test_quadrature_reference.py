"""The batched quadrature engine against a copy of the engine it replaced.

_evaluate, _block and _simpson_batch below are verbatim copies of the
engine whose level took a block's a, m and b on one axis and its
Simpson sums beside them, and built its children with two strided
copies; they read BLOCK from this module.  On seeded random batches
(integrands smooth, NaN or infinite past a point, or raising at chosen
points; intervals of zero width, reversed or with limits that are not
finite; max_depth from 0 to 40; BLOCK at 1, 2, 3 and 1024) the engine
gives the copy's integrals byte for byte, its error, type and message,
and calls its integrand with the copy's points in the copy's order, so
the work is the same too.
"""

from __future__ import annotations

import random
import sys
from typing import Callable, Sequence

import numpy as np
import pytest

from solitonlab import DomainError, QuadratureFailureError, quadrature

BLOCK = quadrature.BLOCK


def _evaluate(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
              ) -> tuple[np.ndarray, Exception | None]:
    """``fn`` at the points ``x``, one row a kind of point and one
    column an interval, from one array call; if that raises, from one
    point at a time in the recursion's order, cut before the interval
    of the first point that raises, whose error comes with it."""
    try:
        return fn(x.ravel()).reshape(x.shape), None
    except Exception:  # noqa: BLE001 - found again one point at a time
        pass
    f = np.empty_like(x)
    for i in range(x.shape[1]):
        for row in range(x.shape[0]):
            try:
                f[row, i] = fn(x[row, i:i + 1])[0]
            except Exception as exc:  # noqa: BLE001 - the loop's error
                return f[:, :i], exc
    return f, None


def _block(fn: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray,
           whole: np.ndarray, tol: float,
           depth: int) -> tuple[np.ndarray, Exception | None]:
    """The integrals of a block of intervals at one depth up to the
    first error the recursion would meet in them, and that error or
    None.  ``nodes`` holds each interval's a, m and b on axis 1, their
    coordinates on row 0 and the integrand on row 1, and ``whole`` their
    Simpson sums."""
    # Each interval as six points on axis 1: the starts (a, m), the
    # midpoints (the quarter points, m until they are computed) and the
    # ends (m, b) of its two halves, so that each kind of point is one
    # contiguous pair of rows.
    fine = nodes.take((0, 1, 1, 1, 1, 2), axis=1)
    x, f = fine
    quarters = x[2:4]
    np.add(x[:2], x[4:], out=quarters)
    quarters *= 0.5
    values, error = _evaluate(fn, quarters)
    if error is not None:
        fine, whole = fine[:, :, :values.shape[1]], whole[:values.shape[1]]
        x, f = fine
    f[2:4] = values
    halves = (x[4:] - x[:2]) * (f[:2] + 4.0 * f[2:4] + f[4:]) / 6.0
    both = halves[0] + halves[1]
    delta = both - whole
    sums = both + delta / 15.0
    # Not `>`: a NaN delta splits, as it does in the recursion.
    split = ~(np.abs(delta) <= 15.0 * tol)
    cols = split.nonzero()[0]
    count = len(cols)
    if not count:
        return sums, error
    if depth <= 0:
        i = cols[0]
        return sums[:i], QuadratureFailureError(
            f"adaptive quadrature stalled on [{float(x[0, i])}, "
            f"{float(x[5, i])}] (residual {abs(float(delta[i])):.3e})"
        )
    # The children of each split interval, left then right: half s of
    # an interval has row s of each pair as its a, m and b, and its half
    # of the Simpson sum as its whole.
    kept = fine.take(cols, axis=2).reshape(2, 3, 2, count)
    children = np.empty((2, 3, count, 2))
    children[..., 0] = kept[:, :, 0]
    children[..., 1] = kept[:, :, 1]
    children = children.reshape(2, 3, 2 * count)
    wholes = halves.T.take(cols, axis=0).ravel()
    # The blocks to run, leftmost last, to be taken first.  Several are
    # copies, each freed once it has run, so that a runaway keeps at
    # most one block to run a level.
    blocks, wholes = [children], [wholes]
    if 2 * count > BLOCK:
        starts = range(0, 2 * count, BLOCK)[::-1]
        blocks = [children[:, :, lo:lo + BLOCK].copy() for lo in starts]
        wholes = [wholes[0][lo:lo + BLOCK].copy() for lo in starts]
    del nodes, whole, fine, x, f, quarters, values, halves, both, delta
    del cols, kept, children
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
    """The loop of the recursion over each [a[i], b[i]]: the
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
            nodes = np.array([a[roots], 0.5 * (a[roots] + b[roots]), b[roots]])
            values, error = _evaluate(fn, nodes)
            sums = np.zeros(0)
            if values.shape[1]:
                nodes = np.array([nodes[:, :values.shape[1]], values])
                x, f = nodes
                whole = (x[2] - x[0]) * (f[0] + 4.0 * f[1] + f[2]) / 6.0
                sums, failed = _block(fn, nodes, whole, tol, max_depth)
                error = error if failed is None else failed
            out[roots[:len(sums)]] = sums
            if error is not None:
                return out[:roots[len(sums)]], error
    return out, None if stop == len(a) else ValueError(
        "integration limits must be finite")


# Integrands over arrays, one per kind; each element is what a
# one-element array gives it.  p is a point the kind turns at.

def _smooth(c, p):
    return lambda x: c[0] + c[1] * np.sin(c[2] * x)


def _poly(c, p):
    return lambda x: c[0] + c[1] * x + c[2] * x * x * x


def _kink(c, p):
    return lambda x: c[1] * np.abs(x - p) + c[0]


def _nan_past(c, p):
    return lambda x: np.where(x > p, np.nan, c[0] + np.cos(c[2] * x))


def _inf_past(c, p):
    return lambda x: np.where(x > p, c[1] * np.inf, c[0] + x * x)


def _raise_at(c, p):
    def fn(x):
        if np.count_nonzero(x == p):
            raise DomainError(f"refused at {p}")
        return c[0] + c[1] * np.sin(c[2] * x)
    return fn


def _raise_past(c, p):
    def fn(x):
        if np.count_nonzero(x > p):
            raise DomainError(f"refused past {p}")
        return np.exp(c[2] * x) - c[0]
    return fn


def _signed_zero(c, p):
    return lambda x: np.copysign(0.0, c[0] * x - p)


KINDS = [_smooth, _poly, _kink, _nan_past, _inf_past, _raise_at, _raise_past,
         _signed_zero]
BLOCKS = [1, 2, 3, 1024]
SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf]


def _limit(rng):
    roll = rng.random()
    if roll < 0.5:
        return rng.randint(-24, 24) / 8
    if roll < 0.93:
        return rng.uniform(-3.0, 3.0)
    return rng.choice(SPECIAL)


def _case(rng):
    """One random batch: the integrand, the intervals, tol and depth."""
    intervals = []
    for _ in range(rng.randint(1, 6)):
        a = _limit(rng)
        roll = rng.random()
        b = a if roll < 0.1 else -a if roll < 0.15 else _limit(rng)
        intervals.append((a, b))
    coefficients = [rng.uniform(-2.0, 2.0) for _ in range(3)]
    kind = rng.choice(KINDS)
    p = rng.randint(-128, 128) / 64
    if kind is _raise_at:
        # A point the recursion evaluates: a limit, a midpoint or a
        # quarter point of one of the intervals, as it computes them.
        a, b = rng.choice(intervals)
        m = 0.5 * (a + b)
        p = rng.choice([a, m, b, 0.5 * (a + m), 0.5 * (m + b)])
    fn = kind(coefficients, p)
    tol = rng.choice([1e-3, 1e-6, 1e-10, 1e-13] * 8 + [0.0, np.nan])
    return fn, intervals, tol, rng.randint(0, 40)


def _outcome(batch, fn, intervals, tol, depth, block):
    """The bytes of the integrals, the error's type and message, and the
    bytes of every array the integrand was given, in order."""
    calls = []

    def traced(x):
        calls.append(x.tobytes())
        return fn(x)

    a, b = zip(*intervals)
    this = sys.modules[__name__]
    saved = BLOCK, quadrature.BLOCK
    this.BLOCK = quadrature.BLOCK = block
    try:
        done, error = batch(traced, list(a), list(b), tol, depth)
    finally:
        this.BLOCK, quadrature.BLOCK = saved
    return (done.tobytes(),
            None if error is None else (type(error), str(error)), calls)


def _cases(seed, count):
    rng = random.Random(seed)
    return [_case(rng) for _ in range(count)]


@pytest.mark.parametrize("block", BLOCKS)
def test_the_engine_does_the_work_of_the_copy_and_gets_its_bits(block):
    outcomes = {"error": 0, "done": 0}
    for fn, intervals, tol, depth in _cases(31, 300):
        expected = _outcome(_simpson_batch, fn, intervals, tol, depth, block)
        got = _outcome(quadrature._simpson_batch, fn, intervals, tol, depth,
                       block)
        assert got == expected, (intervals, tol, depth)
        outcomes["error" if expected[1] else "done"] += 1
    # The draw reaches both ends: batches that fail and batches that finish.
    assert min(outcomes.values()) > 50


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("count", [1, 10])
def test_a_runaway_of_nan_gets_the_copy_s_stall(block, count):
    # Every interval splits to depth 40 and the leftmost stalls first.
    expected = _outcome(_simpson_batch, lambda x: np.full_like(x, np.nan),
                        [(0.0, 1.0)] * count, 1e-10, 40, block)
    assert expected[1][0] is QuadratureFailureError
    assert _outcome(quadrature._simpson_batch,
                    lambda x: np.full_like(x, np.nan),
                    [(0.0, 1.0)] * count, 1e-10, 40, block) == expected
