"""Adaptive quadrature behavior and failure modes, and the batched
engine against the recursion."""

import math
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import (
    DomainError,
    QuadratureFailureError,
    adaptive_simpson,
    quadrature,
)


def test_known_integrals():
    assert abs(adaptive_simpson(np.sin, 0.0, np.pi) - 2.0) < 1e-10
    assert abs(adaptive_simpson(lambda x: x**2, 0.0, 1.0) - 1.0 / 3.0) < 1e-12
    assert abs(adaptive_simpson(lambda x: 1.0 / x, 1.0, 2.0) - np.log(2.0)) < 1e-10
    assert abs(adaptive_simpson(np.exp, -1.0, 1.0) - (np.e - 1.0 / np.e)) < 1e-10


def test_reversed_limits_flip_the_sign():
    forward = adaptive_simpson(np.cos, 0.2, 1.4)
    backward = adaptive_simpson(np.cos, 1.4, 0.2)
    assert abs(forward + backward) < 1e-12


def test_degenerate_interval_is_zero():
    assert adaptive_simpson(np.sin, 0.7, 0.7) == 0.0


def test_tolerance_must_be_positive():
    with pytest.raises(ValueError):
        adaptive_simpson(np.sin, 0.0, 1.0, tol=0.0)


def test_depth_exhaustion_raises():
    with pytest.raises(QuadratureFailureError):
        adaptive_simpson(
            lambda x: np.sin(50.0 * x), 0.0, 3.0, tol=1e-14, max_depth=2
        )


def test_refining_tolerance_converges():
    coarse = adaptive_simpson(lambda x: np.exp(-x) / x, 1.0, 3.0, tol=1e-8)
    fine = adaptive_simpson(lambda x: np.exp(-x) / x, 1.0, 3.0, tol=1e-10)
    assert abs(coarse - fine) < 1e-8


@pytest.mark.parametrize("a, b, tol", [
    (0.7, 0.7, -1.0),
    (0.7, 0.7, 0.0),
    (0.0, 1.0, float("nan")),
    (0.7, 0.7, float("nan")),
])
def test_a_tolerance_that_is_not_positive_is_refused_before_the_shortcut(
        a, b, tol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        adaptive_simpson(np.sin, a, b, tol=tol)


@pytest.mark.parametrize("a, b", [
    (float("nan"), 1.0),
    (0.0, float("nan")),
    (float("nan"), float("nan")),
    (0.0, float("inf")),
    (float("-inf"), 0.0),
    (float("inf"), float("inf")),
])
def test_a_limit_that_is_not_finite_is_refused(a, b):
    with pytest.raises(ValueError, match="limits must be finite"):
        adaptive_simpson(np.sin, a, b)


# A private copy of the recursive quadrature as it was before its step
# was inlined, to compare the inlined one with: bits, the sequence of
# integrand arguments and the stall error must all be the same.

def _simpson(fa, fm, fb, width):
    return width * (fa + 4.0 * fm + fb) / 6.0


def _recurse(fn, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = fn(lm)
    frm = fn(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureFailureError(
            f"adaptive quadrature stalled on [{a}, {b}] (residual {abs(delta):.3e})"
        )
    half = 0.5 * tol
    return (
        _recurse(fn, a, m, fa, flm, fm, left, half, depth - 1)
        + _recurse(fn, m, b, fm, frm, fb, right, half, depth - 1)
    )


def _reference_simpson(fn, a, b, tol, max_depth):
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    whole = _simpson(fa, fm, fb, b - a)
    return _recurse(fn, a, b, fa, fm, fb, whole, tol, max_depth)


INTEGRANDS = {
    "smooth": lambda c: lambda x: c[0] + c[1] * math.sin(c[2] * x),
    "poly": lambda c: lambda x: c[0] + c[1] * x + c[2] * x * x * x,
    "kink": lambda c: lambda x: c[1] * abs(x - c[0]) + c[2],
    "root": lambda c: lambda x: math.sqrt(abs(x - c[0])) * c[1],
    "exp": lambda c: lambda x: math.exp(c[2] * x) - c[0],
}


def _traced(quadrature, fn, a, b, tol, depth):
    """The bits of the integral, or the error's type and message, and
    every argument ``fn`` was called with, in order."""
    seen = []

    def counted(x):
        seen.append(x)
        return fn(x)

    try:
        result = struct.pack("<d", quadrature(counted, a, b, tol, depth))
    except QuadratureFailureError as exc:
        result = (type(exc), str(exc))
    return result, [struct.pack("<d", x) for x in seen]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(sorted(INTEGRANDS)),
       st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
       st.sampled_from([1e-3, 1e-6, 1e-10, 1e-13]),
       st.integers(0, 40))
def test_the_inlined_step_matches_the_recursive_reference(
        kind, coefficients, a, b, tol, depth):
    fn = INTEGRANDS[kind](coefficients)
    expected = _traced(_reference_simpson, fn, a, b, tol, depth)
    assert _traced(adaptive_simpson, fn, a, b, tol, depth) == expected
    if a != b:
        reversed_ = _traced(_reference_simpson, fn, b, a, tol, depth)
        assert _traced(adaptive_simpson, fn, b, a, tol, depth) == reversed_


def test_a_forced_stall_matches_the_reference():
    fn = INTEGRANDS["kink"]((0.3, 1.0, 0.0))
    expected = _traced(_reference_simpson, fn, -1.0, 1.0, 1e-14, 3)
    assert isinstance(expected[0], tuple)
    assert _traced(adaptive_simpson, fn, -1.0, 1.0, 1e-14, 3) == expected


# The batched engine (quadrature._simpson_batch) against the recursive
# reference above, run as a loop over the intervals: with the integrand
# over arrays applying the scalar one element by element, a batch must
# give the intervals before the loop's first error the reference's bits,
# and that error, at any block width.

BLOCKS = [1, 2, quadrature.BLOCK]
LIMITS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0]))
ZERO_SIGNS = {
    # signed zeros only: every sum is decided by the order of the adds
    "signed_zero": lambda c: lambda x: math.copysign(0.0, c[0] * x - c[1]),
}


def _elementwise(fn):
    return lambda xs: np.array([fn(x) for x in xs.tolist()])


def _reference_loop(fn, intervals, tol, depth):
    """The bytes of the integrals the reference gives, run over the
    intervals in order, before it raises, and the type and message of
    what it raises, or None."""
    done = []
    try:
        for a, b in intervals:
            done.append(_reference_simpson(fn, a, b, tol, depth))
    except Exception as exc:  # noqa: BLE001 - any error is compared
        return np.array(done).tobytes(), (type(exc), str(exc))
    return np.array(done).tobytes(), None


def _sized(fn, sizes):
    """_elementwise(fn), appending the size of each array it is given
    to ``sizes``."""
    over = _elementwise(fn)
    return lambda xs: sizes.append(xs.size) or over(xs)


def _batch(fn, intervals, tol, depth, block):
    """_simpson_batch over the intervals at the given block width, in
    _reference_loop's terms.  The integrand is never given no points."""
    a, b = zip(*intervals)
    sizes = []
    with mock.patch.object(quadrature, "BLOCK", block):
        done, error = quadrature._simpson_batch(_sized(fn, sizes), a, b, tol,
                                                depth)
    assert 0 not in sizes
    return done.tobytes(), None if error is None else (type(error), str(error))


@st.composite
def batches(draw):
    """Intervals drawn from limits that include ±0.0; some reversed and
    some of zero width, with a limit repeated or negated."""
    intervals = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(LIMITS)
        b = draw(st.one_of(LIMITS, st.sampled_from([a, -a])))
        intervals.append((a, b))
    return intervals


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(sorted({**INTEGRANDS, **ZERO_SIGNS})),
       st.tuples(*[st.floats(-3.0, 3.0)] * 3), batches(),
       st.sampled_from([1e-3, 1e-6, 1e-10, 1e-13]), st.integers(0, 40))
def test_a_batch_matches_the_recursive_reference_bit_for_bit(
        kind, coefficients, intervals, tol, depth):
    fn = {**INTEGRANDS, **ZERO_SIGNS}[kind](coefficients)
    expected = _reference_loop(fn, intervals, tol, depth)
    for block in BLOCKS:
        assert _batch(fn, intervals, tol, depth, block) == expected


@st.composite
def dyadic_batches(draw):
    """Intervals from k/8 over a power of two, or of zero width, so that
    the recursion's points land exactly on any k/64 inside an interval
    it splits finely enough; some with other limits."""
    intervals = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(st.integers(-32, 32)) / 8
        width = draw(st.sampled_from([0.0, 0.125, 0.5, 1.0, 2.0, 4.0]))
        b = a + draw(st.sampled_from([-1.0, 1.0])) * width
        intervals.append(draw(st.one_of(st.just((a, b)),
                                        st.tuples(LIMITS, LIMITS))))
    return intervals


def _failing(kind, where, frequency):
    """An integrand that raises DomainError at the point ``where``, or
    at every point past it, and is smooth elsewhere."""
    def fn(x):
        if x == where if kind == "point" else x > where:
            raise DomainError(f"{kind} {where} reached at {x}")
        return 1.0 + math.sin(frequency * x)
    return fn


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(["point", "threshold"]), st.integers(-256, 256),
       st.floats(0.5, 4.0), dyadic_batches(),
       st.sampled_from([1e-3, 1e-6, 1e-10]), st.integers(0, 40))
def test_a_failing_batch_reports_the_error_the_loop_meets_first(
        kind, k, frequency, intervals, tol, depth):
    fn = _failing(kind, k / 64, frequency)
    expected = _reference_loop(fn, intervals, tol, depth)
    for block in BLOCKS:
        assert _batch(fn, intervals, tol, depth, block) == expected


@pytest.mark.parametrize("intervals, depth, message", [
    # the first interval stalls at depth 3; the second raises at its
    # first point, in the first array call
    ([(0.0, 0.9), (1.5, 2.0)], 3, "adaptive quadrature stalled on"),
    # the first interval raises two levels down, at 0.25; the second at
    # its midpoint, in the first array call
    ([(-1.0, 1.0), (1.0, 2.0)], 40, "refused at 0.25"),
    # the same two in the other order: the earlier interval's error
    ([(1.0, 2.0), (-1.0, 1.0)], 40, "refused at 1.5"),
])
def test_an_earlier_interval_s_deeper_error_comes_first(intervals, depth,
                                                        message):
    def fn(x):
        if x == 0.25 or x >= 1.5:
            raise DomainError(f"refused at {x}")
        return math.sin(7.0 * x + 0.3)

    expected = _reference_loop(fn, intervals, 1e-13, depth)
    assert expected[1][1].startswith(message)
    for block in [*BLOCKS, 3, 16]:
        assert _batch(fn, intervals, 1e-13, depth, block) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_nan_delta_splits_until_the_batch_stalls(bad):
    # abs(nan) <= tol is false, so the recursion splits; `abs(nan) > tol`
    # would call it converged and return nan.  An infinite value makes
    # the delta inf - inf = nan.  The batch warns nowhere: the float
    # operations it stands for are silent.
    def fn(x):
        return bad if x > 0.5 else 1.0

    expected = _reference_loop(fn, [(0.0, 1.0)], 1e-6, 5)
    assert expected[1][1].startswith("adaptive quadrature stalled on")
    assert "residual nan" in expected[1][1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in BLOCKS:
            assert _batch(fn, [(0.0, 1.0)], 1e-6, 5, block) == expected


def test_a_zero_width_interval_is_positive_zero_in_a_batch():
    out, error = quadrature._simpson_batch(lambda xs: -np.ones_like(xs),
                                           [0.0, -0.0, 1.0], [-0.0, 0.0, 2.0])
    assert error is None
    assert out.tobytes() == np.array([0.0, 0.0, -1.0]).tobytes()


def test_a_batch_has_the_same_bits_at_any_block():
    fn = INTEGRANDS["smooth"]((1.0, 1.0, 3.0))
    intervals = list(zip([-4.0] * 8,
                         [4.0, 3.0, 2.0, 1.0, -1.0, -2.0, -3.0, 3.5]))
    expected = _reference_loop(fn, intervals, 1e-10, 40)
    calls = {}
    for block in [*BLOCKS, 3, 16]:
        sizes = []
        with mock.patch.object(quadrature, "BLOCK", block):
            done, error = quadrature._simpson_batch(_sized(fn, sizes),
                                                    *zip(*intervals), 1e-10)
        assert (done.tobytes(), error) == expected
        calls[block] = len(sizes)
    # Narrower blocks take more array calls for the same points.
    assert calls[1] > calls[2] > calls[3] > calls[16] > calls[quadrature.BLOCK]


def test_a_long_batch_runs_as_one_with_the_same_bits():
    # A GRW construct's t-samples on a fine grid are one batch of many
    # intervals; while its levels fit one block, each is one array call.
    fn = INTEGRANDS["smooth"]((1.0, 0.5, 0.7))
    rng = np.random.default_rng(7)
    a, b = rng.uniform(-1.5, 1.5, (2, 389))
    b[::9] = a[::9]
    expected = _reference_loop(fn, zip(a.tolist(), b.tolist()), 1e-10, 40)
    sizes = []
    done, error = quadrature._simpson_batch(_sized(fn, sizes), a, b, 1e-10)
    assert (done.tobytes(), error) == expected
    assert max(sizes) <= 2 * quadrature.BLOCK
    assert sizes[0] == 3 * np.count_nonzero(a != b)


@pytest.mark.parametrize("a, b, tol, message, done", [
    ([0.0], [1.0], 0.0, "tolerance must be positive", 0),
    ([0.0], [1.0], float("nan"), "tolerance must be positive", 0),
    ([0.0, float("inf")], [1.0, 1.0], 1e-10, "limits must be finite", 1),
    ([0.0], [float("nan")], 1e-10, "limits must be finite", 0),
])
def test_a_batch_refuses_what_adaptive_simpson_refuses(a, b, tol, message,
                                                       done):
    # As the loop does: the intervals before one it refuses are integrated.
    out, error = quadrature._simpson_batch(np.sin, a, b, tol)
    assert isinstance(error, ValueError) and message in str(error)
    assert out.tobytes() == np.array([adaptive_simpson(np.sin, 0.0, 1.0)]
                                     [:done]).tobytes()
