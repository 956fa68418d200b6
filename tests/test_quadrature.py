"""Adaptive quadrature behavior and failure modes, and the batched
engine against the recursion."""

import math
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import QuadratureFailureError, adaptive_simpson, quadrature


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
# reference above: many intervals in one batch, with the integrand over
# arrays applying the scalar one element by element, must give each
# interval the reference's bits, or stall as the reference loop does.

LIMITS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0]))
ZERO_SIGNS = {
    # signed zeros only: every sum is decided by the order of the adds
    "signed_zero": lambda c: lambda x: math.copysign(0.0, c[0] * x - c[1]),
}


def _elementwise(fn):
    return lambda xs: np.array([fn(x) for x in xs.tolist()])


def _reference_loop(fn, intervals, tol, depth):
    """The bytes of each interval's integral, or the first stall's
    message, from the reference run over the intervals in order."""
    try:
        return b"".join(struct.pack("<d", _reference_simpson(fn, a, b, tol, depth))
                        for a, b in intervals)
    except QuadratureFailureError as exc:
        return str(exc)


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
    a, b = zip(*intervals)
    # A width bound far above these batches: every batch runs to its end.
    with mock.patch.object(quadrature, "WIDTH_PER_INTERVAL", 2 ** 16):
        try:
            got = quadrature._simpson_batch(_elementwise(fn), a, b, tol, depth)
        except QuadratureFailureError as exc:
            got = str(exc)
        else:
            got = got.tobytes()
    assert got == expected
    # With the bound, a batch that outgrows it falls back to the loop.
    try:
        each = quadrature._simpson_each(_elementwise(fn), fn, a, b, tol)
    except QuadratureFailureError as exc:
        each = str(exc)
    else:
        each = np.array(each).tobytes()
    assert each == _reference_loop(fn, intervals, tol, 40)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_nan_delta_splits_until_the_batch_stalls(bad):
    # abs(nan) <= tol is false, so the recursion splits; `abs(nan) > tol`
    # would call it converged and return nan.  An infinite value makes
    # the delta inf - inf = nan.  The batch warns nowhere: the float
    # operations it stands for are silent.
    def fn(x):
        return bad if x > 0.5 else 1.0

    expected = _reference_loop(fn, [(0.0, 1.0)], 1e-6, 5)
    assert expected.startswith("adaptive quadrature stalled on")
    assert "residual nan" in expected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailureError) as exc:
            quadrature._simpson_batch(_elementwise(fn), [0.0], [1.0], 1e-6, 5)
    assert str(exc.value) == expected


def test_a_zero_width_interval_is_positive_zero_in_a_batch():
    out = quadrature._simpson_batch(lambda xs: -np.ones_like(xs),
                                    [0.0, -0.0, 1.0], [-0.0, 0.0, 2.0])
    assert out.tobytes() == np.array([0.0, 0.0, -1.0]).tobytes()


def test_a_batch_wider_than_its_bound_falls_back_to_the_loop():
    fn = INTEGRANDS["smooth"]((1.0, 1.0, 3.0))
    a, b = [-4.0] * 8, [4.0, 3.0, 2.0, 1.0, -1.0, -2.0, -3.0, 3.5]
    # At most 2 live intervals per input interval: 16 for these 8.
    with mock.patch.object(quadrature, "WIDTH_PER_INTERVAL", 2):
        with pytest.raises(quadrature._TooWide):
            quadrature._simpson_batch(_elementwise(fn), a, b, 1e-10)
        each = quadrature._simpson_each(_elementwise(fn), fn, a, b, 1e-10)
    assert each == [adaptive_simpson(fn, ai, bi, 1e-10) for ai, bi in zip(a, b)]


def test_a_long_batch_runs_as_one_with_the_same_bits():
    # The width bound scales with the input, so a long list of intervals
    # is one batch, as a GRW construct's t-samples on a fine grid are.
    fn = INTEGRANDS["smooth"]((1.0, 0.5, 0.7))
    rng = np.random.default_rng(7)
    a, b = rng.uniform(-1.5, 1.5, (2, 389))
    b[::9] = a[::9]
    expected = _reference_loop(fn, zip(a.tolist(), b.tolist()), 1e-10, 40)
    got = quadrature._simpson_batch(_elementwise(fn), a, b, 1e-10)
    assert got.tobytes() == expected


@pytest.mark.parametrize("a, b, tol, message", [
    ([0.0], [1.0], 0.0, "tolerance must be positive"),
    ([0.0], [1.0], float("nan"), "tolerance must be positive"),
    ([0.0, float("inf")], [1.0, 1.0], 1e-10, "limits must be finite"),
    ([0.0], [float("nan")], 1e-10, "limits must be finite"),
])
def test_a_batch_refuses_what_adaptive_simpson_refuses(a, b, tol, message):
    with pytest.raises(ValueError, match=message):
        quadrature._simpson_batch(np.sin, a, b, tol)
