"""Adaptive quadrature behavior and failure modes."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import QuadratureFailureError, adaptive_simpson


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
