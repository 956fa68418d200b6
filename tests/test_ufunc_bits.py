"""The numpy facts plain evaluation relies on for sin, cos and sqrt.

A compiled field evaluates sin, cos and sqrt as one numpy ufunc call
over the whole array, and constant folding runs the same step on a
constant.  Its values must have the bits of math.sin, math.cos and
math.sqrt, which a field had when each element went through math, so
a numpy whose kernels round one of them differently fails here by the
name of the function, before it moves the bytes of a CSV report.  exp
and ln stay on math, mapped element by element: numpy's exp and log
may dispatch to SIMD kernels that differ from libm in the last bit.

The guards run before the ufunc and raise the errors math gave: sin and
cos refuse an infinite argument, sqrt a negative one.
"""

import math

import numpy as np
import pytest

from solitonlab import DomainError, parse_expression
from solitonlab.expressions import Const, call

FUNCTIONS = {"sin": (np.sin, math.sin), "cos": (np.cos, math.cos),
             "sqrt": (np.sqrt, math.sqrt)}


def _arguments():
    """A seeded sample: signed zeros, subnormals, NaN, multiples of pi
    and of pi/2, and magnitudes from 1e-300 up to 1e308, of both signs."""
    rng = np.random.default_rng(2024)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               -2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, float("nan"), -float("nan")]
    magnitudes = rng.standard_normal(20_000) \
        * 10.0 ** rng.integers(-300, 308, 20_000)
    pis = np.pi * rng.integers(-10**9, 10**9, 5_000) * 0.5
    small = rng.uniform(-10.0, 10.0, 20_000)
    bits = rng.integers(0, 2**52, 5_000, dtype=np.uint64).view(float)
    return np.concatenate([special, magnitudes, pis, small, bits, -bits])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("func", sorted(FUNCTIONS))
def test_the_ufunc_has_the_bits_of_math(func):
    ufunc, scalar = FUNCTIONS[func]
    x = _arguments()
    if func == "sqrt":
        x = x[~(x < 0.0)]
    expected = [scalar(v) for v in x.tolist()]
    with np.errstate(invalid="ignore"):
        got = ufunc(x)
    mismatched = np.flatnonzero(_bits(got) != _bits(expected))
    assert not mismatched.size, f"{func} differs at {x[mismatched[:5]]}"


@pytest.mark.parametrize("func", sorted(FUNCTIONS))
def test_a_field_evaluates_with_the_bits_of_math(func):
    _, scalar = FUNCTIONS[func]
    x = _arguments()
    x = x[np.isfinite(x)]
    if func == "sqrt":
        x = np.abs(x)
    assert len(x) > 50_000
    field = parse_expression(f"{func}(x)", ("x",))
    got = field.compiled_arrays(x)
    assert _bits(got).tolist() == _bits([scalar(v) for v in x.tolist()]).tolist()
    # Folded constants take the same step.
    for v in x[:200].tolist():
        assert _bits(call(func, Const(v)).value) == _bits(scalar(v))


@pytest.mark.parametrize("func", ["sin", "cos"])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_sin_and_cos_refuse_an_infinite_argument(func, value):
    message = f"^{func} of an infinite argument$"
    field = parse_expression(f"{func}(x)", ("x",))
    with pytest.raises(DomainError, match=message):
        field.compiled_arrays(np.array([0.5, value, 1.0]))
    with pytest.raises(DomainError, match=message):
        field((value,))
    with pytest.raises(DomainError, match=message):
        call(func, Const(value))


@pytest.mark.parametrize("value", [-1.0, -5e-324, -math.inf])
def test_sqrt_refuses_a_negative_argument(value):
    message = "^sqrt of a negative argument$"
    field = parse_expression("sqrt(x)", ("x",))
    with pytest.raises(DomainError, match=message):
        field.compiled_arrays(np.array([4.0, value]))
    with pytest.raises(DomainError, match=message):
        field((value,))
    with pytest.raises(DomainError, match=message):
        call("sqrt", Const(value))


def test_sqrt_keeps_the_sign_of_zero():
    assert _bits(call("sqrt", Const(-0.0)).value) == _bits(-0.0)
    field = parse_expression("sqrt(x)", ("x",))
    assert _bits(field.compiled_arrays(np.array([-0.0, 0.0]))).tolist() \
        == _bits([-0.0, 0.0]).tolist()


def test_a_constant_folds_through_the_parser_with_the_same_errors():
    with pytest.raises(DomainError, match="^sin of an infinite argument$"):
        parse_expression("sin(1e308*10)", ("x",))
    with pytest.raises(DomainError, match="^sqrt of a negative argument$"):
        parse_expression("x + sqrt(0 - 2)", ("x",))
