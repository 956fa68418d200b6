"""The compiled field, over arrays and at one point, against an
independent tree walker.

reference() below walks the tree node by node with its own copy of the
domain rules (division by zero, powers, exp/ln/sqrt, sin/cos of an
infinite argument, non-finite results).  It shares no code with
solitonlab's evaluator, so agreement on random trees, bit for bit and
error for error, is evidence rather than a restatement.
"""

import gc
import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import (
    DomainError,
    SolitonLabError,
    UnknownVariableError,
    parse_expression,
)
from solitonlab.expressions import (
    Add,
    Call,
    Const,
    Div,
    Integral,
    Mul,
    Neg,
    Pow,
    ScalarField,
    Sub,
    Var,
    evaluate,
)

from conftest import elementwise

CHART = ("x", "y")
CONSTANTS = (0.0, -0.0, 1.0, -1.0, 0.5, 3.0, -2.5, 1e-300, 1e308)
COORDINATES = (0.0, -0.0, 1.0, -1.0, 0.25, 2.0, -3.0, 700.0, 1e300)
EXPONENTS = (2.0, 3.0, -1.0, -2.0, 0.5, 1.5, -0.5, 0.0)
FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt")
PROFILES = tuple(map(elementwise, (math.atan, math.acos, lambda v: 1)))


def _ref_pow(base, exponent):
    if exponent == int(exponent):
        if base == 0.0 and exponent < 0.0:
            raise DomainError("zero raised to a negative power")
        exponent = int(exponent)
    elif base < 0.0:
        raise DomainError("fractional power of a negative base")
    elif base == 0.0 and exponent < 0.0:
        raise DomainError("zero raised to a negative power")
    try:
        return base ** exponent
    except OverflowError:
        raise DomainError("overflow in power") from None


def _ref_call(func, x):
    if func == "exp":
        if x > math.log(sys.float_info.max):
            raise DomainError("overflow in exp")
        return math.exp(x)
    if func == "ln":
        if x <= 0.0:
            raise DomainError("ln of a non-positive argument")
        return math.log(x)
    if func == "sqrt":
        if x < 0.0:
            raise DomainError("sqrt of a negative argument")
        return math.sqrt(x)
    if math.isinf(x):
        raise DomainError(f"{func} of an infinite argument")
    return {"sin": math.sin, "cos": math.cos}[func](x)


def _walk(node, env, memo):
    if id(node) in memo:
        return memo[id(node)]
    if isinstance(node, Const):
        out = node.value
    elif isinstance(node, Var):
        out = env[node.name]
    elif isinstance(node, Neg):
        out = -_walk(node.arg, env, memo)
    elif isinstance(node, Add):
        out = _walk(node.left, env, memo) + _walk(node.right, env, memo)
    elif isinstance(node, Sub):
        out = _walk(node.left, env, memo) - _walk(node.right, env, memo)
    elif isinstance(node, Mul):
        out = _walk(node.left, env, memo) * _walk(node.right, env, memo)
    elif isinstance(node, Div):
        den = _walk(node.den, env, memo)
        if den == 0.0:
            raise DomainError("division by zero")
        out = _walk(node.num, env, memo) / den
    elif isinstance(node, Pow):
        out = _ref_pow(_walk(node.base, env, memo), node.exponent)
    elif isinstance(node, Call):
        out = _ref_call(node.func, _walk(node.arg, env, memo))
    else:
        out = float(node.running(np.array([env[node.var]]))[0])
    memo[id(node)] = out
    return out


def reference(node, env):
    out = _walk(node, {k: float(v) for k, v in env.items()}, {})
    if not math.isfinite(out):
        raise DomainError("expression evaluated to a non-finite value")
    return out


def outcome(fn):
    """The type and float64 bytes of fn(), or the type and message it
    raised."""
    try:
        value = fn()
        return type(value), struct.pack("<d", value)
    except (SolitonLabError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def trees(draw):
    """A random expression DAG: operands are drawn from every node built
    so far, so subtrees are shared by identity."""
    leaves = st.one_of(st.sampled_from(CONSTANTS).map(Const),
                       st.sampled_from(CHART).map(Var))
    pool = [draw(leaves), draw(leaves)]

    def operand():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(
            ("leaf", "neg", "add", "sub", "mul", "div", "pow", "call",
             "integral")))
        if kind == "leaf":
            node = draw(leaves)
        elif kind == "neg":
            node = Neg(operand())
        elif kind in ("add", "sub", "mul", "div"):
            cls = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind]
            node = cls(operand(), operand())
        elif kind == "pow":
            node = Pow(operand(), draw(st.sampled_from(EXPONENTS)))
        elif kind == "call":
            node = Call(draw(st.sampled_from(FUNCTIONS)), operand())
        else:
            # An integrand reads its integral's variable alone.
            var = draw(st.sampled_from(CHART))
            integrands = [n for n in pool if n.reads <= {var}] or [Const(1.0)]
            node = Integral(draw(st.sampled_from(integrands)), var, 0.0,
                            draw(st.sampled_from(PROFILES)))
        pool.append(node)
    return pool[-1]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(trees(), st.sampled_from(COORDINATES), st.sampled_from(COORDINATES))
def test_compiled_field_matches_the_reference_walk(root, x, y):
    env = {"x": x, "y": y}
    expected = outcome(lambda: reference(root, env))
    assert outcome(lambda: ScalarField(CHART, root)((x, y))) == expected
    assert outcome(lambda: evaluate(root, env)) == expected


def test_denominator_is_evaluated_before_numerator():
    field = parse_expression("ln(x)/(y - 1)", CHART)
    with pytest.raises(DomainError, match="division by zero"):
        field((-1.0, 1.0))
    with pytest.raises(DomainError, match="ln of a non-positive argument"):
        field((-1.0, 2.0))


def test_a_shared_integral_is_read_once_per_evaluation():
    seen = []

    def running(v):
        seen.append(v)
        return 2.0 * v

    shared = Integral(Const(2.0), "x", 0.0, elementwise(running))
    field = ScalarField(CHART, Mul(Add(shared, Var("y")), Neg(shared)))
    assert field((1.5, 1.0)) == -12.0
    assert seen == [1.5]
    assert field((0.5, 0.0)) == -1.0
    assert seen == [1.5, 0.5]


def test_an_integral_never_evaluates_its_integrand():
    # 1/x fails at x = 0, but the integral's value reads its running
    # integrals alone.
    integral = Integral(Div(Const(1.0), Var("x")), "x", 1.0,
                        elementwise(lambda v: 3.0))
    field = ScalarField(CHART, Add(integral, Var("y")))
    assert field((0.0, 1.0)) == 4.0
    assert field.compiled_arrays(np.zeros(2), np.ones(2)).tolist() == [4.0, 4.0]


def test_non_finite_result_raises():
    field = parse_expression("x*y", CHART)
    with pytest.raises(DomainError, match="non-finite"):
        field((1e308, 10.0))


def test_evaluate_with_a_missing_variable_raises():
    with pytest.raises(UnknownVariableError, match="'y'"):
        evaluate(Add(Var("x"), Var("y")), {"x": 1.0})


def test_signed_zero_constant_keeps_its_sign():
    assert struct.pack("<d", ScalarField(CHART, Const(-0.0))((1.0, 1.0))) \
        == struct.pack("<d", -0.0)


def test_a_dropped_compile_leaves_nothing_for_the_cyclic_collector():
    gc.disable()
    try:
        gc.collect()
        field = parse_expression("sin(x)*exp(y)/(2+x)", CHART)
        fn = field.compiled_arrays
        assert fn(np.array([0.5]), np.array([0.25]))[0] == field((0.5, 0.25))
        del fn, field
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("func", ["sin", "cos"])
@pytest.mark.parametrize("y", [10.0, -10.0])
def test_sin_and_cos_of_an_infinite_argument_are_domain_errors(func, y):
    root = Call(func, Mul(Var("x"), Var("y")))
    expected = (DomainError, f"{func} of an infinite argument")
    assert outcome(lambda: reference(root, {"x": 1e308, "y": y})) == expected
    assert outcome(lambda: ScalarField(CHART, root)((1e308, y))) == expected
    # Constant folding at parse time applies the same rule.
    assert outcome(lambda: parse_expression(f"{func}(1e308*{y})", CHART)) \
        == expected


# The array mode (ScalarField.compiled_arrays) against the reference
# walk: at every point the same bits, and an error exactly when the walk
# raises at some point.  The array mode runs under
# np.errstate(all="ignore"), as its callers run it; any other warning
# fails the test.

def _array_outcome(field, xs, ys):
    """The array mode's float64 bytes at each point, or the type of what
    it raised; any warning is an error."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        try:
            values = field.compiled_arrays(np.array(xs), np.array(ys))
        except (SolitonLabError, ArithmeticError, ValueError) as exc:
            return type(exc)
    assert values.shape == (len(xs),)
    return [struct.pack("<d", v) for v in values.tolist()]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(trees(), st.lists(st.tuples(st.sampled_from(COORDINATES),
                                   st.sampled_from(COORDINATES)),
                         min_size=1, max_size=6))
def test_the_array_mode_matches_the_compiled_field_at_every_point(root, points):
    field = ScalarField(CHART, root)
    walked = [outcome(lambda p=p: reference(root, dict(zip(CHART, p))))
              for p in points]
    got = _array_outcome(field, *zip(*points))
    raised = {kind for kind, _ in walked if kind is not float}
    if not raised:
        assert got == [value for _, value in walked]
    else:
        assert got in raised
        if all(issubclass(kind, SolitonLabError) for kind in raised):
            assert issubclass(got, SolitonLabError)


def _one_point_outcomes(field, x, y):
    """A call of the field, a one-row at_points and the array mode on
    one-element arrays, each as outcome() gives it.  The first two are
    entry points that silence numpy's warnings themselves; the array
    mode runs under np.errstate(all="ignore"), as its callers run it."""
    def arrays():
        with np.errstate(all="ignore"):
            return float(field.compiled_arrays(np.array([x]), np.array([y]))[0])

    return [outcome(lambda: field((x, y))),
            outcome(lambda: float(field.at_points([[x, y]])[0])),
            outcome(arrays)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(trees(), st.sampled_from(COORDINATES), st.sampled_from(COORDINATES))
def test_one_point_has_the_bits_and_the_error_of_the_array_mode(root, x, y):
    field = ScalarField(CHART, root)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call, row, arrays = _one_point_outcomes(field, x, y)
    assert call == row == arrays


@pytest.mark.parametrize("call", [
    lambda field: field((400.0, 1.0)),
    lambda field: field.at_points([[1.0, 1.0], [400.0, 1.0]]),
    lambda field: evaluate(field.root, {"x": 400.0, "y": 1.0}),
], ids=["call", "at_points", "evaluate"])
def test_an_entry_point_silences_numpy_outside_any_errstate(call):
    # exp(400) is finite and its square overflows in numpy's multiply,
    # which warns unless the entry point silences it; only the final
    # finite check may speak.  With warnings as errors at_points would
    # still raise the DomainError, from its one-row-at-a-time rerun, so
    # the warnings are also recorded.
    field = parse_expression("exp(x)*exp(x)*y", CHART)
    assert np.geterr()["over"] == "warn"
    for action in ("error", "always"):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter(action)
            with pytest.raises(DomainError,
                               match="expression evaluated to a non-finite value"):
                call(field)
        assert seen == []


@pytest.mark.parametrize("root, bits", [
    (Const(-0.0), -0.0), (Const(2.5), 2.5), (Neg(Var("x")), -0.0),
    (Mul(Var("x"), Const(-1.0)), -0.0), (Add(Var("y"), Const(-0.0)), 1.0)])
def test_one_point_keeps_signed_zeros_and_constant_roots(root, bits):
    field = ScalarField(CHART, root)
    want = (float, struct.pack("<d", bits))
    assert _one_point_outcomes(field, 0.0, 1.0) == [want] * 3
    assert outcome(lambda: evaluate(root, {"x": 0.0, "y": 1.0})) == want


@pytest.mark.parametrize("value", [0.0, -0.0, 2.5])
def test_a_constant_field_over_arrays_has_the_shape_of_its_points(value):
    field = ScalarField(CHART, Const(value))
    out = field.compiled_arrays(np.array([1.0, 2.0, 3.0]), np.zeros(3))
    assert out.tobytes() == np.full(3, value).tobytes()


def test_the_array_mode_does_not_hand_back_its_argument():
    xs = np.array([1.0, -0.0])
    out = parse_expression("x", CHART).compiled_arrays(xs, xs)
    assert out is not xs
    assert out.tobytes() == xs.tobytes()


def test_the_array_mode_calls_a_profile_once_with_the_whole_array():
    # The profile is an integral's running integrals.
    seen = []

    def running(v):
        seen.append(v.copy())
        return 2 * v

    field = ScalarField(CHART, Add(Integral(Const(2.0), "x", 0.0, running),
                                   Var("y")))
    out = field.compiled_arrays(np.array([1.5, -0.5]), np.array([1.0, 1.0]))
    assert out.tolist() == [4.0, 0.0]
    assert [v.tolist() for v in seen] == [[1.5, -0.5]]
    # One point is a one-element array.
    assert field((0.25, 1.0)) == 1.5
    assert [v.tolist() for v in seen[1:]] == [[0.25]]
