"""Parsing, printing, algebraic simplification and symbolic derivatives."""

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from solitonlab import (
    DomainError,
    ExpressionSyntaxError,
    ScalarField,
    SolitonLabError,
    UnknownVariableError,
    constant_field,
    parse_expression,
)

from solitonlab.expressions import (Const, Integral, Mul, Var, differentiate,
                                    format_expression)

from conftest import random_expression

CHART = ("x", "y")


def test_numbers_and_coordinates_evaluate():
    f = parse_expression("2.5", CHART)
    assert f((0.3, -0.7)) == 2.5
    g = parse_expression("y", CHART)
    assert g((0.3, -0.7)) == -0.7


def test_arithmetic_precedence():
    f = parse_expression("1 + 2*3", CHART)
    assert f((0.0, 0.0)) == 7.0
    g = parse_expression("2*x^2", CHART)
    assert g((3.0, 0.0)) == 18.0
    h = parse_expression("-x^2", CHART)
    assert h((3.0, 0.0)) == -9.0
    k = parse_expression("10 - 4 - 3", CHART)
    assert k((0.0, 0.0)) == 3.0
    m = parse_expression("12 / 3 / 2", CHART)
    assert m((0.0, 0.0)) == 2.0


def test_power_binds_tighter_than_unary_minus_and_folds():
    f = parse_expression("x^-2", CHART)
    assert f((2.0, 0.0)) == 0.25
    g = parse_expression("x^(1 + 1)", CHART)
    assert g((3.0, 0.0)) == 9.0


def test_non_constant_exponent_is_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x^y", CHART)


def test_function_calls():
    f = parse_expression("exp(ln(x))", CHART)
    assert abs(f((1.7, 0.0)) - 1.7) < 1e-15
    g = parse_expression("sin(x)^2 + cos(x)^2", CHART)
    assert abs(g((0.83, 0.0)) - 1.0) < 1e-15
    h = parse_expression("sqrt(x^2)", CHART)
    assert h((1.5, 0.0)) == 1.5


def test_unknown_variable_reports_name_and_offset():
    with pytest.raises(UnknownVariableError) as info:
        parse_expression("x + zz", CHART)
    assert info.value.name == "zz"
    assert info.value.offset == 4


def test_unknown_function_is_a_syntax_error():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("tanh(x)", CHART)


def test_syntax_error_offsets():
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression("x + * y", CHART)
    assert info.value.offset == 4
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(x + y", CHART)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("", CHART)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x y", CHART)


def test_a_digit_float_cannot_read_is_a_syntax_error():
    # '²' passes str.isdigit but float() rejects it.
    for source, offset in [("2²", 1), ("x + ²", 4), ("1e²", 0)]:
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression(source, CHART)
        assert info.value.offset == offset
    # Decimal digits of other scripts are numbers, as float() reads them.
    assert str(parse_expression("\u0663*x", CHART)) == "3*x"
    assert str(parse_expression("1.\u0665", CHART)) == "1.5"


def test_duplicate_chart_names_rejected():
    with pytest.raises(ValueError):
        parse_expression("x", ("x", "x"))


def test_division_by_literal_zero_fails_at_parse():
    with pytest.raises(DomainError):
        parse_expression("x / 0", CHART)


def test_domain_errors_at_evaluation():
    f = parse_expression("1 / x", CHART)
    with pytest.raises(DomainError):
        f((0.0, 0.0))
    g = parse_expression("ln(x)", CHART)
    with pytest.raises(DomainError):
        g((-1.0, 0.0))
    h = parse_expression("sqrt(x)", CHART)
    with pytest.raises(DomainError):
        h((-4.0, 0.0))
    k = parse_expression("x^0.5", CHART)
    with pytest.raises(DomainError):
        k((-4.0, 0.0))


def test_integer_powers_allow_negative_base():
    f = parse_expression("x^3", CHART)
    assert f((-2.0, 0.0)) == -8.0
    g = parse_expression("x^-1", CHART)
    assert g((-2.0, 0.0)) == -0.5


def test_constant_folding_in_printing():
    assert str(parse_expression("0 + x", CHART)) == "x"
    assert str(parse_expression("1 * y", CHART)) == "y"
    assert str(parse_expression("x - x", CHART)) == "0"
    assert str(parse_expression("2 + 3", CHART)) == "5"
    assert str(parse_expression("-(-x)", CHART)) == "x"
    assert str(parse_expression("x^1", CHART)) == "x"
    assert str(parse_expression("x^0", CHART)) == "1"


def test_printing_round_trip_preserves_values():
    rng = np.random.default_rng(42)
    sources = [
        "x*(y + 2)",
        "(x + y)^3 / (y^2 + 1.5)",
        "-x * sin(y) + cos(x*y)",
        "exp(0.3*x) - sqrt(y^2 + 1)",
    ]
    for source in sources:
        f = parse_expression(source, CHART)
        g = parse_expression(str(f), CHART)
        for _ in range(10):
            p = rng.uniform(-1.5, 1.5, 2)
            assert abs(f(p) - g(p)) < 1e-14


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_formatted_trees_reparse_to_the_same_text_and_bits(seed):
    rng = np.random.default_rng(seed)
    try:
        f = parse_expression(random_expression(rng, CHART, 4), CHART)
    except SolitonLabError:
        assume(False)
    text = format_expression(f.root)
    g = parse_expression(text, CHART)
    assert format_expression(g.root) == text
    for p in rng.uniform(-2.0, 2.0, (5, 2)):
        assert _bits_or_error(f, p) == _bits_or_error(g, p)


def _bits_or_error(field, point):
    try:
        return struct.pack("<d", field(point))
    except SolitonLabError as exc:
        return type(exc), str(exc)


def test_derivative_of_polynomial():
    f = parse_expression("x^3 + 2*x*y", CHART)
    fx = f.diff("x")
    fy = f.diff("y")
    assert abs(fx((2.0, 1.5)) - (3 * 4.0 + 2 * 1.5)) < 1e-14
    assert abs(fy((2.0, 1.5)) - 4.0) < 1e-14


def test_derivative_chain_rules():
    f = parse_expression("sin(x^2)", CHART)
    d = f.diff("x")
    x = 0.83
    assert abs(d((x, 0.0)) - 2 * x * np.cos(x * x)) < 1e-14
    g = parse_expression("ln(x^2 + 1)", CHART)
    dg = g.diff("x")
    assert abs(dg((x, 0.0)) - 2 * x / (x * x + 1)) < 1e-14
    h = parse_expression("sqrt(x)", CHART)
    dh = h.diff("x")
    assert abs(dh((4.0, 0.0)) - 0.25) < 1e-14


def test_derivative_of_quotient():
    f = parse_expression("x / (y + 2)", CHART)
    dy = f.diff("y")
    assert abs(dy((3.0, 1.0)) - (-3.0 / 9.0)) < 1e-14


def test_an_integral_differentiates_to_its_integrand():
    # d/dx of the integral of x^2 from 1 is x^2, in x alone; the memo
    # is not called.
    integrand = parse_expression("x^2", CHART).root
    node = Integral(integrand, "x", 1.0, None)
    field = ScalarField(CHART, Mul(Var("y"), node))
    assert field.diff("x").root is Mul(Var("y"), integrand)
    assert field.diff("y").root is node
    assert differentiate(node, "y") is Const(0.0)


def test_an_integral_prints_as_a_call_of_its_integrand_variable_and_base():
    node = Integral(parse_expression("1 + t^2", ("t",)).root, "t", -0.5, None)
    field = ScalarField(("t",), Mul(Const(0.5), node))
    assert str(field) == "0.5*integral(1 + t^2, t, -0.5)"


def test_with_chart_extends_and_validates():
    f = parse_expression("x + 1", ("x",))
    g = f.with_chart(("x", "y"))
    assert g((2.0, 9.0)) == 3.0
    with pytest.raises(UnknownVariableError):
        f.with_chart(("y",))


def test_constant_field_ignores_the_point():
    c = constant_field(CHART, 4.25)
    assert c((100.0, -3.0)) == 4.25


def test_fields_reject_points_of_wrong_arity():
    f = parse_expression("x + y", CHART)
    with pytest.raises(ValueError):
        f((1.0,))
