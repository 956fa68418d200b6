"""Second-order jets against the finite-difference route.

The two evaluators share no code beyond expression parsing: eval_jet2
propagates value/gradient/hessian triples through the tree, while
jet_oracles.finite_diff_jet2 samples plain values on a stencil.
Agreement between them is the core correctness check for every
derivative downstream.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from solitonlab import DomainError, eval_jet2, parse_expression
from solitonlab.expressions import EXP_ARG_MAX, Call, Integral, Mul, ScalarField, Var

from conftest import elementwise, random_field
from jet_oracles import finite_diff_jet2

CHART = ("u", "v", "w")


def test_jet_of_quadratic_is_exact():
    f = parse_expression("3*u^2 + 2*u*v - w^2 + 5", CHART)
    p = np.array([1.2, -0.7, 0.4])
    jet = eval_jet2(f, p)
    assert abs(jet.value - (3 * 1.44 + 2 * 1.2 * -0.7 - 0.16 + 5)) < 1e-14
    expected_grad = np.array([6 * 1.2 + 2 * -0.7, 2 * 1.2, -0.8])
    assert np.abs(jet.gradient - expected_grad).max() < 1e-14
    expected_hess = np.array([[6.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, -2.0]])
    assert np.abs(jet.hessian - expected_hess).max() < 1e-14


def test_jet_hessian_is_bitwise_symmetric():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.2, 1.2, (6, 3))
    for _ in range(25):
        field, jets = random_field(rng, CHART, pts)
        for jet in jets:
            assert np.array_equal(jet.hessian, jet.hessian.T)


def test_jets_match_finite_differences_on_random_expressions():
    rng = np.random.default_rng(20240214)
    pts = rng.uniform(-1.5, 1.5, (8, 3))
    for _ in range(30):
        field, jets = random_field(rng, CHART, pts)
        for p, jet in zip(pts, jets):
            fd = finite_diff_jet2(field, p, h=1e-4)
            scale = max(
                1.0,
                abs(jet.value),
                np.abs(jet.gradient).max(),
                np.abs(jet.hessian).max(),
            )
            err = max(
                abs(fd.value - jet.value),
                np.abs(fd.gradient - jet.gradient).max(),
                np.abs(fd.hessian - jet.hessian).max(),
            )
            assert err <= 1e-8 + 1e-6 * scale


def test_finite_difference_step_scales_with_coordinate_size():
    f = parse_expression("u^2", ("u",))
    p = np.array([1.0e6])
    fd = finite_diff_jet2(f, p, h=1e-5)
    assert abs(fd.gradient[0] - 2.0e6) < 1e-2
    assert abs(fd.hessian[0, 0] - 2.0) < 1e-4


def test_mixed_partials_of_known_function():
    f = parse_expression("sin(u*v)", CHART)
    p = np.array([0.6, -0.9, 0.0])
    jet = eval_jet2(f, p)
    u, v = p[0], p[1]
    assert abs(jet.hessian[0, 1] - (np.cos(u * v) - u * v * np.sin(u * v))) < 1e-13
    fd = finite_diff_jet2(f, p)
    assert abs(fd.hessian[0, 1] - jet.hessian[0, 1]) < 1e-6


def test_division_jet_matches_quotient_rule():
    f = parse_expression("u / (v + 2)", CHART)
    p = np.array([1.4, -0.3, 0.0])
    jet = eval_jet2(f, p)
    v2 = p[1] + 2.0
    assert abs(jet.gradient[0] - 1.0 / v2) < 1e-14
    assert abs(jet.gradient[1] + p[0] / v2**2) < 1e-14
    assert abs(jet.hessian[1, 1] - 2.0 * p[0] / v2**3) < 1e-14
    assert abs(jet.hessian[0, 1] + 1.0 / v2**2) < 1e-14


def test_jet_domain_errors():
    f = parse_expression("1 / u", CHART)
    with pytest.raises(DomainError):
        eval_jet2(f, (0.0, 1.0, 1.0))
    g = parse_expression("ln(u)", CHART)
    with pytest.raises(DomainError):
        eval_jet2(g, (0.0, 1.0, 1.0))
    h = parse_expression("sqrt(u)", CHART)
    with pytest.raises(DomainError):
        eval_jet2(h, (0.0, 1.0, 1.0))
    k = parse_expression("exp(u)", CHART)
    with pytest.raises(DomainError):
        eval_jet2(k, (1.0e4, 1.0, 1.0))


def test_exp_overflows_at_one_threshold_in_both_evaluators():
    f = parse_expression("exp(u)", CHART)
    for x in (709.5, EXP_ARG_MAX):
        value = f((x, 1.0, 1.0))
        assert np.isfinite(value)
        assert abs(eval_jet2(f, (x, 1.0, 1.0)).value - value) <= 1e-15 * value
    for x in (709.9, np.nextafter(EXP_ARG_MAX, np.inf)):
        with pytest.raises(DomainError, match="overflow in exp"):
            f((x, 1.0, 1.0))
        with pytest.raises(DomainError, match="overflow in exp"):
            eval_jet2(f, (x, 1.0, 1.0))


def test_ln_and_sqrt_at_zero_in_both_evaluators():
    ln_u = parse_expression("ln(u)", CHART)
    with pytest.raises(DomainError, match="non-positive"):
        ln_u((0.0, 1.0, 1.0))
    with pytest.raises(DomainError, match="non-positive"):
        eval_jet2(ln_u, (0.0, 1.0, 1.0))
    # sqrt(0) has a value, but its first derivative is infinite.
    sqrt_u = parse_expression("sqrt(u)", CHART)
    assert sqrt_u((0.0, 1.0, 1.0)) == 0.0
    with pytest.raises(DomainError):
        eval_jet2(sqrt_u, (0.0, 1.0, 1.0))


def test_sqrt_jet_matches_finite_differences_at_positive_arguments():
    f = parse_expression("sqrt(1 + u*u + v)", CHART)
    for p in ([0.3, -0.2, 0.0], [-1.1, 0.7, 0.5], [0.0, -0.5, 1.0]):
        jet = eval_jet2(f, p)
        assert jet.value == np.sqrt(1.0 + p[0] * p[0] + p[1])
        fd = finite_diff_jet2(f, p, h=1e-4)
        err = max(np.abs(fd.gradient - jet.gradient).max(),
                  np.abs(fd.hessian - jet.hessian).max())
        assert err <= 1e-6


def test_fractional_powers_at_zero_in_both_evaluators():
    # 0^c = 0 for c > 0, but a derivative of u^c is infinite at 0 for
    # fractional c below 2; above 2 the whole jet vanishes there.
    at_zero = (0.0, 1.0, 1.0)
    for source in ("u^0.5", "u^1.5"):
        f = parse_expression(source, CHART)
        assert f(at_zero) == 0.0
        with pytest.raises(DomainError,
                           match=r"^fractional power jet needs a positive base"):
            eval_jet2(f, at_zero)
    f = parse_expression("u^2.5", CHART)
    assert f(at_zero) == 0.0
    jet = eval_jet2(f, at_zero)
    assert jet.value == 0.0
    assert not jet.gradient.any() and not jet.hessian.any()
    g = parse_expression("u^(-0.5)", CHART)
    with pytest.raises(DomainError, match="zero raised to a negative power"):
        g(at_zero)
    with pytest.raises(DomainError, match="zero raised to a negative power"):
        eval_jet2(g, at_zero)


@pytest.mark.parametrize("func", ["sin", "cos"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sin_and_cos_of_an_infinite_argument_in_both_evaluators(func, sign):
    # u*v overflows to +-inf before the call; the jet would carry NaN.
    f = parse_expression(f"{func}(u*v) + w", CHART)
    point = (1e308, 10.0 * sign, 0.0)
    message = f"{func} of an infinite argument"
    with pytest.raises(DomainError) as plain:
        f(point)
    assert str(plain.value) == message
    with pytest.raises(DomainError) as jet:
        eval_jet2(f, point)
    assert str(jet.value) == f"{message} at {list(point)}"


def test_power_overflow_is_a_domain_error_in_both_evaluators():
    f = parse_expression("u^3", CHART)
    with pytest.raises(DomainError, match="overflow in power"):
        f((1.0e200, 1.0, 1.0))
    with pytest.raises(DomainError, match="overflow in power"):
        eval_jet2(f, (1.0e200, 1.0, 1.0))


def test_integral_node_jets_differentiate_its_integrand():
    # sin(u) v, with sin(u) the integral of cos from 0: the u gradient
    # entry is the integrand, the u hessian row its gradient.
    integral = Integral(Call("cos", Var("u")), "u", 0.0, elementwise(math.sin))
    field = ScalarField(("u", "v"), Mul(integral, Var("v")))
    u, v = 0.7, -1.3
    jet = eval_jet2(field, (u, v))
    assert jet.value == math.sin(u) * v
    np.testing.assert_allclose(jet.gradient, [math.cos(u) * v, math.sin(u)],
                               rtol=1e-15)
    np.testing.assert_allclose(
        jet.hessian, [[-math.sin(u) * v, math.cos(u)], [math.cos(u), 0.0]],
        rtol=1e-15)
    assert jet.hessian.tobytes() == jet.hessian.T.tobytes()
    fd = finite_diff_jet2(field, (u, v))
    np.testing.assert_allclose(fd.gradient, jet.gradient, atol=1e-9)
    np.testing.assert_allclose(fd.hessian, jet.hessian, atol=1e-5)


def test_repeated_subtrees_are_evaluated_once():
    x = parse_expression("exp(0.5*u)", ("u",))
    shared = x * x + x * x
    jet = eval_jet2(shared, (0.4,))
    e = np.exp(0.2)
    assert abs(jet.value - 2 * e * e) < 1e-14
    assert abs(jet.gradient[0] - 2 * e * e) < 1e-13


def _generated_trees():
    """Expression sources over CHART that stay inside every domain:
    denominators, ln and fractional-power bases are kept away from 0."""
    leaves = st.one_of(
        st.sampled_from(CHART),
        st.floats(-2.0, 2.0).map(lambda c: f"{c:.3f}"),
    )

    def extend(inner):
        pairs = st.tuples(inner, inner)
        return st.one_of(
            st.tuples(st.sampled_from("+-*"), inner, inner).map(
                lambda t: f"({t[1]} {t[0]} {t[2]})"),
            pairs.map(lambda t: f"({t[0]}) / (2 + sin({t[1]}))"),
            st.tuples(st.sampled_from(("exp", "sin", "cos")), inner).map(
                lambda t: f"{t[0]}(0.4*({t[1]}))"),
            st.tuples(st.sampled_from(("0.5", "1.5", "(-0.5)", "3")), inner).map(
                lambda t: f"(1.2 + ({t[1]})^2)^{t[0]}"),
            inner.map(lambda a: f"ln(1.2 + ({a})^2)"),
        )

    return st.recursive(leaves, extend, max_leaves=10)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_generated_trees(),
       st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3))
def test_jets_match_finite_differences_on_generated_trees(source, point):
    field = parse_expression(source, CHART)
    jet = eval_jet2(field, point)
    scale = max(1.0, abs(jet.value), np.abs(jet.gradient).max(),
                np.abs(jet.hessian).max())
    assume(scale <= 100.0)
    fd = finite_diff_jet2(field, point, h=1e-4)
    err = max(
        abs(fd.value - jet.value),
        np.abs(fd.gradient - jet.gradient).max(),
        np.abs(fd.hessian - jet.hessian).max(),
    )
    assert err <= 1e-8 + 1e-6 * scale


@pytest.mark.parametrize("shift", [-2, -1, 0, 1, 2])
def test_the_product_and_chain_rules_may_write_over_their_operands(shift):
    """A batch's rows may be those of operands that die at it, or
    overlap them shifted by a few rows: the rules give the bits they
    give into fresh rows."""
    from solitonlab.autodiff import _chain, _mul_rule

    class Walk:
        n = 3

    rng = np.random.default_rng(7)
    batch = 3
    jets = rng.standard_normal((12, 1 + 3 + 9, 5))
    a, b = jets[3:6], jets[7:10]
    f0, f1, f2 = rng.standard_normal((3, batch, 5))
    product, chained = np.empty((2, batch, 13, 5))
    _mul_rule(None, Walk, product, a.copy(), b.copy())
    _chain(a.copy(), f0, f1, f2, chained, 3)
    for start, rule, expected in ((3, "mul", product), (7, "mul", product),
                                  (3, "chain", chained)):
        buffer = jets.copy()
        a, b = buffer[3:6], buffer[7:10]
        out = buffer[start + shift:start + shift + batch]
        if rule == "mul":
            _mul_rule(None, Walk, out, a, b)
        else:
            _chain(a, f0, f1, f2, out, 3)
        assert out.tobytes() == expected.tobytes()
