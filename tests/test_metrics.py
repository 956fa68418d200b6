"""Metric construction, pointwise evaluation and its failure modes."""

import numpy as np
import pytest

from solitonlab import (
    MetricField,
    SignatureMismatchError,
    SingularMetricError,
    flat_metric,
    metric_at,
    sphere_metric,
)
from solitonlab.families import Walker3Spec, walker3_metric
from solitonlab.metrics import parse_signature
from solitonlab.expressions import parse_expression

from conftest import metric_values


def test_parse_signature_variants():
    assert parse_signature("++") == (1, 1)
    assert parse_signature("-+++") == (-1, 1, 1, 1)
    assert parse_signature("(-, +, +)") == (-1, 1, 1)
    with pytest.raises(ValueError):
        parse_signature("+0+")
    with pytest.raises(ValueError):
        parse_signature("")


def test_from_rows_accepts_numbers_strings_and_fields():
    chart = ("x", "y")
    f = parse_expression("x*y", chart)
    m = MetricField.from_rows(chart, [[1, "x*y"], [f, 2.0]], "++")
    assert m.components[0][1] is m.components[1][0]
    assert m.components[0][1]((2.0, 3.0)) == 6.0


def test_from_rows_rejects_asymmetric_and_misshaped_input():
    chart = ("x", "y")
    with pytest.raises(ValueError):
        MetricField.from_rows(chart, [["1", "x"], ["y", "1"]], "++")
    with pytest.raises(ValueError):
        MetricField.from_rows(chart, [["1", "0"]], "++")
    with pytest.raises(ValueError):
        MetricField.from_rows(chart, [["1", "0"], ["0", "1"]], "+")


def test_metric_at_derivative_layout():
    chart = ("x", "y")
    m = MetricField.from_rows(
        chart, [["1 + x^2", "x*y"], ["x*y", "2 + y^2"]], "++"
    )
    p = np.array([0.4, -0.8])
    data = metric_at(m, p)
    assert abs(data.g[0, 0] - 1.16) < 1e-15
    assert abs(data.dg[0, 0, 0] - 0.8) < 1e-15
    assert abs(data.dg[1, 0, 1] - 0.4) < 1e-15
    assert abs(data.d2g[0, 1, 0, 1] - 1.0) < 1e-15
    assert abs(data.d2g[0, 0, 0, 0] - 2.0) < 1e-15
    identity = data.g @ data.g_inv
    assert np.abs(identity - np.eye(2)).max() < 1e-14


def test_metric_derivatives_match_finite_differences_of_values():
    chart = ("x", "y")
    m = MetricField.from_rows(
        chart,
        [["1 + 0.3*sin(x)", "0.2*x*y"], ["0.2*x*y", "2 + 0.1*exp(0.5*y)"]],
        "++",
    )
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(5):
        p = rng.uniform(-1.0, 1.0, 2)
        data = metric_at(m, p)
        for k in range(2):
            step = np.zeros(2)
            step[k] = h
            fd = (metric_values(m, p + step) - metric_values(m, p - step)) / (2 * h)
            assert np.abs(fd - data.dg[k]).max() < 1e-9


def test_singular_metric_is_rejected():
    chart = ("x",)
    m = MetricField.from_rows(chart, [["x"]], "+")
    with pytest.raises(SingularMetricError):
        metric_at(m, (0.0,))


def test_a_small_multiple_of_the_identity_is_not_singular():
    # det = 1e-16, but g is as well conditioned as the identity.
    chart = ("a", "b", "c", "d")
    m = MetricField.from_rows(
        chart, [[1e-4 if i == j else 0.0 for j in range(4)] for i in range(4)],
        "++++")
    data = metric_at(m, (0.0, 0.0, 0.0, 0.0))
    assert np.array_equal(data.g_inv, 1e4 * np.eye(4))


def test_an_ill_conditioned_metric_is_singular_at_any_scale():
    # det = 1e5, condition number about 4e11.
    m = MetricField.from_rows(("x", "y"), [[1e8, 1e8], [1e8, 1e8 + 1e-3]], "++")
    with pytest.raises(SingularMetricError,
                       match=r"^metric is singular at \[0.0, 0.0\] \(det = "):
        metric_at(m, (0.0, 0.0))
    scaled = MetricField.from_rows(("x", "y"), [["1e-8", "1e-8"],
                                                ["1e-8", "1e-8 + 1e-19"]], "++")
    with pytest.raises(SingularMetricError):
        metric_at(scaled, (0.0, 0.0))


def test_signature_mismatch_is_rejected():
    chart = ("x",)
    m = MetricField.from_rows(chart, [["x"]], "+")
    with pytest.raises(SignatureMismatchError):
        metric_at(m, (-0.5,))


def test_flat_metric_values():
    m = flat_metric(("a", "b", "c"), "-++")
    data = metric_at(m, (0.0, 0.0, 0.0))
    assert np.array_equal(data.g, np.diag([-1.0, 1.0, 1.0]))
    assert np.abs(data.dg).max() == 0.0


def test_sphere_metric_values():
    m = sphere_metric(2.0)
    u = 0.9
    data = metric_at(m, (u, 0.3))
    assert abs(data.g[0, 0] - 4.0) < 1e-15
    assert abs(data.g[1, 1] - 4.0 * np.sin(u) ** 2) < 1e-15
    with pytest.raises(SingularMetricError):
        metric_at(m, (0.0, 0.3))


def test_null_slice_metric_inverse():
    q = parse_expression("t*x + 0.3*y^2", ("t", "x", "y"))
    m = walker3_metric(Walker3Spec(q))
    p = np.array([0.5, -0.2, 0.8])
    data = metric_at(m, p)
    qv = q(p)
    expected = np.array([[-qv, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.abs(data.g_inv - expected).max() < 1e-14
    assert abs(data.det + 1.0) < 1e-14


def test_point_arity_is_checked():
    m = flat_metric(("a", "b"))
    with pytest.raises(ValueError):
        metric_at(m, (0.0,))
