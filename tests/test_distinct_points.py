"""The metric and its curvature are computed once per distinct metric
point (curvature.curvature_over).

Two points are one metric point when the coordinates the metric reads
have the same float64 bits.  Sharing must not show: every field equals,
bit for bit, a pass over the full stack without sharing.  np.array_equal
counts 0.0 and -0.0 as equal, so the comparisons here are on the bits.
Errors keep the point, message and exit code of a pass without sharing.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import (
    DomainError,
    SingularMetricError,
    curvature_from,
    eval_jet2,
    metric_at,
    parse_expression,
)
from solitonlab.cli import main
from solitonlab.curvature import covariant_hessian_from, curvature_over
from solitonlab.metrics import MetricField
from solitonlab.soliton import point_geometry

from conftest import count_calls

CHART = ("a", "b", "c")
VALUES = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64),
                                                      want.view(np.uint64))


def unshared(metric, potential, points):
    """metric_at -> curvature_from and the potential's jet over the full
    stack, each point evaluated as its own metric point."""
    curv = curvature_from(metric_at(metric, points))
    jet = eval_jet2(potential, points)
    hess = covariant_hessian_from(jet.gradient, jet.hessian, curv.gamma)
    return curv, hess, np.einsum("...ij,...ij->...", curv.metric_data.g_inv, hess)


def assert_unshared_bits(metric, potential, points):
    curv, hess, lap = unshared(metric, potential, points)
    data = curv.metric_data
    shared = curvature_over(metric, points)
    geometry = point_geometry(metric, potential, points)
    pairs = [
        (shared.g, data.g), (shared.g_inv, data.g_inv),
        (shared.gamma, curv.gamma), (shared.ricci, curv.ricci),
        (shared.scalar, curv.scalar),
        (geometry.g, data.g), (geometry.g_inv, data.g_inv),
        (geometry.scal, curv.scalar), (geometry.hess, hess),
        (geometry.lap, lap),
    ]
    for got, want in pairs:
        assert same_bits(got, want)


@st.composite
def metrics_and_stacks(draw):
    """A metric on 2 or 3 coordinates whose entries read random subsets
    of the chart, and a stack with repeated rows and with 0.0 and -0.0
    on every coordinate."""
    n = draw(st.integers(2, 3))
    chart = CHART[:n]
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            read = draw(st.lists(st.sampled_from(chart), unique=True))
            terms = [f"sin({draw(st.sampled_from((0.7, -1.3)))}*{name})"
                     for name in read]
            terms += [f"{x}*{y}" for k, x in enumerate(read) for y in read[k + 1:]]
            body = "0.1*(" + " + ".join(terms) + ")" if terms else "0"
            rows[i][j] = rows[j][i] = f"3 + {body}" if i == j else body
    metric = MetricField.from_rows(chart, rows, "+" * n)
    drawn = draw(st.lists(st.tuples(*[st.sampled_from(VALUES)] * n),
                          min_size=1, max_size=10))
    picks = draw(st.lists(st.integers(0, len(drawn) - 1), max_size=10))
    stack = drawn + [drawn[k] for k in picks] + [(0.0,) * n, (-0.0,) * n]
    return metric, np.array(stack)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(metrics_and_stacks())
def test_sharing_gives_the_bits_of_an_unshared_pass(case):
    metric, points = case
    potential = parse_expression("a*b + b^2 + a", metric.chart)
    assert_unshared_bits(metric, potential, points)


def test_a_signed_zero_on_a_read_coordinate_is_its_own_metric_point(monkeypatch):
    metric = MetricField.from_rows(("a", "b"),
                                   [["2", "0.1*sin(a)"], ["0.1*sin(a)", "2"]],
                                   "++")
    points = np.array([[0.0, 1.0], [-0.0, 2.0], [0.0, 3.0]])
    calls = count_calls(monkeypatch, "metrics", "metric_at")
    assert_unshared_bits(metric, parse_expression("b", metric.chart), points)
    assert np.signbit(curvature_over(metric, points).g[:, 0, 1]).tolist() == [
        False, True, False]
    assert [np.shape(args[1]) for args in calls][-1] == (2, 2)


def test_points_that_differ_only_where_the_metric_does_not_read_share():
    metric = MetricField.from_rows(("a", "b"), [["1 + a^2", "0"], ["0", "1"]],
                                   "++")
    assert metric.read_axes == (0,)
    points = np.array([[0.5, 0.0], [0.5, -0.0], [0.5, 7.0], [-0.5, 7.0]])
    assert_unshared_bits(metric, parse_expression("a*b", metric.chart), points)


def custom_job(tmp_path, metric, potential):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({
        "family": "custom", "chart": ["x", "y"], "metric": metric,
        "signature": "++", "potential": potential,
        "grid": {"x": [-1.0, 1.0, 3], "y": [-1.0, 1.0, 3]},
    }), encoding="utf-8")
    return str(config)


# The grid runs over x slowly and y fast: (-1, -1), (-1, 0), (-1, 1),
# (0, -1), ...  Each message is the one a pass without sharing gives.
@pytest.mark.parametrize("metric, potential, message", [
    # g_yy is singular at y = 1 (grid point 2); 1/y fails at point 1.
    ([["1", "0"], ["0", "1 - y"]], "1/y", "division by zero at [-1.0, 0.0]"),
    # g_xx is singular at x = 1 (grid point 6, the third distinct metric
    # point); 1/x fails at point 3.
    ([["1 - x", "0"], ["0", "1"]], "1/x", "division by zero at [0.0, -1.0]"),
    # The metric fails first: at its third distinct point, grid point 6.
    ([["1 - x", "0"], ["0", "1"]], "x*y",
     "metric is singular at [1.0, -1.0] (det = 0.000e+00)"),
    # The metric reads both coordinates and fails at grid point 2.
    ([["1", "0"], ["0", "2 + x - y"]], "x*y",
     "metric is singular at [-1.0, 1.0] (det = 0.000e+00)"),
])
def test_a_failing_grid_reports_what_an_unshared_pass_reports(
        tmp_path, capsys, metric, potential, message):
    code = main(["verify", custom_job(tmp_path, metric, potential),
                 "--out", str(tmp_path / "report.csv")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"numeric error: {message}\n"


def test_an_error_carries_the_stack_index_of_its_point():
    metric = MetricField.from_rows(("x", "y"), [["1 - x", "0"], ["0", "1"]], "++")
    points = np.array([[x, y] for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0)])
    with pytest.raises(SingularMetricError) as caught:
        curvature_over(metric, points)
    assert caught.value.index == 4
    with pytest.raises(DomainError) as caught:
        point_geometry(metric, parse_expression("1/x", metric.chart), points)
    assert caught.value.index == 2
