"""Stacked evaluation: the leading point axis of jets, metric data and
curvature.

A stack of P points must give, bit for bit, what P one-point calls
give: the stacked path is an evaluation order, not an approximation.
Errors over a stack name the first bad point in grid order, the one a
loop over the points would meet first.
"""

import json

import numpy as np
import pytest

from solitonlab import (
    DomainError,
    GRWSpec,
    SingularMetricError,
    StaticSpec,
    Walker3Construction,
    Walker3Spec,
    Walker4Spec,
    WarpedProductSpec,
    assemble_warped_metric,
    curvature_from,
    eval_jet2,
    flat_metric,
    grid_points,
    grw_potential_field,
    metric_at,
    parse_expression,
    sphere_metric,
    walker3_construct,
    walker3_metric,
    walker4_construct,
    walker4_metric,
)
from solitonlab.cli import main
from solitonlab.expressions import sin
from solitonlab.metrics import MetricField
from solitonlab.soliton import point_geometry

from conftest import random_field


def _deep_3d():
    chart = ("u", "v", "w")
    rng = np.random.default_rng(401)
    points = rng.uniform(-1.0, 1.0, (7, 3))
    entries = [random_field(rng, chart, points, depth=5)[0] for _ in range(6)]
    diag = [3.0 + 0.3 * sin(e) for e in entries[:3]]
    off = [0.3 * sin(e) for e in entries[3:]]
    metric = MetricField.from_rows(chart, [
        [diag[0], off[0], off[1]],
        [off[0], diag[1], off[2]],
        [off[1], off[2], diag[2]],
    ], "+++")
    potential = random_field(rng, chart, points, depth=4)[0]
    return metric, potential, points


def _sphere():
    metric = sphere_metric(2.0)
    points = grid_points(metric.chart, {"u": (0.5, 2.6, 3), "v": (0.0, 3.0, 3)})
    return metric, parse_expression("cos(u) + u*v", metric.chart), points


def _flat():
    metric = flat_metric(("a", "b"))
    points = grid_points(metric.chart, {"a": (-1.0, 1.0, 3), "b": (-1.0, 1.0, 3)})
    return metric, parse_expression("a^2 - b", metric.chart), points


def _warped():
    base = MetricField.from_rows(("x",), [["1 + x^2"]], "+")
    warping = parse_expression("2 + sin(x)", ("x",))
    metric = assemble_warped_metric(WarpedProductSpec(base, sphere_metric(), warping))
    points = grid_points(metric.chart, {"x": (-1.0, 1.0, 3), "u": (0.5, 2.6, 3),
                                        "v": (0.0, 3.0, 2)})
    return metric, parse_expression("x*u + exp(0.3*v)", metric.chart), points


def _sqrt():
    metric = flat_metric(("x", "y"))
    points = grid_points(metric.chart, {"x": (-1.0, 1.0, 3), "y": (-0.5, 1.0, 3)})
    return metric, parse_expression("sqrt(1 + x*x + y)", metric.chart), points


def _grw():
    warping = parse_expression("1 + t^2/2", ("t",))
    spec = GRWSpec(warping, flat_metric(("x1", "x2", "x3")), (1.0, 2.0))
    metric = assemble_warped_metric(spec)
    potential = grw_potential_field(spec, 6.0, 1.0).with_chart(metric.chart)
    points = grid_points(metric.chart, {"t": (1.0, 2.0, 4), "x1": (-1.0, 1.0, 2),
                                        "x2": (-1.0, 1.0, 2), "x3": (0.0, 0.0, 1)})
    return metric, potential, points


def _static():
    lapse = parse_expression("exp(x2)", ("x1", "x2"))
    metric = assemble_warped_metric(StaticSpec(lapse, flat_metric(("x1", "x2"))))
    points = grid_points(metric.chart, {"t": (-1.0, 1.0, 2), "x1": (-1.0, 1.0, 3),
                                        "x2": (-1.0, 1.0, 3)})
    return metric, parse_expression("x1", metric.chart), points


def _walker3():
    eta = parse_expression("exp(y)", ("y",))
    zeta = parse_expression("0.3*x*y", ("x", "y"))
    f, q = walker3_construct(Walker3Construction(1.0, eta, zeta))
    metric = walker3_metric(Walker3Spec(q))
    points = grid_points(metric.chart, {name: (-1.0, 1.0, 3) for name in metric.chart})
    return metric, f, points


def _walker4():
    spec = Walker4Spec(parse_expression("1.1 + 0.3*sin(t)", ("t",)),
                       1.0, 1.0, 1.0, 1.0, 0.0)
    f = walker4_construct(spec)
    metric = walker4_metric(spec)
    points = grid_points(metric.chart, {name: (-1.0, 1.0, 2) for name in metric.chart})
    return metric, f, points


CASES = {
    "deep-3d": _deep_3d,
    "sphere": _sphere,
    "flat": _flat,
    "sqrt": _sqrt,
    "warped": _warped,
    "grw": _grw,
    "static": _static,
    "walker3": _walker3,
    "walker4": _walker4,
}


@pytest.mark.parametrize("case", CASES)
def test_a_stack_equals_point_by_point_calls(case):
    metric, potential, points = CASES[case]()
    data = metric_at(metric, points)
    curv = curvature_from(data)
    jet = eval_jet2(potential, points)
    geometry = point_geometry(metric, potential, points)
    assert data.g.shape == (len(points),) + data.g.shape[1:]
    for k, point in enumerate(points):
        one = metric_at(metric, point)
        one_curv = curvature_from(one)
        one_jet = eval_jet2(potential, point)
        one_geometry = point_geometry(metric, potential, [point])
        pairs = [
            (data.g[k], one.g), (data.g_inv[k], one.g_inv),
            (data.dg[k], one.dg), (data.d2g[k], one.d2g), (data.det[k], one.det),
            (curv.gamma[k], one_curv.gamma), (curv.riemann[k], one_curv.riemann),
            (curv.ricci[k], one_curv.ricci), (curv.scalar[k], one_curv.scalar),
            (jet.value[k], one_jet.value), (jet.gradient[k], one_jet.gradient),
            (jet.hessian[k], one_jet.hessian),
        ]
        pairs += [(getattr(geometry, name)[k], getattr(one_geometry, name)[0])
                  for name in ("g", "g_inv", "scal", "dphi", "hess", "lap")]
        for got, want in pairs:
            assert np.array_equal(got, want)


def test_a_single_point_keeps_its_one_point_shapes():
    metric, potential, points = _sphere()
    jet = eval_jet2(potential, points[0])
    assert isinstance(jet.value, float)
    assert jet.gradient.shape == (2,) and jet.hessian.shape == (2, 2)
    data = metric_at(metric, points[0])
    assert isinstance(data.det, float) and data.dg.shape == (2, 2, 2)
    assert isinstance(curvature_from(data).scalar, float)
    stack = eval_jet2(potential, points[:1])
    assert stack.value.shape == (1,) and stack.hessian.shape == (1, 2, 2)


def test_stacked_domain_errors_name_the_first_bad_point():
    chart = ("u", "v")
    points = np.array([[1.0, 1.0], [0.5, 2.0], [0.0, 1.0], [-1.0, 0.0], [0.0, 3.0]])
    cases = [
        ("ln(u)", "ln of a non-positive argument at [0.0, 1.0]", 2),
        ("1/(u - 0.5)", "division by zero at [0.5, 2.0]", 1),
        ("u^1.5", "fractional power jet needs a positive base at [0.0, 1.0]", 2),
        ("(u + 1)^0.5", "fractional power jet needs a positive base at [-1.0, 0.0]", 3),
        ("(u - 0.25)^2.5", "fractional power of a negative base at [0.0, 1.0]", 2),
        ("v^(-1)", "zero raised to a negative power at [-1.0, 0.0]", 3),
    ]
    for source, message, index in cases:
        with pytest.raises(DomainError) as caught:
            eval_jet2(parse_expression(source, chart), points)
        assert str(caught.value) == message
        assert caught.value.index == index


def test_a_later_node_failing_earlier_in_the_grid_is_reported_first():
    # ln(u) is walked first but fails at point 2; 1/v fails at point 1.
    field = parse_expression("ln(u) + 1/v", ("u", "v"))
    points = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError, match=r"^division by zero at \[1.0, 0.0\]$"):
        eval_jet2(field, points)
    for point in points[1:]:
        with pytest.raises(DomainError):
            eval_jet2(field, point)


def test_a_metric_singular_at_one_grid_point_names_that_point():
    metric = MetricField.from_rows(("x", "y"), [["1", "0"], ["0", "x^2"]], "++")
    points = grid_points(metric.chart, {"x": (-1.0, 1.0, 5), "y": (0.0, 1.0, 2)})
    with pytest.raises(SingularMetricError,
                       match=r"^metric is singular at \[0.0, 0.0\] \(det = 0.000e\+00\)$"):
        metric_at(metric, points)
    with pytest.raises(SingularMetricError) as caught:
        point_geometry(metric, parse_expression("y", metric.chart), points)
    assert caught.value.index == 4


def test_the_geometry_pass_reports_the_first_bad_point_over_all_stages():
    # The metric is singular at x = 0 (point 2); the potential's ln fails
    # already at x = -0.5 (point 1), which a point-by-point loop meets first.
    metric = MetricField.from_rows(("x",), [["x^2"]], "+")
    points = [[-1.0], [-0.5], [0.0], [0.5]]
    with pytest.raises(DomainError, match=r"at \[-0.5\]$"):
        point_geometry(metric, parse_expression("ln((x + 0.5)^2)", ("x",)), points)


def test_cli_exits_three_on_a_metric_singular_at_one_grid_point(tmp_path, capsys):
    config = tmp_path / "singular.json"
    config.write_text(json.dumps({
        "family": "custom", "chart": ["x", "y"],
        "metric": [["1", "0"], ["0", "x^2"]], "signature": "++",
        "grid": {"x": [-1.0, 1.0, 5], "y": [0.0, 1.0, 2]},
    }), encoding="utf-8")
    assert main(["curvature", str(config), "--out", str(tmp_path / "c.csv")]) == 3
    err = capsys.readouterr().err
    assert err == ("numeric error: metric is singular at [0.0, 0.0] "
                   "(det = 0.000e+00)\n")
