"""The metric and its curvature are computed once per distinct metric
point (curvature.curvature_over), and a command line check once per
distinct point of the coordinates the metric, the potential and the
report's fields read (grids.distinct_points).

Two points are one point when the coordinates read have the same
float64 bits.  Sharing must not show: every field equals, bit for bit,
a pass over the full stack without sharing, and a report has the bytes
of one.  np.array_equal counts 0.0 and -0.0 as equal, so the
comparisons here are on the bits.  Errors keep the point, message and
exit code of a pass without sharing.
"""

import hashlib
import json
from pathlib import Path

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
from solitonlab.grids import distinct_points
from solitonlab.metrics import MetricField
from solitonlab.soliton import point_geometry

from conftest import count_calls

CHART = ("a", "b", "c")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
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


def test_distinct_points_keeps_stack_order_and_signed_zeros():
    points = np.array([[1.0, 5.0], [0.0, 6.0], [-0.0, 7.0], [1.0, 8.0],
                       [0.0, 9.0]])
    groups = distinct_points(points, [0])
    assert groups.first.tolist() == [0, 1, 2]
    assert groups.of.tolist() == [0, 1, 2, 0, 1]
    assert same_bits(groups.points, points[[0, 1, 2]])
    assert same_bits(groups.gather(np.array([10.0, 20.0, 30.0])),
                     [10.0, 20.0, 30.0, 10.0, 20.0])
    # Every point its own group: the stack goes through as it is.
    alone = distinct_points(points, [0, 1])
    assert alone.points is points and alone.of is None
    assert alone.gather(points) is points


def dict_groups(points, axes):
    """The groups of a stack by a plain dict keyed by the bytes of the
    read coordinates: each group's first stack index, and each point's
    group."""
    numbers, first, of = {}, [], []
    for index, row in enumerate(points[:, axes]):
        key = row.tobytes()
        if key not in numbers:
            numbers[key] = len(first)
            first.append(index)
        of.append(numbers[key])
    return first, of


# 0.0 and -0.0, and NaNs with four different bit patterns, among
# ordinary values.
GROUPING_VALUES = np.array(
    [0.0, -0.0, 1.5, -2.0, np.inf, np.nan, -np.nan]
    + [np.array(bits, np.uint64).view(float)
       for bits in (0x7FF0000000000001, 0x7FF8000000000123)])


@pytest.mark.parametrize("seed", range(8))
def test_distinct_points_groups_as_a_dict_of_row_bytes(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    rows = GROUPING_VALUES[rng.integers(0, len(GROUPING_VALUES), (8, n))]
    points = rows[rng.integers(0, len(rows), int(rng.integers(1, 40)))]
    for axes in ([], [0], list(range(n)), list(range(n))[::-1],
                 sorted(set(rng.integers(0, n, 2).tolist()))):
        first, of = dict_groups(points, axes)
        groups = distinct_points(points, axes)
        assert groups.first.tolist() == first
        if len(first) == len(points):
            assert groups.points is points and groups.of is None
        else:
            assert groups.of.tolist() == of
            assert groups.points.tobytes() == points[first].tobytes()


def test_an_error_over_the_groups_carries_the_stack_index():
    points = np.array([[1.0, 5.0], [0.0, 6.0], [1.0, 7.0], [2.0, 8.0]])
    groups = distinct_points(points, [0])

    def check(q):
        raise DomainError("bad", index=2)

    with pytest.raises(DomainError, match="^bad$") as caught:
        groups.run(check)
    assert caught.value.index == 3


# A check computes once per distinct point of the coordinates that the
# metric, the potential and the report's fields read.  The outcomes
# below (exit code, stdout, stderr, the CSV's sha256) were recorded
# before the check grouped more than the metric; the walks count the
# points at which the potential's jet is evaluated.

def verify_job(tmp_path, monkeypatch, capsys, config, potential, *flags):
    """Run verify on ``config``; return the exit code, stdout, stderr,
    the CSV's sha256 (None if none was written) and the size of each
    jet walk of ``potential`` alone."""
    if isinstance(config, dict):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        config = path
    walks = count_calls(monkeypatch, "autodiff", "walk_jets")
    out = tmp_path / "report.csv"
    code = main(["verify", str(config), "--out", str(out), *flags])
    captured = capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    sizes = [len(points) for fields, points in walks
             if [field.root for field in fields] == [potential.root]]
    return code, captured.out, captured.err, digest, sizes


def custom_config(chart, metric, potential, grid, **extra):
    return {"family": "custom", "chart": list(chart), "metric": metric,
            "signature": "+" * len(chart), "potential": potential,
            "grid": grid, **extra}


def test_a_signed_zero_only_the_potential_reads_is_its_own_row_group(
        tmp_path, monkeypatch, capsys):
    # The metric reads x, the potential y, nothing reads z; y runs over
    # -1, -0.5 and -0.0, so the 12 grid points are 6 distinct points.
    chart = ("x", "y", "z")
    config = custom_config(
        chart, [["2 + x", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "y^3 + y", {"x": [-1.0, 1.0, 2], "y": [-1.0, -0.0, 3],
                    "z": [-1.0, 1.0, 2]})
    potential = parse_expression("y^3 + y", chart)
    assert verify_job(tmp_path, monkeypatch, capsys, config, potential) == (
        1, "FAIL max_residual=5.000000000000e+00 at (-1, -1, -1)\n", "",
        "65cd80813255baff9a3f75081368b95be485f043e53933e51a3284c2604d8096",
        [6])
    rows = (tmp_path / "report.csv").read_text().splitlines()[2:]
    assert [row.split(",")[1] for row in rows[4:6]] == ["-0.000000000000e+00"] * 2
    assert rows[4].split(",")[3:] != rows[2].split(",")[3:]


def test_a_fail_in_a_later_group_names_its_first_grid_point(
        tmp_path, monkeypatch, capsys):
    # The potential reads x alone: groups start at grid points 0, 3 and
    # 6, and the residual is largest in the last, at x = 1.
    chart = ("x", "y")
    config = custom_config(
        chart, [["1", "0"], ["0", "1"]], "x^3 + 3*x^2",
        {"x": [-1.0, 1.0, 3], "y": [-1.0, 1.0, 3]}, constants={"lambda": 0.0})
    potential = parse_expression("x^3 + 3*x^2", chart)
    assert verify_job(tmp_path, monkeypatch, capsys, config, potential) == (
        1, "FAIL max_residual=1.200000000000e+01 at (1, -1)\n", "",
        "c2945bf96d1c05a2e0e53976460976931737666e7b0ca84870629a79652540f7",
        [3])


def test_the_lambda_mean_is_taken_over_every_grid_point(
        tmp_path, monkeypatch, capsys):
    # The samples sum to rounding noise: their mean over the 3 distinct
    # points reads -1.850371707709e-17, over the 21 grid points
    # -2.114710523096e-17.
    chart = ("x", "y")
    potential = "-0.2*x^2 + 0.4/6*x^3 + 0.05*x^4"
    config = custom_config(chart, [["1", "0"], ["0", "1"]], potential,
                           {"x": [-1.0, 1.0, 3], "y": [-1.0, 1.0, 7]},
                           tolerance=10.0)
    assert verify_job(tmp_path, monkeypatch, capsys, config,
                      parse_expression(potential, chart)) == (
        0, "PASS lambda=-2.114710523096e-17 class=steady\n", "",
        "63ec27667666ad15ad7d5308d70c332c3e8c413ca080d412e09bf8378bc90293",
        [3])


def test_a_potential_error_in_a_later_group_is_the_unshared_error(
        tmp_path, monkeypatch, capsys):
    # 1/x fails first at grid point 3, the first point of the second
    # group; the pass then reruns the one group before it.
    chart = ("x", "y")
    config = custom_config(chart, [["1", "0"], ["0", "1"]], "1/x",
                           {"x": [-1.0, 1.0, 3], "y": [-1.0, 1.0, 3]})
    potential = parse_expression("1/x", chart)
    assert verify_job(tmp_path, monkeypatch, capsys, config, potential) == (
        3, "", "numeric error: division by zero at [0.0, -1.0]\n", None,
        [3, 1])


@pytest.mark.parametrize("name, grid, chart, potential, walked, digest", [
    # The metric reads x2 and the potential x1: 40 x 40 of 40^3 points.
    ("static_verify", "40", ("t", "x1", "x2"), "x1", [1600],
     "49d751bd693fd1342c74ac09b469fe6f36ca1c489762ee2bdfe45a7597ee5a85"),
    # Metric and potential read t alone: 20 of 20^4 points.
    ("grw_gqy_verify", "20", ("t", "x1", "x2", "x3"), "-6*ln(t)", [20],
     "2d93d36b0fe2a6ab722d6cf565da98e8d6214164954cdb846ec2f61c906bc04d"),
])
def test_a_large_grid_walks_the_potential_once_per_distinct_point(
        tmp_path, monkeypatch, capsys, name, grid, chart, potential, walked,
        digest):
    config = CONFIGS / f"{name}.json"
    code, out, err, got, sizes = verify_job(
        tmp_path, monkeypatch, capsys, config,
        parse_expression(potential, chart), "--grid", grid)
    assert (code, err, got, sizes) == (0, "", digest, walked)
    assert out.startswith("PASS ")


@pytest.mark.parametrize("config, groupings", [
    # The metric reads t, every axis the potential reads: the check's
    # groups are one per metric point already, and the metric's
    # grouping of them joins none.
    ("grw_gqy_verify", [([0], True), ([0], False)]),
    # The metric reads x2 and the potential x1: the metric's groups of
    # the check's groups join points that differ in x1.
    ("static_verify", [([1, 2], True), ([2], True)]),
])
def test_a_check_groups_by_the_metric_only_where_a_field_reads_more(
        tmp_path, monkeypatch, capsys, config, groupings):
    # Each grouping's axes, and whether it joins any points.
    calls = count_calls(monkeypatch, "grids", "distinct_points")
    code = main(["verify", str(CONFIGS / f"{config}.json"),
                 "--out", str(tmp_path / "report.csv")])
    assert code == 0
    assert [(list(axes), distinct_points(points, axes).of is not None)
            for points, axes in calls] == groupings
