"""The value-numbered jet walk over the components of a metric.

metric_at evaluates all components in one walk in which each
structurally distinct subtree is evaluated once.  That is an
evaluation order only: every entry must equal, bit for bit, the jet
of its component walked on its own, and errors must be those a walk
per component, point by point, meets first.  Keys that are equal
under == but differ in bits, and integrals of one integrand from one
base point, must not merge.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from solitonlab import (
    DomainError,
    SingularMetricError,
    eval_jet2,
    grid_points,
    metric_at,
)
from solitonlab import autodiff
from solitonlab.autodiff import walk_jets
from solitonlab.expressions import Add, Const, Integral, Pow, ScalarField, Var
from solitonlab.metrics import MetricField

from conftest import count_calls, elementwise, random_field
from test_stacks import CASES

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def _shared_3d():
    """A deep random 3d metric whose six entries share one subtree.

    Every entry is its own text, so the shared subtree is parsed six
    times into distinct objects and can merge only by structure.
    """
    chart = ("u", "v", "w")
    rng = np.random.default_rng(402)
    points = rng.uniform(-1.0, 1.0, (7, 3))
    common = str(random_field(rng, chart, points, depth=5)[0])
    own = [str(random_field(rng, chart, points, depth=3)[0]) for _ in range(6)]
    diag = [f"3 + 0.3*sin(({common})*({e}))" for e in own[:3]]
    off = [f"0.3*sin({common} - ({e}))" for e in own[3:]]
    metric = MetricField.from_rows(chart, [
        [diag[0], off[0], off[1]],
        [off[0], diag[1], off[2]],
        [off[1], off[2], diag[2]],
    ], "+++")
    return metric, None, points


def _evaluated_entries(monkeypatch):
    """The tape entries the walks evaluate, one item per entry: the
    entries of every batch that autodiff._evaluate runs."""
    original = autodiff._evaluate
    entries = []

    def counted(batch, walk):
        entries.extend(batch.entries)
        return original(batch, walk)

    monkeypatch.setattr(autodiff, "_evaluate", counted)
    return entries


def _subtrees(node):
    """Every subtree of ``node``, with repeats, by a walk of its own."""
    out = [node]
    for name in ("arg", "left", "right", "num", "den", "base"):
        child = getattr(node, name, None)
        if child is not None:
            out += _subtrees(child)
    return out


@pytest.mark.parametrize("case", ["shared-3d", *CASES])
def test_the_shared_walk_equals_a_walk_per_component(case):
    metric, _, points = _shared_3d() if case == "shared-3d" else CASES[case]()
    data = metric_at(metric, points)
    n = metric.dimension
    for i in range(n):
        for j in range(n):
            jet = eval_jet2(metric.components[i][j], points)
            assert np.array_equal(data.g[:, i, j], jet.value)
            assert np.array_equal(data.dg[:, :, i, j], jet.gradient)
            assert np.array_equal(data.d2g[:, :, :, i, j], jet.hessian)


def test_the_shared_metric_builds_one_jet_per_distinct_subtree(monkeypatch):
    metric, _, points = _shared_3d()
    roots = [metric.components[i][j].root for i in range(3) for j in range(i, 3)]
    nodes = [s for root in roots for s in _subtrees(root)]
    built = _evaluated_entries(monkeypatch)
    metric_at(metric, points)
    assert len(built) == len(set(nodes)) < len(nodes) // 2


def test_signed_zero_constants_do_not_merge():
    chart = ("x",)
    points = np.array([[-0.0], [1.0]])
    plus = ScalarField(chart, Add(Var("x"), Const(0.0)))
    minus = ScalarField(chart, Add(Var("x"), Const(-0.0)))
    a, b = walk_jets([plus, minus], points)
    # -0.0 + 0.0 is 0.0, -0.0 + -0.0 is -0.0.
    assert not np.signbit(a.value[0]) and np.signbit(b.value[0])
    for field, jet in [(plus, a), (minus, b)]:
        alone = eval_jet2(field, points)
        assert np.array_equal(np.signbit(jet.value), np.signbit(alone.value))


def test_exponents_equal_under_eq_but_not_in_bits_do_not_merge():
    chart = ("x",)
    points = np.array([[2.0], [3.0]])
    fields = [ScalarField(chart, Pow(Var("x"), c))
              for c in (0.0, -0.0, 3.0, math.nextafter(3.0, 4.0))]
    jets = walk_jets(fields, points)
    # x^0 has gradient 0 * x^-1: +0.0 for c = 0.0, -0.0 for c = -0.0.
    assert not np.signbit(jets[0].gradient).any()
    assert np.signbit(jets[1].gradient).all()
    assert not np.array_equal(jets[2].value, jets[3].value)
    for field, jet in zip(fields, jets):
        alone = eval_jet2(field, points)
        for got, want in [(jet.value, alone.value), (jet.gradient, alone.gradient),
                          (jet.hessian, alone.hessian)]:
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_integrals_with_one_integrand_and_different_memos_do_not_merge():
    chart = ("x",)
    points = np.array([[0.5], [2.0]])
    fields = [ScalarField(chart, Integral(Var("x"), "x", 0.0, elementwise(fn)))
              for fn in (lambda t: t * t, lambda t: t ** 3)]
    a, b = walk_jets(fields, points)
    assert np.array_equal(a.value, [0.25, 4.0])
    assert np.array_equal(b.value, [0.125, 8.0])
    assert np.array_equal(b.gradient[:, 0], [0.5, 2.0])


def _first_error_point_by_point(metric, points):
    """The error a loop over the points meets first, and its index."""
    for k, point in enumerate(points):
        try:
            metric_at(metric, point)
        except (DomainError, SingularMetricError) as exc:
            return type(exc), str(exc), k
    raise AssertionError("no point fails")


@pytest.mark.parametrize("rows, points, kind, message, index", [
    # ln(x) is shared by both entries and fails first in walk order, at
    # point 2; 1/y in the second entry fails earlier in the grid.
    ([["2 + sin(ln(x))", "0"], ["0", "(2 + sin(ln(x)))/(2 + 1/y)"]],
     [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
     DomainError, "division by zero at [1.0, 0.0]", 1),
    # The shared ln(y) fails at point 2 while the walk runs; g is
    # singular at point 1, which is checked only after the walk.
    ([["x^2*(2 + sin(ln(y)))", "0"], ["0", "2 + sin(ln(y))"]],
     [[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
     SingularMetricError, "metric is singular at [0.0, 1.0] (det = 0.000e+00)", 1),
    # Only the shared subtree fails.
    ([["2 + sin(ln(x))", "0"], ["0", "3 + cos(ln(x))"]],
     [[1.0, 1.0], [0.5, 0.0], [0.0, 1.0], [-1.0, 1.0]],
     DomainError, "ln of a non-positive argument at [0.0, 1.0]", 2),
])
def test_errors_in_a_shared_subtree_name_the_first_bad_point(rows, points, kind,
                                                             message, index):
    metric = MetricField.from_rows(("x", "y"), rows, "++")
    with pytest.raises(kind) as caught:
        metric_at(metric, np.array(points))
    assert str(caught.value) == message
    assert caught.value.index == index
    assert _first_error_point_by_point(metric, points) == (kind, message, index)


def test_shared_jobs_parse_six_texts_and_build_one_jet_per_distinct_subtree(
        monkeypatch):
    # A deterministic guard on the work of the first curvature-deep
    # block at seed 401: counts, not times.
    jobs = [job for job in workloads.first_jobs("curvature-deep", 401,
                                                workloads.BLOCK)
            if job.facts["shared"]]
    assert len(jobs) == 6
    parses = count_calls(monkeypatch, "expressions", "parse_expression")
    built = _evaluated_entries(monkeypatch)
    for job in jobs:
        config = job.config
        del parses[:], built[:]
        metric = MetricField.from_rows(config["chart"], config["metric"],
                                       config["signature"])
        assert len(parses) == 6
        grid = {name: tuple(spec) for name, spec in config["grid"].items()}
        metric_at(metric, grid_points(metric.chart, grid))
        roots = [metric.components[i][j].root for i in range(3) for j in range(i, 3)]
        nodes = [s for root in roots for s in _subtrees(root)]
        assert len(built) == len(set(nodes)) < len(nodes)
