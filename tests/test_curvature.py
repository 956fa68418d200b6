"""Curvature pipeline against closed forms and the finite-difference
oracle from conftest.

Closed-form targets used here:

  * round sphere of radius r: scalar curvature 2/r^2, Ricci = (1/r^2) g
  * flat space in any signature: everything vanishes identically
  * product -dt^2 + w(t)^2 delta_s: scalar curvature
    2 s w''/w + s(s-1)(w'/w)^2
  * null-slice 3d metric: scalar curvature equals the tt second
    derivative of the metric function
"""

import numpy as np
import pytest

from solitonlab import (
    SingularMetricError,
    covariant_hessian,
    curvature_at,
    curvature_from,
    flat_metric,
    metric_at,
    parse_expression,
    point_geometry,
    sphere_metric,
    MetricField,
)
from solitonlab.families import (
    GRWSpec,
    Walker3Spec,
    assemble_warped_metric,
    walker3_metric,
)
from solitonlab.autodiff import eval_jet2
from solitonlab.curvature import curvature_over

from conftest import fd_curvature, random_metric_rows


def test_sphere_scalar_curvature():
    p = np.array([np.pi / 4, 0.3])
    for radius in (1.0, 2.0, 1.7):
        curv = curvature_at(sphere_metric(radius), p)
        assert abs(curv.scalar - 2.0 / radius**2) < 1e-12


def test_sphere_christoffel_closed_forms():
    curv = curvature_at(sphere_metric(1.0), np.array([np.pi / 4, 0.9]))
    u = np.pi / 4
    assert abs(curv.gamma[0, 1, 1] + np.sin(u) * np.cos(u)) < 1e-14
    assert abs(curv.gamma[1, 0, 1] - np.cos(u) / np.sin(u)) < 1e-14
    assert abs(curv.gamma[1, 1, 0] - np.cos(u) / np.sin(u)) < 1e-14
    assert abs(curv.gamma[0, 0, 0]) < 1e-15


def test_sphere_ricci_is_proportional_to_the_metric():
    m = sphere_metric(1.4)
    p = np.array([1.1, 2.0])
    curv = curvature_at(m, p)
    data = metric_at(m, p)
    assert np.abs(curv.ricci - data.g / 1.4**2).max() < 1e-12


def test_flat_curvature_is_exactly_zero():
    for signature in (None, "-++", "--++"):
        chart = ("a", "b", "c", "d")[: 3 if signature != "--++" else 4]
        m = flat_metric(chart, signature)
        curv = curvature_at(m, np.zeros(len(chart)))
        assert np.abs(curv.riemann).max() == 0.0
        assert np.abs(curv.ricci).max() == 0.0
        assert curv.scalar == 0.0


def test_cosmological_product_scalar_curvature():
    w = parse_expression("t", ("t",))
    spec = GRWSpec(w, flat_metric(("x1", "x2", "x3")), (1.0, 2.0))
    g = assemble_warped_metric(spec)
    for t in (1.0, 1.3, 2.0):
        curv = curvature_at(g, np.array([t, 0.1, -0.2, 0.4]))
        assert abs(curv.scalar - 6.0 / t**2) < 1e-11
        assert abs(curv.ricci[0, 0]) < 1e-12
        for a in (1, 2, 3):
            assert abs(curv.ricci[a, a] - 2.0) < 1e-11


def test_exponential_warping_gives_constant_scalar_curvature():
    w = parse_expression("exp(t)", ("t",))
    spec = GRWSpec(w, flat_metric(("x1", "x2")), (0.0, 1.0))
    g = assemble_warped_metric(spec)
    curv = curvature_at(g, np.array([0.6, 0.3, -0.8]))
    assert abs(curv.scalar - 6.0) < 1e-10


def test_null_slice_scalar_curvature_is_second_time_derivative():
    q = parse_expression("t^2*y + 0.4*t*x + 0.1*x*y", ("t", "x", "y"))
    m = walker3_metric(Walker3Spec(q))
    rng = np.random.default_rng(8)
    for _ in range(5):
        p = rng.uniform(-1.0, 1.0, 3)
        curv = curvature_at(m, p)
        q_tt = eval_jet2(q, p).hessian[0, 0]
        assert abs(curv.scalar - q_tt) < 1e-12


def test_pipeline_matches_finite_difference_oracle():
    chart = ("x", "y")
    m = MetricField.from_rows(
        chart,
        [
            ["1 + 0.2*x^2 + 0.1*sin(y)", "0.15*x*y"],
            ["0.15*x*y", "1 + 0.1*exp(0.4*x)"],
        ],
        "++",
    )
    rng = np.random.default_rng(17)
    for _ in range(4):
        p = rng.uniform(-0.9, 0.9, 2)
        curv = curvature_at(m, p)
        gamma_fd, riemann_fd, ricci_fd, scalar_fd = fd_curvature(m, p)
        assert np.abs(curv.gamma - gamma_fd).max() < 1e-8
        assert np.abs(curv.riemann - riemann_fd).max() < 1e-5
        assert np.abs(curv.ricci - ricci_fd).max() < 1e-5
        assert abs(curv.scalar - scalar_fd) < 1e-5


def test_lorentzian_pipeline_matches_finite_difference_oracle():
    q = parse_expression("t*x + 0.3*y^2 + 0.1*t^2*y", ("t", "x", "y"))
    m = walker3_metric(Walker3Spec(q))
    p = np.array([0.4, -0.3, 0.7])
    curv = curvature_at(m, p)
    gamma_fd, riemann_fd, ricci_fd, scalar_fd = fd_curvature(m, p)
    assert np.abs(curv.gamma - gamma_fd).max() < 1e-8
    assert np.abs(curv.ricci - ricci_fd).max() < 1e-5
    assert abs(curv.scalar - scalar_fd) < 1e-5


def test_riemann_symmetries_and_first_bianchi():
    """On a walker3 metric and on random positive-definite non-diagonal
    3d metrics."""
    q = parse_expression("t^2*y + 0.4*t*x^2 + 0.2*x*y^2", ("t", "x", "y"))
    walker3 = walker3_metric(Walker3Spec(q))
    rng = np.random.default_rng(23)
    cases = [(walker3, rng.uniform(-1.0, 1.0, 3)) for _ in range(5)]
    chart = ("u", "v", "w")
    for seed in (31, 32, 33):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-1.0, 1.0, (4, 3))
        rows = random_metric_rows(rng, chart, points)
        m = MetricField.from_rows(chart, rows, "+++")
        cases += [(m, p) for p in points]
    for m, p in cases:
        curv = curvature_at(m, p)
        data = metric_at(m, p)
        lowered = np.einsum("la,akij->lkij", data.g, curv.riemann)
        assert np.abs(lowered + lowered.transpose(0, 1, 3, 2)).max() < 1e-9
        assert np.abs(lowered + lowered.transpose(1, 0, 2, 3)).max() < 1e-9
        assert np.abs(
            lowered - lowered.transpose(2, 3, 0, 1)
        ).max() < 1e-9
        bianchi = (
            curv.riemann
            + curv.riemann.transpose(0, 2, 3, 1)
            + curv.riemann.transpose(0, 3, 1, 2)
        )
        assert np.abs(bianchi).max() < 1e-9
        assert np.abs(curv.ricci - curv.ricci.T).max() < 1e-10


def test_covariant_hessian_reduces_to_plain_hessian_on_flat_space():
    f = parse_expression("x^2*y + sin(y)", ("x", "y"))
    m = flat_metric(("x", "y"))
    p = np.array([0.7, -0.4])
    data = metric_at(m, p)
    hess = covariant_hessian(f, data)
    assert np.abs(hess - eval_jet2(f, p).hessian).max() < 1e-14


def test_covariant_hessian_on_the_sphere():
    m = sphere_metric(1.0)
    f = parse_expression("cos(u)", ("u", "v"))
    u = 1.1
    data = metric_at(m, (u, 0.5))
    hess = covariant_hessian(f, data)
    assert abs(hess[0, 0] + np.cos(u)) < 1e-13
    assert abs(hess[1, 1] + np.sin(u) ** 2 * np.cos(u)) < 1e-13
    assert abs(hess[0, 1]) < 1e-13


def test_gradient_with_raised_index():
    m = flat_metric(("t", "x"), "-+")
    f = parse_expression("t", ("t", "x"))
    geometry = point_geometry(m, f, [(0.3, 0.8)])
    grad = geometry.g_inv[0] @ geometry.dphi[0]
    norm2 = geometry.dphi[0] @ grad
    assert np.abs(grad - np.array([-1.0, 0.0])).max() < 1e-15
    assert abs(norm2 + 1.0) < 1e-15


def test_laplacian_of_first_spherical_harmonic():
    for radius in (1.0, 1.6):
        m = sphere_metric(radius)
        f = parse_expression("cos(u)", ("u", "v"))
        lap = point_geometry(m, f, [(0.9, 0.2)]).lap[0]
        assert abs(lap + 2.0 / radius**2 * np.cos(0.9)) < 1e-12


def _bits(array):
    return np.asarray(array, dtype=float).view(np.uint64)


def test_an_unshared_stack_gives_the_bits_of_one_full_stack_pass():
    # Every point reads its own metric point, -0.0 against 0.0 too, so
    # curvature_over passes the stack through as it is.
    metric = MetricField.from_rows(("a", "b", "c"), [
        ["2 + sin(a*b)", "0.3*cos(c)", "0"],
        ["0.3*cos(c)", "3 + a*c", "0.1*b"],
        ["0", "0.1*b", "2 + exp(-c*c)"],
    ], "+++")
    points = np.array([[0.0, 0.5, -0.3], [-0.0, 0.5, -0.3], [0.7, -0.2, 0.1],
                       [0.7, -0.2, 0.4], [-0.6, 0.9, 0.0]])
    data = metric_at(metric, points)
    curv = curvature_from(data)
    grid = curvature_over(metric, points)
    for got, want in [(grid.g, data.g), (grid.g_inv, data.g_inv),
                      (grid.gamma, curv.gamma), (grid.ricci, curv.ricci),
                      (grid.scalar, curv.scalar)]:
        assert np.array_equal(_bits(got), _bits(want))


def test_an_unshared_stack_names_its_first_bad_point():
    metric = MetricField.from_rows(("a", "b"), [["a", "0"], ["0", "1"]], "++")
    points = np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 2.0], [-0.0, 3.0]])
    with pytest.raises(SingularMetricError) as caught:
        curvature_over(metric, points)
    assert caught.value.index == 2
    assert str(caught.value).startswith("metric is singular at [0.0, 2.0]")
