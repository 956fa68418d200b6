"""Each family's reduced system against the tensor residual.

A reduced system rewrites the soliton equation of one family as a few
scalar equations.  Here each is evaluated at random potentials inside
its family's ansatz that are not solutions, so that every equation is
far from zero, and compared, entry by entry, with the combination of
entries of point_geometry's tensor residual it stands for.  The
generic pipeline computes Christoffel symbols from metric jets and
knows nothing about the families, so agreement checks the reduction.
The GRW system is left out: it holds only once its fiber equation's
sign is mended.
"""

import numpy as np
import pytest

from solitonlab import (
    MetricField,
    SolitonData,
    parse_expression,
    point_geometry,
    theta_substitution,
)
from solitonlab.expressions import ScalarField
from solitonlab.families import (
    StaticSpec,
    Walker3Spec,
    Walker4Spec,
    WarpedProductSpec,
    assemble_warped_metric,
    walker3_metric,
    walker4_metric,
    warped_conditions_check,
)

from conftest import random_field, random_metric_rows, static_system_residual
from jet_oracles import walker3_pde_residual, walker4_pde_residual

INSTANCES = 6


def _field(rng, chart, pts, prefix=""):
    """A random field on ``chart``, as text, that reads some coordinate."""
    field, _ = random_field(rng, chart, pts, depth=2, bound=20.0)
    while not field.root.reads:
        field, _ = random_field(rng, chart, pts, depth=2, bound=20.0)
    return f"{prefix}({field})"


def _static(rng):
    fiber_chart = ("x1", "x2")
    probes = rng.uniform(-0.9, 0.9, (3, 2))
    fiber = MetricField.from_rows(
        fiber_chart, random_metric_rows(rng, fiber_chart, probes, depth=2), "++")
    lapse = parse_expression(
        f"2 + 0.5*sin({_field(rng, fiber_chart, probes)})", fiber_chart)
    potential = parse_expression(_field(rng, fiber_chart, probes), fiber_chart)
    lam = rng.uniform(-2.0, 2.0)
    spec = StaticSpec(lapse, fiber)
    metric = assemble_warped_metric(spec)
    lifted = ScalarField(metric.chart, potential.root)
    s = fiber.dimension
    reduced, tensor = [], []
    for p in probes:
        r1, r2, r3 = static_system_residual(spec, potential, lam, p)
        geometry = point_geometry(metric, lifted, [np.concatenate([[0.3], p])])
        res = geometry.residuals(lam, 0.0)[0]
        n = lapse(p)
        fiber_block = res[1:, 1:]
        g_inv = np.linalg.inv(geometry.g[0][1:, 1:])
        reduced += [r1, *r2.ravel(), r3]
        tensor += [res[0, 0] / -n, *fiber_block.ravel(),
                   np.einsum("ij,ij->", g_inv, fiber_block) + s * res[0, 0] / (n * n)]
    return reduced, tensor


def _walker3(rng):
    chart = ("t", "x", "y")
    pts = rng.uniform(-1.0, 1.0, (3, 3))
    kappa = rng.uniform(0.5, 2.0)
    # f = kappa x + eta(y) and q = -2 t s(y) + zeta(x, y), with s not
    # eta''/eta' and zeta reading x, so no equation holds.
    eta = _field(rng, ("y",), pts[:, 2:])
    slope = _field(rng, ("y",), pts[:, 2:])
    zeta = _field(rng, ("x", "y"), pts[:, 1:], prefix="x + ")
    f = parse_expression(f"{kappa!r}*x + {eta}", chart)
    q = parse_expression(f"-2*t*{slope} + {zeta}", chart)
    spec = Walker3Spec(q)
    metric = walker3_metric(spec)
    lam = rng.uniform(-2.0, 2.0)
    reduced, tensor = [], []
    for p in pts:
        r = point_geometry(metric, f, [p]).residuals(lam, 0.0)[0]
        reduced += list(walker3_pde_residual(spec, f, p))
        tensor += [r[0, 0], r[0, 1], r[1, 2], r[1, 1] - r[0, 2],
                   r[2, 2] - q(p) * r[1, 1]]
    return reduced, tensor


WALKER4_ENTRIES = ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (0, 3), (2, 3),
                   (0, 2), (1, 3), (3, 3))


def _walker4(rng):
    chart = ("x", "y", "z", "t")
    pts = rng.uniform(-1.0, 1.0, (3, 4))
    c0, c1, c2, c3 = rng.uniform(-1.5, 1.5, 4).tolist()
    warping = parse_expression(
        f"1 + 0.5*sin({_field(rng, ('t',), pts[:, 3:])})", ("t",))
    # f = x (c0 z + c2) + y (c0 t + c1) + c3 z + p(t), p random.
    profile = _field(rng, ("t",), pts[:, 3:])
    f = parse_expression(
        f"x*({c0!r}*z + {c2!r}) + y*({c0!r}*t + {c1!r}) + {c3!r}*z + {profile}",
        chart)
    spec = Walker4Spec(warping)
    metric = walker4_metric(spec)
    reduced, tensor = [], []
    for p in pts:
        geometry = point_geometry(metric, f, [p])
        # The traceless part of Hess(f): the equation's part free of lam.
        traceless = geometry.hess[0] - geometry.lap[0] / 4.0 * geometry.g[0]
        reduced += list(walker4_pde_residual(spec, f, p))
        tensor += [traceless[i, j] for i, j in WALKER4_ENTRIES]
    return reduced, tensor


def _warped(rng):
    base_chart, fiber_chart = ("a", "b"), ("u", "v")
    base_pts = rng.uniform(-0.9, 0.9, (2, 2))
    fiber_pts = rng.uniform(-0.9, 0.9, (2, 2))
    base = MetricField.from_rows(
        base_chart, random_metric_rows(rng, base_chart, base_pts, depth=2), "++")
    fiber = MetricField.from_rows(
        fiber_chart, random_metric_rows(rng, fiber_chart, fiber_pts, depth=2), "++")
    warping = parse_expression(
        f"2 + 0.5*sin({_field(rng, base_chart, base_pts)})", base_chart)
    chart = base_chart + fiber_chart
    potential = parse_expression(_field(rng, base_chart, base_pts), chart)
    soliton = SolitonData(potential, rng.uniform(-2.0, 2.0), rng.uniform(0.3, 1.5))
    metric = assemble_warped_metric(WarpedProductSpec(base, fiber, warping))
    theta = theta_substitution(potential, soliton.mu)
    m = 1.0 / soliton.mu
    reduced, tensor = [], []
    for x in base_pts:
        gaps = warped_conditions_check(base, fiber, warping, soliton, [x],
                                       fiber_pts)
        point = np.concatenate([x, fiber_pts[0]])
        geometry = point_geometry(metric, theta, [point])
        # Hess(theta) + (theta/m)(scal - lam) g: its base block is
        # condition 3, and a fiber diagonal entry is b g_F times the
        # gap of condition 2.
        res = geometry.hess[0] + (theta(point) / m) * (
            geometry.scal[0] - soliton.lam) * geometry.g[0]
        b = warping(x)
        reduced += [gaps.base_hessian_gap, gaps.pairing_gap]
        tensor += [np.abs(res[:2, :2]).max(),
                   abs(res[2, 2] * b / geometry.g[0][2, 2])]
    return reduced, tensor


@pytest.mark.parametrize("instance", [_static, _walker3, _walker4, _warped],
                         ids=["static", "walker3", "walker4", "warped"])
def test_a_reduced_system_is_the_tensor_residual(instance):
    rng = np.random.default_rng(97)
    for _ in range(INSTANCES):
        reduced, tensor = instance(rng)
        reduced, tensor = np.array(reduced), np.array(tensor)
        assert np.abs(tensor).max() > 1e-3
        np.testing.assert_allclose(reduced, tensor, rtol=1e-9,
                                   atol=1e-10 * np.abs(tensor).max())
