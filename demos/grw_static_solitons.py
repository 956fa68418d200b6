"""Cosmological and static product metrics as gradient solitons.

Two families share a stage here.

  1. A cosmological product -dt^2 + w(t)^2 g_F with w(t) = t and a flat
     3d fiber.  With the plain soliton equation the time direction and
     the fiber directions make incompatible demands on any pure-time
     potential, and a parameter sweep shows the obstruction directly.
     Adding the quadratic gradient coupling mu dphi x dphi resolves it:
     mu = 1/3 with potential -6 ln(t) satisfies every component to
     machine precision.

  2. A static product -lapse(x)^2 dt^2 + g_F with lapse = exp(x2) on a
     flat 2d fiber.  The potential x1 gives an expanding structure with
     lam = -2, certified through the generic tensor residual; its
     scalar curvature, scal_F - 2 Lap_F(lapse) / lapse, is the closed
     form -2 on the flat fiber.
"""

import numpy as np

from solitonlab import (
    GRWSpec,
    SolitonData,
    StaticSpec,
    assemble_warped_metric,
    classify,
    flat_metric,
    gqy_residual,
    grid_points,
    grw_potential_field,
    infer_lambda,
    parse_expression,
    point_geometry,
    residual_report,
)
from solitonlab.families import grw_samples

spec = GRWSpec(
    warping=parse_expression("t", ("t",)),
    fiber=flat_metric(("x", "y", "z"), "+++"),
    interval=(1.0, 2.0),
)
metric = assemble_warped_metric(spec)
points = grid_points(metric.chart, {
    "t": (1.0, 2.0, 5),
    "x": (-1.0, 1.0, 2), "y": (-1.0, 1.0, 2), "z": (-1.0, 1.0, 2),
})

# ----------------------------------------------------------------
# 1a. The obstruction.  For potentials alpha * ln(t) the plain
# equation (mu = 0) can flatten the pointwise lam estimate OR kill
# the tensor residual, never both: the sweep floor stays above 1e-2.
# ----------------------------------------------------------------
floor = np.inf
for alpha in np.linspace(-14.0, 2.0, 33):
    potential = grw_potential_field(spec, alpha, 1.0).with_chart(metric.chart)
    estimate = infer_lambda(metric, potential, points)
    report = residual_report(
        metric, SolitonData(potential, estimate.value), points, tol=1e-8
    )
    floor = min(floor, max(estimate.spread, report.max_abs))
print(f"plain equation, best over alpha in [-14, 2]: {floor:.6f}  (> 1e-2)")

# ----------------------------------------------------------------
# 1b. The resolution.  mu = 1/3, potential -6 ln(t): lam = 0.
# ----------------------------------------------------------------
mu = 1.0 / 3.0
potential = grw_potential_field(spec, -6.0, 1.0).with_chart(metric.chart)
estimate = infer_lambda(metric, potential, points, mu=mu)
soliton = SolitonData(potential, estimate.value, mu)
report = residual_report(metric, soliton, points, tol=1e-8)
print(f"coupled equation, mu = 1/3: lam = {estimate.value:.3e}"
      f" ({classify(estimate.value)}), spread {estimate.spread:.3e},"
      f" max residual {report.max_abs:.3e}")
worst = max(
    np.max(np.abs(gqy_residual(metric, soliton, p))) for p in points[:10]
)
print(f"tensor residual, first 10 grid points: {worst:.3e}")
print()

# ----------------------------------------------------------------
# 1c. The reduced one-variable system for the plain equation has its
# own consistent solution with alpha = +6: the forced constant
# scal - w' phi' / w is the same at every time, and all three
# component equations vanish with lam equal to that constant.
# ----------------------------------------------------------------
rising = grw_potential_field(spec, alpha=6.0, t0=1.0)
samples = grw_samples(spec, metric, rising, np.linspace(1.0, 2.0, 9))
lams = samples.lambda_map()
lam_hat = float(np.mean(lams))
print(f"reduced system, alpha = +6: forced constant {lam_hat:.3e},"
      f" spread {np.max(np.abs(lams - lam_hat)):.3e}")
r1, r2, r3 = grw_samples(spec, metric, rising, [1.5]).residual(lam_hat)[0]
print(f"component residuals at t = 1.5: {r1:.3e}, {r2:.3e}, {r3:.3e}")
print()

# ----------------------------------------------------------------
# 2. Static product.  lapse = exp(x2), flat fiber (x1, x2),
# potential x1, lam = -2.
# ----------------------------------------------------------------
static = StaticSpec(
    lapse=parse_expression("exp(x2)", ("x1", "x2")),
    fiber=flat_metric(("x1", "x2"), "++"),
)
sf = parse_expression("x1", ("x1", "x2"))
smetric = assemble_warped_metric(static)
spoints = grid_points(smetric.chart, {
    "t": (-1.0, 1.0, 3), "x1": (-1.0, 1.0, 4), "x2": (-1.0, 1.0, 4),
})
sfull = sf.with_chart(smetric.chart)
sestimate = infer_lambda(smetric, sfull, spoints)
sreport = residual_report(smetric, SolitonData(sfull, sestimate.value),
                          spoints, tol=1e-8)
print(f"static product: lam = {sestimate.value:.12f}"
      f" ({classify(sestimate.value)}), max residual {sreport.max_abs:.3e}")
fiber_points = spoints[:, 1:]
closed = (-2.0 * point_geometry(static.fiber, static.lapse, fiber_points).lap
          / static.lapse.at_points(fiber_points))
gap = point_geometry(smetric, sfull, spoints).scal - closed
print(f"scalar curvature against -2 Lap_F(lapse) / lapse:"
      f" {np.max(np.abs(gap)):.3e}")
