"""Build and certify a gradient soliton on the 3d triangular metric
family 2 dt dy + dx^2 + q(t, x, y) dy^2.

The construction takes a strictly increasing profile eta(y), a slope
kappa, and an additive term zeta(x, y), and returns a potential
f = kappa x + eta(y) together with the metric function q that makes
Hess(f) = (scal - lam) g hold with lam = 0.  The demo certifies the
steady structure three independent ways, then shows that swapping in
the uncorrected time slope for q breaks the same checks.
"""

import numpy as np

from solitonlab import (
    SolitonData,
    Walker3Construction,
    Walker3Spec,
    classify,
    grid_points,
    infer_lambda,
    parse_expression,
    point_geometry,
    residual_report,
    walker3_construct,
    walker3_metric,
)

construction = Walker3Construction(
    kappa=1.0,
    eta=parse_expression("exp(y)", ("y",)),
    zeta=parse_expression("0", ("x", "y")),
)
f, q = walker3_construct(construction, check_points=np.linspace(-1.0, 1.0, 9))
print("potential        f =", f)
print("metric function  q =", q)

spec = Walker3Spec(q)
metric = walker3_metric(spec)
points = grid_points(metric.chart, {
    "t": (-1.0, 1.0, 4),
    "x": (-1.0, 1.0, 4),
    "y": (-1.0, 1.0, 4),
})

# Check 1: the defining tensor equation, entry by entry over the grid.
estimate = infer_lambda(metric, f, points)
soliton = SolitonData(potential=f, lam=estimate.value)
report = residual_report(metric, soliton, points, tol=1e-8)
print(f"inferred lam = {estimate.value:.3e} with spread {estimate.spread:.3e}"
      f" -> {classify(estimate.value)}")
print(f"max |Hess(f) - (scal - lam) g| over {len(points)} points:"
      f" {report.max_abs:.3e}  passed={report.passed}")

# Check 2: the potential is harmonic for this family, so the
# Laplace-Beltrami values should sit at zero with no drift.
lap = point_geometry(metric, f, points).lap
print(f"Laplacian mean {lap.mean():.3e},"
      f" max deviation {np.max(np.abs(lap - lap.mean())):.3e}")

# Check 3: the five component equations of the family free of lam
# (Hess_tt, Hess_tx, Hess_xy, Hess_xx - Hess_ty, Hess_yy - q Hess_xx),
# written from coordinate derivatives without any tensor machinery.
f_t, f_x, f_y = (f.diff(v) for v in metric.chart)
q_t, q_x, q_y = (q.diff(v) for v in metric.chart)
rows = np.array([e.at_points(points) for e in (
    f_t.diff("t"), f_t.diff("x"), f_x.diff("y") - 0.5 * q_x * f_t,
    f_x.diff("x") - f_t.diff("y") + 0.5 * q_t * f_t,
    f_y.diff("y") - q * f_x.diff("x") - 0.5 * (q * q_t + q_y) * f_t
    + 0.5 * q_x * f_x + 0.5 * q_t * f_y)])
print(f"family component equations, max |row|: {np.max(np.abs(rows)):.3e}")
print()

# Contrast: the uncorrected slope -2 t ln(eta') instead of
# -2 t eta''/eta'.  For eta = exp(y) these differ unless y = 1, and the
# tensor equation picks the defect up immediately.
f_lit, q_lit = walker3_construct(construction, paper_literal=True)
bad = SolitonData(potential=f_lit, lam=0.0)
bad_report = residual_report(walker3_metric(Walker3Spec(q_lit)), bad,
                             [(0.5, 0.2, -1.0)], tol=1e-8)
print("uncorrected slope q =", q_lit)
print(f"residual at (0.5, 0.2, -1): {bad_report.max_abs:.12f}"
      f"  (2/e = {2.0 / np.e:.12f})")
