"""Build and certify a gradient soliton on the 4d neutral-signature
family 2 dx dz + 2 dy dt + w(t) dt^2.

Every metric in this family is flat, so the defining tensor equation
Hess(f) = (scal - lam) g collapses to Hess(f) = -lam g.  The potential
is polynomial in x, y, z plus a pure time profile, 1/2 (c0 t + c1)
times the running integral of the warping from t0, which is exact at
any t.  The integral is a node of the potential's expression tree whose
derivative is the warping itself, so the profile's derivatives are
exact, not differences of a quadrature, and the verification below is
noise free.  The profile is f at x = y = z = 0.
"""

import numpy as np

from solitonlab import (
    SolitonData,
    Walker4Spec,
    classify,
    constant_field,
    curvature_at,
    eval_jet2,
    infer_lambda,
    parse_expression,
    point_geometry,
    residual_report,
    walker4_construct,
    walker4_metric,
)

# ----------------------------------------------------------------
# Unit warping, all coupling constants one.  The time profile solves
# 2 E'(t) = w (c0 t + c1) + c0 * integral(w), so here E = t^2/2 + t/2.
# ----------------------------------------------------------------
spec = Walker4Spec(constant_field(("t",), 1.0), 1.0, 1.0, 1.0, 1.0, 0.0)
f = walker4_construct(spec)
metric = walker4_metric(spec)
print("potential f =", f)
value = f((0.0, 0.0, 0.0, 0.5))
print(f"profile at 0.5: {value:.9f}   (t^2/2 + t/2 = 0.375)")
slope = eval_jet2(f, (0.0, 0.0, 0.0, 0.3)).gradient[3]
print(f"profile slope at 0.3: {slope}   (exact 0.8)")
print()

rng = np.random.default_rng(7)
points = rng.uniform(-1.0, 1.0, (12, 4))

flatness = max(np.max(np.abs(curvature_at(metric, p).riemann)) for p in points)
print(f"max |Riemann| over 12 random points: {flatness}")

estimate = infer_lambda(metric, f, points)
report = residual_report(metric, SolitonData(f, estimate.value), points,
                         tol=1e-9)
lap = point_geometry(metric, f, points).lap
print(f"inferred lam = {estimate.value:.12f} ({classify(estimate.value)}),"
      f" spread {estimate.spread:.3e}")
print(f"max residual {report.max_abs:.3e}  passed={report.passed}")
print(f"Laplacian constant at {lap.mean():.12f}"
      f" (deviation {np.max(np.abs(lap - lap.mean())):.3e})")
print()

# ----------------------------------------------------------------
# Oscillating warping with the xz/yt coupling switched off (c0 = 0).
# The structure degenerates to a steady one and the profile reduces
# to (c1/2) times the running integral of the warping.
# ----------------------------------------------------------------
steady_spec = Walker4Spec(parse_expression("1 + 0.5*sin(t)", ("t",)),
                          0.0, 2.0, 3.0, 0.5, 0.0)
sf = walker4_construct(steady_spec)
smetric = walker4_metric(steady_spec)
sestimate = infer_lambda(smetric, sf, points)
sreport = residual_report(smetric, SolitonData(sf, sestimate.value), points,
                          tol=1e-9)
print(f"oscillating warping, c0 = 0: lam = {sestimate.value:.3e}"
      f" ({classify(sestimate.value)}), max residual {sreport.max_abs:.3e}")

# The defining relation fixes the slope exactly: 2 E' = c1 w(t).
t = 0.4
sslope = eval_jet2(sf, (0.0, 0.0, 0.0, t)).gradient[3]
print(f"slope check at t = 0.4: {sslope:.12f} vs "
      f"{(1.0 + 0.5 * np.sin(t)):.12f}")
print()

# ----------------------------------------------------------------
# Contrast: giving y the coefficient (c0 z + c1) instead of
# (c0 t + c1) leaves a unit-size residual whenever c0 != 0.
# ----------------------------------------------------------------
f_lit = walker4_construct(spec, paper_literal=True)
bad = residual_report(metric, SolitonData(f_lit, -1.0),
                      [np.array([0.3, -0.2, 0.5, 0.1])], tol=0.1)
print(f"uncorrected y coefficient: residual {bad.max_abs:.12f} (exact 1)")
