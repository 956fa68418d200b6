"""Walk the curvature pipeline on three explicit metrics.

Stages, in the order the library runs them:

  1. metric_at     evaluates the metric, its inverse, and its first and
                   second coordinate derivatives at one point;
  2. curvature_*   builds the connection coefficients from that data
                   and contracts them into the Ricci tensor and the
                   scalar curvature (the Riemann tensor on demand);
  3. covariant_hessian
                   subtracts the connection term from a function's
                   coordinate hessian;
  4. point_geometry
                   the one pass behind every check: per point the
                   metric, the scalar curvature, and a potential's
                   gradient, covariant hessian and Laplace-Beltrami.

The demo checks each stage against closed forms: a round sphere, flat
space in two signatures, and an expanding product metric whose scalar
curvature is 6/t^2.
"""

import numpy as np

from solitonlab import (
    GRWSpec,
    assemble_warped_metric,
    curvature_at,
    covariant_hessian,
    flat_metric,
    metric_at,
    parse_expression,
    point_geometry,
    sphere_metric,
)

# ----------------------------------------------------------------
# 1. Round sphere of radius 2: scalar curvature 2/r^2 = 0.5 and
#    Ricci = (1/r^2) g everywhere.
# ----------------------------------------------------------------
radius = 2.0
sphere = sphere_metric(radius)
point = (0.8, 1.1)
curv = curvature_at(sphere, point)

print("sphere radius 2 at (u, v) =", point)
print(f"  scalar curvature : {curv.scalar:.12f}   (expected {2.0 / radius**2})")
print(f"  |Ricci - g/r^2|  : "
      f"{np.max(np.abs(curv.ricci - curv.metric_data.g / radius**2)):.3e}")

height = parse_expression("cos(u)", sphere.chart)
lap = point_geometry(sphere, height, [point]).lap[0]
print(f"  Laplacian of cos(u): {lap:.12f}   "
      f"(expected {-2.0 / radius**2 * np.cos(point[0]):.12f})")
print()

# ----------------------------------------------------------------
# 2. Flat metrics are exactly flat: every curvature entry is 0.0,
#    not merely small, in both Riemannian and Lorentzian signature.
# ----------------------------------------------------------------
for signature in ("+++", "-++"):
    flat = flat_metric(("a", "b", "c"), signature)
    fc = curvature_at(flat, (0.3, -1.2, 5.0))
    print(f"flat {signature}: max |Riemann| = {np.max(np.abs(fc.riemann))}, "
          f"scalar = {fc.scalar}")
print()

# ----------------------------------------------------------------
# 3. Product metric -dt^2 + t^2 (dx^2 + dy^2 + dz^2): the hand
#    computation gives scalar curvature 6/t^2, a vanishing tt Ricci
#    entry, and spatial Ricci entries equal to 2.
# ----------------------------------------------------------------
spec = GRWSpec(
    warping=parse_expression("t", ("t",)),
    fiber=flat_metric(("x", "y", "z"), "+++"),
    interval=(1.0, 2.0),
)
grw = assemble_warped_metric(spec)
tpoint = (1.5, 0.0, 0.0, 0.0)
gc = curvature_at(grw, tpoint)
print("product metric -dt^2 + t^2 delta at t = 1.5")
print(f"  scalar curvature : {gc.scalar:.12f}   (expected {6.0 / 1.5**2:.12f})")
print(f"  Ricci tt         : {gc.ricci[0, 0]:.3e}   (expected 0)")
print(f"  Ricci xx         : {gc.ricci[1, 1]:.12f}   (expected 2)")
print()

# ----------------------------------------------------------------
# 4. Covariant hessian on the sphere: for cos(u) the vv entry is
#    -sin(u)^2 cos(u) once the connection term is subtracted.
# ----------------------------------------------------------------
data = metric_at(sphere, point)
hess = covariant_hessian(height, data)
expected_vv = -np.sin(point[0]) ** 2 * np.cos(point[0])
print(f"sphere Hess(cos u)_vv: {hess[1, 1]:.12f}   (expected {expected_vv:.12f})")
