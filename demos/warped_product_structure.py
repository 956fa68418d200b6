"""The substitution theta = exp(-mu phi) and what it says about warped
products.

The coupled soliton equation Hess(phi) = (scal - lam) g + mu dphi x dphi
linearizes under theta = exp(-mu phi): with m = 1/mu it becomes

    Hess(theta) = -(theta / m) (scal - lam) g,

and the two formulations are tied together by an identity

    Hess(phi) = (1/m) dphi x dphi - (m / theta) Hess(theta)

that holds for EVERY smooth potential, equation or not.  The identity
is the calibration: it runs the hessian twice through different
routes, here two passes of the geometry (point_geometry), one of phi
and one of theta, so its residual is pure numerical error.  The
substituted equation's residual is -(theta/m) times the coupled one.

On a warped product g_B + b^2 g_F the substituted equation forces
theta to live on the base, pins Hess_B(theta) to a multiple of g_B,
couples grad theta to grad b, and freezes the fiber scalar curvature.
The demo certifies all of that on an explicit instance with a
genuinely non-constant warping.
"""

import numpy as np

from solitonlab import (
    SolitonData,
    flat_metric,
    grid_points,
    infer_lambda,
    parse_expression,
    point_geometry,
    residual_report,
    sphere_metric,
    theta_substitution,
    warped_conditions_check,
    WarpedProductSpec,
    assemble_warped_metric,
    classify,
)


def substitution_residuals(metric, soliton, points):
    """Both formulations at each point, from one geometry pass of phi and
    one of theta: the substituted equation's residual
    Hess(theta) + (theta/m)(scal - lam) g, and the identity's
    Hess(phi) - (1/m) dphi x dphi + (m/theta) Hess(theta)."""
    m = 1.0 / soliton.mu
    theta = theta_substitution(soliton.potential, soliton.mu)
    phi = point_geometry(metric, soliton.potential, points)
    th = point_geometry(metric, theta, points)
    value = theta.at_points(th.points)[:, None, None]
    substituted = (th.hess + (value / m)
                   * (th.scal - soliton.lam)[:, None, None] * th.g)
    identity = (phi.hess - phi.dphi[:, :, None] * phi.dphi[:, None, :] / m
                + (m / value) * th.hess)
    return substituted, identity


# ----------------------------------------------------------------
# 1. Smallest possible instance: the half line with g = ds^2,
# potential -ln(s), coupling mu = 1.  Then theta = s, whose hessian
# vanishes, and the structure is steady.
# ----------------------------------------------------------------
line = flat_metric(("s",), "+")
phi = parse_expression("0 - ln(s)", ("s",))
soliton = SolitonData(phi, 0.0, mu=1.0)
substituted, identity = substitution_residuals(line, soliton, [(0.7,)])
print("half line, theta = s:")
print(f"  substitution residual : {np.max(np.abs(substituted))}")
print(f"  two-route identity    : {np.max(np.abs(identity))}")
print(f"  theta at s = 0.7      : {theta_substitution(phi, 1.0)((0.7,)):.6f}")
print()

# ----------------------------------------------------------------
# 2. The identity as a calibration target: random potentials on the
# round sphere, no equation satisfied, residual still at zero.
# ----------------------------------------------------------------
sphere = sphere_metric(2.0)
rng = np.random.default_rng(11)
worst = 0.0
for _ in range(25):
    a, b, c = rng.uniform(-2.0, 2.0, 3)
    field = parse_expression(
        f"{float(a)!r}*u*v + {float(b)!r}*exp(0.3*u) + {float(c)!r}*v*v",
        sphere.chart)
    data = SolitonData(field, rng.uniform(-1.0, 1.0), mu=rng.uniform(0.2, 2.0))
    point = (rng.uniform(0.5, 2.6), rng.uniform(0.0, 3.0))
    _, identity = substitution_residuals(sphere, data, [point])
    worst = max(worst, np.max(np.abs(identity)))
print(f"identity residual over 25 random sphere potentials: {worst:.3e}")
print()

# ----------------------------------------------------------------
# 3. Warped product with non-constant warping: base ds^2 on the t
# line, warping exp(t), flat 2d fiber, potential t, coupling -1.
# The structure is expanding with lam = -7, and the base gradient
# pairing g_B(grad theta, grad b) = exp(2t) never vanishes on the
# sampled window, which is what keeps the fiber coupled to the base.
# ----------------------------------------------------------------
spec = WarpedProductSpec(
    base=flat_metric(("t",), "+"),
    fiber=flat_metric(("p", "q"), "++"),
    warping=parse_expression("exp(t)", ("t",)),
)
metric = assemble_warped_metric(spec)
potential = parse_expression("t", metric.chart)
points = grid_points(metric.chart, {
    "t": (-0.5, 0.5, 5), "p": (-1.0, 1.0, 3), "q": (-1.0, 1.0, 3),
})
mu = -1.0
estimate = infer_lambda(metric, potential, points, mu=mu)
report = residual_report(metric, SolitonData(potential, estimate.value, mu),
                         points, tol=1e-8)
print(f"warped product exp(t): lam = {estimate.value:.12f}"
      f" ({classify(estimate.value)}), max residual {report.max_abs:.3e}")

conditions = warped_conditions_check(
    base=spec.base,
    fiber=spec.fiber,
    warping=spec.warping,
    soliton=SolitonData(potential, estimate.value, mu),
    base_points=[(tv,) for tv in np.linspace(-0.5, 0.5, 7)],
    fiber_points=[(pv, qv) for pv in (-1.0, 0.0, 1.0) for qv in (-1.0, 1.0)],
)
print(f"structure conditions, max gap     : {conditions.max_gap():.3e}")
print(f"gradient pairing, smallest |value|: {conditions.pairing_min_abs:.6f}"
      f"   (exp(-1) = {np.exp(-1.0):.6f})")
print()

# ----------------------------------------------------------------
# 4. Negative control: a potential with a fiber component violates
# the first structure condition and the check reports it.
# ----------------------------------------------------------------
leaky = warped_conditions_check(
    base=spec.base,
    fiber=spec.fiber,
    warping=spec.warping,
    soliton=SolitonData(
        parse_expression("t + 0.8*p", ("t", "p", "q")), estimate.value, mu
    ),
    base_points=[(0.0,)],
    fiber_points=[(0.5, 0.5)],
)
print(f"fiber-dependent potential: fiber_dependence = "
      f"{leaky.fiber_dependence:.3f}  (flagged)")
