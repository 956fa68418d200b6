"""Shared test helpers.

Two independent oracles live here so the library's own derivative and
curvature pipelines are never asked to confirm themselves (the
finite-difference jet and the walker closed-form tables are in
jet_oracles.py):

  * random_field draws expression trees from a seeded generator and
    rejects any draw whose jets are undefined or wildly scaled on the
    probe box; random_metric_rows builds positive-definite,
    non-diagonal metrics from such draws.
  * fd_curvature computes Christoffel symbols, Riemann, Ricci and the
    scalar curvature from plain finite differences of metric values,
    with explicit index loops.  It never touches the jet evaluator or
    the einsum pipeline.

static_system_residual is the static family's reduced system on the
library's own curvature pass, checked against the tensor residual and
against sympy; theta_residuals is the exponential substitution's
equation and two-hessian identity on two passes of the geometry.

count_calls records the positional arguments of every call of one
library function for the call-count tests, and count_scalar_evaluations
counts the one-point evaluations of fields and running integrals.
elementwise turns a scalar function into a function over arrays, as
an Integral's running integrals are.
"""

import builtins
import sys

import numpy as np

from solitonlab import (
    NonPositiveWarpingError,
    SolitonLabError,
    eval_jet2,
    expressions,
    families,
    parse_expression,
)
from solitonlab.curvature import curvature_over
from solitonlab.soliton import (field_geometry, point_geometry,
                                theta_substitution)

FUNCTIONS = ("exp", "sin", "cos")


def random_expression(rng, chart, depth):
    """One random expression string over the chart."""
    roll = rng.integers(0, 8) if depth > 0 else rng.integers(0, 2)
    if roll == 0:
        return f"{rng.uniform(-2.0, 2.0):.4f}"
    if roll == 1:
        return chart[rng.integers(0, len(chart))]
    a = random_expression(rng, chart, depth - 1)
    b = random_expression(rng, chart, depth - 1)
    if roll == 2:
        return f"({a} + {b})"
    if roll == 3:
        return f"({a} - {b})"
    if roll == 4:
        return f"({a} * {b})"
    if roll == 5:
        return f"({a} / ({b} + 3.7))"
    if roll == 6:
        fn = FUNCTIONS[rng.integers(0, len(FUNCTIONS))]
        return f"{fn}(0.4*({a}))"
    return f"({a})^2"


def random_field(rng, chart, points, depth=3, bound=100.0):
    """A random field whose jets exist and stay below ``bound`` at all
    the given points.  Returns (field, jets)."""
    while True:
        source = random_expression(rng, chart, depth)
        try:
            field = parse_expression(source, chart)
            jets = [eval_jet2(field, p) for p in points]
        except SolitonLabError:
            continue
        sizes = [
            max(abs(j.value), np.abs(j.gradient).max(), np.abs(j.hessian).max())
            for j in jets
        ]
        if max(sizes) <= bound:
            return field, jets


def random_metric_rows(rng, chart, points, depth=3, bound=5.0):
    """The rows, as expression texts, of a random Riemannian metric
    with no constant entry: 3 + 0.3*sin(E) on the diagonal and
    0.3*sin(E) off it, each E its own random_field.  A row's
    off-diagonal entries sum to at most 0.3 (n - 1), less than its
    diagonal entry for n <= 9, so the matrix is positive definite at
    every point."""
    n = len(chart)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = random_field(rng, chart, points, depth, bound)[0]
            while not e.root.reads:
                e = random_field(rng, chart, points, depth, bound)[0]
            rows[i][j] = rows[j][i] = (f"3 + 0.3*sin({e})" if i == j
                                       else f"0.3*sin({e})")
    return rows


def metric_values(metric, point):
    """The matrix of metric components by direct evaluation."""
    n = metric.dimension
    g = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            g[i, j] = metric.components[i][j](point)
    return g


def fd_curvature(metric, point, h=1e-5):
    """Curvature by finite differences of metric values only.

    Returns (gamma, riemann, ricci, scalar) with the same index layout
    as the library: gamma[k, i, j], riemann[l, k, i, j] for the l-th
    component of the curvature applied to (k; i, j).
    """
    p = np.asarray(point, dtype=float)
    n = metric.dimension

    def g_at(q):
        return metric_values(metric, q)

    def dg_at(q):
        out = np.empty((n, n, n))
        for k in range(n):
            step = np.zeros(n)
            step[k] = h * max(1.0, abs(q[k]))
            out[k] = (g_at(q + step) - g_at(q - step)) / (2.0 * step[k])
        return out

    g = g_at(p)
    dg = dg_at(p)
    g_inv = np.linalg.inv(g)

    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for l in range(n):
                    acc += g_inv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                gamma[k, i, j] = 0.5 * acc

    dgamma = np.zeros((n, n, n, n))
    for m in range(n):
        step = np.zeros(n)
        step[m] = h * max(1.0, abs(p[m]))
        g_p, g_m = g_at(p + step), g_at(p - step)
        dg_p, dg_m = dg_at(p + step), dg_at(p - step)
        gi_p, gi_m = np.linalg.inv(g_p), np.linalg.inv(g_m)
        gam_p = np.zeros((n, n, n))
        gam_m = np.zeros((n, n, n))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    acc_p = acc_m = 0.0
                    for l in range(n):
                        acc_p += gi_p[k, l] * (
                            dg_p[i][j, l] + dg_p[j][i, l] - dg_p[l][i, j]
                        )
                        acc_m += gi_m[k, l] * (
                            dg_m[i][j, l] + dg_m[j][i, l] - dg_m[l][i, j]
                        )
                    gam_p[k, i, j] = 0.5 * acc_p
                    gam_m[k, i, j] = 0.5 * acc_m
        dgamma[m] = (gam_p - gam_m) / (2.0 * step[m])

    riemann = np.zeros((n, n, n, n))
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    acc = dgamma[i, l, j, k] - dgamma[j, l, i, k]
                    for m in range(n):
                        acc += gamma[l, i, m] * gamma[m, j, k]
                        acc -= gamma[l, j, m] * gamma[m, i, k]
                    riemann[l, k, i, j] = acc

    ricci = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            acc = 0.0
            for i in range(n):
                acc += riemann[i, j, i, k]
            ricci[j, k] = acc

    scalar = 0.0
    for j in range(n):
        for k in range(n):
            scalar += g_inv[j, k] * ricci[j, k]
    return gamma, riemann, ricci, scalar


def static_system_residual(spec, potential, lam, fiber_point):
    """The reduced static system at a fiber point, for a potential on
    the fiber chart: r1 = g_F(grad phi, grad lapse) - (scal - lam) lapse,
    r2 = Hess_F(phi) - (scal - lam) g_F and r3 = Lap_F(phi)
    - (s / lapse) g_F(grad phi, grad lapse), from one curvature pass
    over the fiber point, with scal = scal_F - 2 Lap_F(lapse) / lapse
    (O'Neill, Semi-Riemannian Geometry, 7.43)."""
    p = np.asarray(fiber_point, dtype=float)
    lapse_value = spec.lapse(p)
    if lapse_value <= 0.0:
        raise NonPositiveWarpingError(f"lapse is not positive at {p.tolist()}")
    if potential.chart != spec.fiber.chart:
        raise ValueError("potential must live on the fiber chart")
    pts = p[None, :]
    curv = curvature_over(spec.fiber, pts)
    phi = field_geometry(curv, potential, pts)
    lapse = field_geometry(curv, spec.lapse, pts)
    scal = float(phi.scal[0] - 2.0 * lapse.lap[0] / lapse_value)
    pairing = float(np.einsum("ij,i,j->", phi.g_inv[0], phi.dphi[0], lapse.dphi[0]))
    s = spec.fiber.dimension
    r1 = pairing - (scal - lam) * lapse_value
    r2 = phi.hess[0] - (scal - lam) * phi.g[0]
    r3 = float(phi.lap[0]) - (s / lapse_value) * pairing
    return r1, r2, r3


def theta_residuals(metric, soliton, points):
    """The substitution theta = exp(-mu phi), m = 1/mu, at each of the
    points, from two passes of point_geometry, one of phi and one of
    theta: the residual of the substituted equation,
    Hess(theta) + (theta/m)(scal - lam) g, and the two-hessian identity
    Hess(phi) - (1/m) dphi (x) dphi + (m/theta) Hess(theta), which
    vanishes for every smooth phi.  Each (P, n, n)."""
    m = 1.0 / soliton.mu
    theta = theta_substitution(soliton.potential, soliton.mu)
    phi = point_geometry(metric, soliton.potential, points)
    th = point_geometry(metric, theta, points)
    value = theta.at_points(th.points)[:, None, None]
    shifted = (th.scal - soliton.lam)[:, None, None]
    substituted = th.hess + (value / m) * shifted * th.g
    identity = (phi.hess - phi.dphi[:, :, None] * phi.dphi[:, None, :] / m
                + (m / value) * th.hess)
    return substituted, identity


def elementwise(fn):
    """The scalar function ``fn`` as an Integral's running integrals: it
    maps a float64 array to the array of ``fn`` at each element, of its
    shape, calling ``fn`` on the elements in order.  A SolitonLabError
    that ``fn`` raises gets the position of its element as its index."""
    def over(xs):
        values = []
        for i, x in enumerate(xs.ravel().tolist()):
            try:
                values.append(fn(x))
            except SolitonLabError as exc:
                exc.index = i
                raise
        return np.array(values, dtype=float).reshape(xs.shape)
    return over


def count_calls(monkeypatch, module_name, func_name):
    """Wrap a solitonlab function wherever a solitonlab module binds it."""
    original = getattr(sys.modules[f"solitonlab.{module_name}"], func_name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if module is None or not (key == "solitonlab" or key.startswith("solitonlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


def count_scalar_evaluations(monkeypatch):
    """From here on, count the one-point evaluations: every field at one
    point (a ScalarField call, evaluate, or a row of the at_points
    fallback) and every call of a family's running integrals on a
    one-element array, and the calls of the exec and compile builtins."""
    counts = {"scalar": 0, "exec": 0, "compile": 0}
    at_point = expressions._at_point

    def counted(fn, coordinates):
        counts["scalar"] += 1
        return at_point(fn, coordinates)

    running_integrals = families._running_integrals

    def counted_running(integrand, t0):
        running = running_integrals(integrand, t0)

        def wrapper(ts):
            counts["scalar"] += ts.size == 1
            return running(ts)
        return wrapper

    monkeypatch.setattr(expressions, "_at_point", counted)
    monkeypatch.setattr(families, "_running_integrals", counted_running)
    for name in ("exec", "compile"):
        original = getattr(builtins, name)

        def builtin(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(builtins, name, builtin)
    return counts
