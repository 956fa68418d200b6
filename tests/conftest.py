"""Shared test helpers.

Two independent oracles live here so the library's own derivative and
curvature pipelines are never asked to confirm themselves:

  * random_field draws expression trees from a seeded generator and
    rejects any draw whose jets are undefined or wildly scaled on the
    probe box; random_metric_rows builds positive-definite,
    non-diagonal metrics from such draws.
  * fd_curvature computes Christoffel symbols, Riemann, Ricci and the
    scalar curvature from plain finite differences of metric values,
    with explicit index loops.  It never touches the jet evaluator or
    the einsum pipeline.

count_calls records the positional arguments of every call of one
library function for the call-count tests, and count_scalar_evaluations
counts the point-by-point evaluations of compiled fields and profiles.
elementwise turns a scalar function into a profile over arrays, as
expressions.external takes it.
"""

import builtins
import sys

import numpy as np

from solitonlab import (
    DomainError,
    SolitonLabError,
    eval_jet2,
    expressions,
    families,
    parse_expression,
)

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


def elementwise(fn):
    """The scalar function ``fn`` as a profile: it maps a 1-d float64
    array to the array of ``fn`` at each element, calling ``fn`` on the
    elements in order."""
    def over(xs):
        return np.array([fn(x) for x in xs.tolist()], dtype=float)
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
    """From here on, count the calls of every compiled field's float
    function and every profile call on a one-element array, and the
    calls of the exec and compile builtins."""
    counts = {"scalar": 0, "exec": 0, "compile": 0}

    def counted(fn):
        def wrapper(*args):
            counts["scalar"] += 1
            return fn(*args)
        return wrapper

    def counted_profile(fn):
        def wrapper(xs):
            counts["scalar"] += len(xs) == 1
            return fn(xs)
        return wrapper

    compile_field = expressions._compile

    def compile_counted(root, chart):
        scalar, over_arrays = compile_field(root, chart)
        return counted(scalar), over_arrays

    external = families.external

    def external_counted(name, funcs, arg):
        return external(name, [counted_profile(f) for f in funcs], arg)

    monkeypatch.setattr(expressions, "_compile", compile_counted)
    monkeypatch.setattr(families, "external", external_counted)
    for name in ("exec", "compile"):
        original = getattr(builtins, name)

        def builtin(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(builtins, name, builtin)
    return counts
