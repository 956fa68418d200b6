"""Ricci and scalar curvature against an exact oracle.

The oracle differentiates the metric's texts with sympy, evaluates g
and its first and second derivatives at the point with 40 significant
digits, and builds the Christoffel symbols, their derivatives and the
Ricci tensor by explicit sums, with

    d_m g^{kl}        = -g^{ka} (d_m g_ab) g^{bl}
    Ric_jk            = d_i Gamma^i_kj - d_k Gamma^i_ij
                        + Gamma^i_im Gamma^m_kj - Gamma^i_km Gamma^m_ij

It shares no code with the curvature module or the jet walk.
"""

import numpy as np
import pytest

from solitonlab import MetricField, curvature_at

from conftest import random_metric_rows

sympy = pytest.importorskip("sympy")

DIGITS = 40


def _exact_curvature(chart, rows, point):
    """Ricci (n, n) and scalar curvature at ``point``, from sympy."""
    n = len(chart)
    xs = sympy.symbols(chart)
    names = {**dict(zip(chart, xs)), "ln": sympy.log}
    g = [[sympy.sympify(rows[i][j].replace("^", "**"), locals=names)
          for j in range(n)] for i in range(n)]
    at = {x: sympy.Rational(float(v)) for x, v in zip(xs, point)}

    def value(expr):
        return sympy.N(expr.subs(at), DIGITS)

    G = sympy.Matrix(n, n, lambda i, j: value(g[i][j]))
    dg = [[[value(sympy.diff(g[a][b], xs[m])) for b in range(n)]
           for a in range(n)] for m in range(n)]
    d2g = [[[[value(sympy.diff(g[a][b], xs[m], xs[p])) for b in range(n)]
             for a in range(n)] for p in range(n)] for m in range(n)]
    inv = G.inv()
    dinv = [[[-sum(inv[k, a] * dg[m][a][b] * inv[b, l]
                   for a in range(n) for b in range(n))
              for l in range(n)] for k in range(n)] for m in range(n)]

    def lower(i, j, l, d):
        # d_i g_jl + d_j g_il - d_l g_ij, or its d_d derivative.
        if d is None:
            return dg[i][j][l] + dg[j][i][l] - dg[l][i][j]
        return d2g[d][i][j][l] + d2g[d][j][i][l] - d2g[d][l][i][j]

    gamma = [[[sum(inv[k, l] * lower(i, j, l, None) for l in range(n)) / 2
               for j in range(n)] for i in range(n)] for k in range(n)]
    dgamma = [[[[sum(dinv[m][k][l] * lower(i, j, l, None)
                     + inv[k, l] * lower(i, j, l, m) for l in range(n)) / 2
                 for j in range(n)] for i in range(n)] for k in range(n)]
              for m in range(n)]
    ricci = [[sum(dgamma[i][i][k][j] - dgamma[k][i][i][j]
                  + sum(gamma[i][i][m] * gamma[m][k][j]
                        - gamma[i][k][m] * gamma[m][i][j] for m in range(n))
                  for i in range(n)) for k in range(n)] for j in range(n)]
    scalar = sum(inv[j, k] * ricci[j][k] for j in range(n) for k in range(n))
    return (np.array([[float(r) for r in row] for row in ricci]),
            float(scalar))


@pytest.mark.parametrize("dimension, seed",
                         [(2, 41), (2, 42), (3, 43), (3, 44)])
def test_ricci_and_scalar_curvature_match_the_exact_oracle(dimension, seed):
    chart = ("u", "v", "w")[:dimension]
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, (2, len(chart)))
    rows = random_metric_rows(rng, chart, points, depth=2)
    metric = MetricField.from_rows(chart, rows, "+" * len(chart))
    for point in points:
        ricci, scalar = _exact_curvature(chart, rows, point)
        curv = curvature_at(metric, point)
        scale = max(1.0, np.abs(ricci).max())
        assert np.abs(curv.ricci - ricci).max() <= 1e-9 * scale
        assert abs(curv.scalar - scalar) <= 1e-9 * max(1.0, abs(scalar))


def test_the_oracle_knows_the_round_sphere():
    rows = [["4", "0"], ["0", "4*sin(u)^2"]]
    ricci, scalar = _exact_curvature(("u", "v"), rows, (0.7, 0.2))
    assert abs(scalar - 0.5) < 1e-15
    assert np.allclose(ricci, [[1.0, 0.0], [0.0, np.sin(0.7) ** 2]],
                       rtol=1e-15, atol=1e-15)
