"""curvature_from against a private copy of the full-tensor pass.

The reference below forms dgamma and Riemann in full, every
contraction a point-first einsum, and traces Riemann for Ricci.
curvature_from sums only the n^3 entries of Riemann that Ricci reads,
with some contractions run with the point axis last; gamma, Ricci, the
scalar curvature and the on-demand Riemann must keep the reference's
bits.  np.array_equal counts 0.0 and -0.0 as equal, so the comparisons
are on tobytes, and the stacks hold exact zeros of both signs.  The
data is drawn two ways: hand-built C-contiguous arrays, and metric_at
on random component formulas, whose dg and d2g are point-first views
of point-last arrays.  The reference reads C-contiguous copies, the
layout its point-first sums are written for.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import curvature_from, metric_at, point_geometry
from solitonlab.curvature import CurvatureAtPoint, curvature_over
from solitonlab.expressions import parse_expression
from solitonlab.families import GRWSpec, assemble_warped_metric
from solitonlab.metrics import MetricAtPoint, MetricField, sphere_metric


def _reference(data):
    """(gamma, riemann, ricci, scalar) by the full-tensor formulas."""
    ginv = data.g_inv
    dg = np.ascontiguousarray(data.dg)
    d2g = np.ascontiguousarray(data.d2g)
    T = (
        np.einsum("...ijl->...ijl", dg)
        + np.einsum("...jil->...ijl", dg)
        - np.einsum("...lij->...ijl", dg)
    )
    gamma = 0.5 * np.einsum("...kl,...ijl->...kij", ginv, T)
    dginv = -np.einsum("...la,...iab,...bm->...ilm", ginv, dg, ginv)
    dT = (
        np.einsum("...ijkm->...ijkm", d2g)
        + np.einsum("...ikjm->...ijkm", d2g)
        - np.einsum("...imjk->...ijkm", d2g)
    )
    dgamma = 0.5 * (
        np.einsum("...ilm,...jkm->...iljk", dginv, T)
        + np.einsum("...lm,...ijkm->...iljk", ginv, dT)
    )
    riemann = (
        np.einsum("...iljk->...lkij", dgamma)
        - np.einsum("...jlik->...lkij", dgamma)
        + np.einsum("...lim,...mjk->...lkij", gamma, gamma)
        - np.einsum("...ljm,...mik->...lkij", gamma, gamma)
    )
    ricci = np.einsum("...ijik->...jk", riemann)
    scalar = np.einsum("...jk,...jk->...", ginv, ricci)
    if scalar.ndim == 0:
        scalar = float(scalar)
    return gamma, riemann, ricci, scalar


def _symmetric(x, axes, upper):
    """x with the entries below the diagonal of ``axes`` copied, bit
    for bit, from above it."""
    return np.where(upper, x, np.swapaxes(x, *axes))


def _draw_array(rng, shape, zeros):
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    if zeros:
        roll = rng.random(shape)
        x[roll < zeros] = 0.0
        x[roll > 1.0 - zeros] = -0.0
    return x


def _drawn(rng, n, lead, lorentzian, zeros):
    """Hand-built data: a non-diagonal g and symmetric dg and d2g."""
    basis = rng.normal(size=lead + (n, n)) + 2.0 * np.eye(n)
    signs = np.ones(n)
    if lorentzian:
        signs[0] = -1.0
    upper = np.triu(np.ones((n, n), bool))
    g = _symmetric(np.einsum("...ia,a,...ja->...ij", basis, signs, basis),
                   (-1, -2), upper)
    dg = _symmetric(_draw_array(rng, lead + (n, n, n), zeros), (-1, -2), upper)
    d2g = _draw_array(rng, lead + (n, n, n, n), zeros)
    d2g = _symmetric(d2g, (-1, -2), upper)
    d2g = _symmetric(d2g, (-3, -4), upper[:, :, None, None])
    return MetricAtPoint(np.zeros(lead + (n,)), g, np.linalg.inv(g), dg, d2g,
                         0.0)


def _walked(rng, n, lead, lorentzian, zeros):
    """metric_at on random formulas: diagonal entries (+-)(2 + ...) and
    off-diagonal ones below 0.1 on the box [-1, 1]^n, so g keeps the
    signs of its diagonal; a share ``zeros`` of the off-diagonal
    entries is the constant 0."""
    chart = tuple(f"x{k}" for k in range(n))
    rows = [[""] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a, b = (chart[k] for k in rng.integers(n, size=2))
            c = rng.uniform(-0.1, 0.1)
            term = f"({c:.6f})*{rng.choice(['sin', 'cos'])}({a})*{b}^2"
            if i == j:
                sign = "-" if lorentzian and i == 0 else ""
                rows[i][i] = f"{sign}(2 + {term})"
            else:
                rows[i][j] = rows[j][i] = "0" if rng.random() < zeros else term
    signature = ("-" if lorentzian else "+") + "+" * (n - 1)
    metric = MetricField.from_rows(chart, rows, signature)
    points = rng.uniform(-1.0, 1.0, size=lead + (n,))
    return metric_at(metric, points)


@st.composite
def metric_stacks(draw):
    """MetricAtPoint data of one point or of a stack of P points, with a
    non-diagonal Riemannian or Lorentzian g, hand-built or from
    metric_at."""
    n = draw(st.integers(1, 9))
    points = draw(st.one_of(st.none(), st.integers(1, 150)))
    lorentzian = draw(st.booleans())
    zeros = draw(st.sampled_from([0.0, 0.1, 0.3]))
    build = draw(st.sampled_from([_drawn, _walked]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = () if points is None else (points,)
    return build(rng, n, lead, lorentzian, zeros)


@settings(max_examples=80, deadline=None)
@given(metric_stacks())
def test_the_contracted_pass_keeps_the_full_tensor_bits(data):
    gamma, riemann, ricci, scalar = _reference(data)
    curv = curvature_from(data)
    for got, want in [(curv.gamma, gamma), (curv.ricci, ricci),
                      (curv.scalar, scalar), (curv.riemann, riemann)]:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert type(curv.scalar) is type(scalar)
    # Later sums (the scalar curvature, the covariant hessian) follow
    # the memory layout of Ricci and gamma.
    assert curv.ricci.strides == ricci.strides
    assert curv.gamma.strides == gamma.strides
    traced = np.einsum("...ijik->...jk", curv.riemann)
    assert traced.tobytes() == curv.ricci.tobytes()


def _raise(self):
    raise AssertionError("the geometry pass read riemann")


@pytest.mark.parametrize("times", [3, 40])
def test_the_geometry_pass_never_forms_riemann(monkeypatch, times):
    monkeypatch.setattr(CurvatureAtPoint, "riemann", property(_raise))
    spec = GRWSpec(parse_expression("t", ("t",)),
                   sphere_metric(1.0, ("u", "v")), (1.0, 2.0))
    metric = assemble_warped_metric(spec)
    points = np.column_stack([np.linspace(1.0, 2.0, times),
                              np.full(times, 0.7), np.full(times, 0.2)])
    potential = parse_expression("t^2 + u", metric.chart)
    point_geometry(metric, potential, points)
    curvature_over(metric, points)
    flat = MetricField.from_rows(("x", "y"), [["1", "0"], ["0", "1"]], "++")
    point_geometry(flat, parse_expression("x*y", ("x", "y")), [(0.1, 0.2)])
