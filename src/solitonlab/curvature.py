"""Curvature of a metric at a point, all indices explicit.

Conventions used throughout the package:

    Gamma^k_ij   = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    R^l_kij      = d_i Gamma^l_jk - d_j Gamma^l_ik
                   + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    Ric_jk       = R^i_jik
    scalar       = g^{jk} Ric_jk      (round unit 2-sphere: +2)
    Hess(f)_ij   = d_i d_j f - Gamma^k_ij d_k f
    Lap f        = g^{ij} Hess(f)_ij

Array layouts match the formulas: gamma[k, i, j], riemann[l, k, i, j],
ricci[j, k].  Every contraction is an einsum over a '...' point axis,
so the same code serves the data of one point and metric data stacked
over P points (see metrics.metric_at), which adds a leading point axis
to every array and turns the scalar curvature into a (P,) array.
curvature_over runs metric_at -> curvature_from over a grid once per
distinct metric point and hands every grid point its group's results.
Everything a potential adds on top (its gradient, covariant hessian
and laplacian) comes from soliton.point_geometry, which reads
curvature_over; curvature_at and covariant_hessian run curvature_from
at one point.

Ricci without Riemann.  curvature_from forms only the n^3 entries of
Riemann that Ricci reads, R^a_jak = d_a Gamma^a_kj - d_k Gamma^a_aj
+ Gamma^a_am Gamma^m_kj - Gamma^a_km Gamma^m_aj, each with the products
and sums the full tensor applies to it, and sums them over a; neither
d Gamma nor Riemann is formed.  CurvatureAtPoint.riemann forms the
full tensor by the formulas above on first access, and Ricci is its
trace bit for bit.

Sum order.  np.einsum without ``optimize`` sums each output entry term
by term.  Where the summed index is the last, contiguous axis of two
operands it goes through a SIMD dot kernel.  numpy's baseline float64
kernel keeps two lanes, each starting from +0.0: lane 0 adds the
products at the even positions of the summed axis and lane 1 those at
the odd ones, each in index order, except that while eight or more
terms remain each block of eight goes as the pairs (6, 7), (4, 5),
(2, 3), (0, 1); the result is lane 0 plus lane 1.  Elsewhere einsum
adds the terms one at a time in index order.  curvature_from runs
every contraction with the point axis last, the inner loop over the
points; one point runs as a stack of one.  The dot-kernel sums of the
full-tensor formulas (gamma from g^-1 and T, and both halves of
d_a Gamma and of d_k Gamma) keep that kernel's order: g^-1, T, d g^-1
and dT are written into buffers whose summed axis has a zero pad
column where n is odd (_summand), the axis is read as pairs (h, lane)
in the kernel's order (_lanes), einsum adds over h, and the two lanes
are added last (_dot).  A pad product is +0.0, as the kernel's
zero-filled tail load gives.  d_i g^{lm}, the Gamma Gamma products and
the sum over a are index-order sums.  The scalar curvature runs point
first, as the trace of the full tensor did.
tests/test_contraction_order.py guards these facts of numpy.

Layouts.  metric_at hands dg and d2g over as point-first views of
point-last arrays, which the pass reads back without a copy; other
data is copied to point last.  A sum of three operands, such as
d_i g^{lm}, adds its terms in an order that follows the operands'
strides, so it reads operands whose point axis is last and contiguous
and whose other axes are in C order, as it always has (g^-1 padded
keeps that order).  CurvatureAtPoint.riemann runs point first, on
C-contiguous copies of dg and d2g for the same reason.  The scalar
curvature's sum order follows Ricci's memory layout, which is the one
the trace of the full tensor had: Ric_jk sits at [..., k, j] of a
C-contiguous array, and ricci is the transposed view.  gamma is
C-contiguous, which the sum of the covariant hessian reads.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .autodiff import eval_jet2
from .errors import _Record
from .expressions import ScalarField
from .grids import distinct_points
from .metrics import MetricAtPoint, MetricField, metric_at

__all__ = [
    "CurvatureAtPoint",
    "curvature_from",
    "curvature_at",
    "GridCurvature",
    "curvature_over",
    "covariant_hessian",
    "covariant_hessian_from",
]


@cache
def _kernel_order(n: int) -> np.ndarray | None:
    """The pairs (2h, 2h + 1) of a summed axis of length n, padded to
    even, in the order numpy's float64 dot kernel adds them: blocks of
    four pairs from the top pair down while eight terms remain, then
    one pair at a time.  None where that is index order (n < 8)."""
    full = 4 * (n // 8)
    if not full:
        return None
    order = np.array([b + r for b in range(0, full, 4) for r in (3, 2, 1, 0)]
                     + list(range(full, (n + 1) // 2)))
    order.flags.writeable = False
    return order


def _summand(lead: tuple[int, ...], n: int, p: int) -> np.ndarray:
    """A (*lead, n + n % 2, P) buffer for an operand summed over its
    axis of length n, its pad column zero."""
    buf = np.empty(lead + (n + n % 2, p))
    if n % 2:
        buf[..., n, :] = 0.0
    return buf


def _lanes(buf: np.ndarray, n: int) -> np.ndarray:
    """The (..., m, P) buffer of an operand summed over m as (..., h,
    lane, P), its pairs in the dot kernel's order."""
    *lead, m, p = buf.shape
    lanes = buf.reshape(*lead, m // 2, 2, p)
    order = _kernel_order(n)
    return lanes if order is None else lanes[..., order, :, :]


def _dot(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot kernel's sum: lane 0 plus lane 1 of a point-last einsum
    over (h, lane) whose output ends with the lane, then the points, so
    that an inner loop runs over both lanes."""
    lanes = np.einsum(spec, a, b)
    return np.add(lanes[..., 0, :], lanes[..., 1, :])


def _front(ginv: np.ndarray, dg: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g^{lm} (l, m, P), d_k g_ij (k, i, j, P) and T_ijm = d_i g_jm
    + d_j g_im - d_m g_ij (i, j, m, P), point last, from point-first
    stacks; g^-1 and T in _summand buffers."""
    p, n = ginv.shape[:2]
    ginv_last = _summand((n,), n, p)
    ginv_last[:, :n] = ginv.transpose(1, 2, 0)
    dg = np.ascontiguousarray(dg.transpose(1, 2, 3, 0))
    T = _summand((n, n), n, p)
    T_n = T[:, :, :n]
    np.add(dg, dg.swapaxes(0, 1), out=T_n)
    np.subtract(T_n, dg.transpose(1, 2, 0, 3), out=T_n)
    return ginv_last, dg, T


def _lowered(dg: np.ndarray) -> np.ndarray:
    # T[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij with dg[k, i, j] = d_k g_ij.
    T = dg + dg.swapaxes(-3, -2)
    T -= np.einsum("...lij->...ijl", dg)
    return T


def _lowered_derivative(d2g: np.ndarray) -> np.ndarray:
    # dT[i, j, k, m] = d_i (d_j g_km + d_k g_jm - d_m g_jk)
    dT = d2g + d2g.swapaxes(-3, -2)
    dT -= np.einsum("...imjk->...ijkm", d2g)
    return dT


class CurvatureAtPoint(_Record):
    """Christoffel symbols and curvature tensors at one point, or with
    a leading point axis for stacked metric data: ``metric_data`` (a
    MetricAtPoint), ``gamma`` (n, n, n), ``ricci`` (n, n) and ``scalar``
    a float, or (P,) for a stack.  ``riemann`` is formed on first
    access.  Frozen; equal only to itself."""

    _fields = ("metric_data", "gamma", "ricci", "scalar")

    @cached_property
    def riemann(self) -> np.ndarray:
        """riemann[l, k, i, j] = R^l_kij, from the full dgamma[i, l, j, k]
        = d_i gamma^l_jk; ``ricci`` is its trace over l and i."""
        data = self.metric_data
        ginv, gamma = data.g_inv, self.gamma
        # Point first and C-contiguous, as the sums below need: metric_at's
        # dg and d2g are views of point-last arrays.
        dg, d2g = map(np.ascontiguousarray, (data.dg, data.d2g))
        dginv = np.einsum("...la,...iab,...bm->...ilm", ginv, dg, ginv)
        np.negative(dginv, out=dginv)
        dgamma = 0.5 * (
            np.einsum("...ilm,...jkm->...iljk", dginv, _lowered(dg))
            + np.einsum("...lm,...ijkm->...iljk", ginv, _lowered_derivative(d2g))
        )
        return (
            np.einsum("...iljk->...lkij", dgamma)
            - np.einsum("...jlik->...lkij", dgamma)
            + np.einsum("...lim,...mjk->...lkij", gamma, gamma)
            - np.einsum("...ljm,...mik->...lkij", gamma, gamma)
        )


def curvature_from(data: MetricAtPoint) -> CurvatureAtPoint:
    # One point is a stack of one.
    g_inv, dg, d2g = data.g_inv, data.dg, data.d2g
    if g_inv.ndim == 2:
        g_inv, dg, d2g = g_inv[None], dg[None], d2g[None]
    p, n = g_inv.shape[:2]
    ginv, dg, T = _front(g_inv, dg)
    # gamma[k, i, j, P] = 1/2 g^{kl} T_ijl
    gamma = _dot("ijhc...,khc...->kijc...", _lanes(T, n), _lanes(ginv, n))
    gamma *= 0.5
    # d_i g^{lm} = -g^{la} (d_i g_ab) g^{bm}
    dginv = _summand((n, n), n, p)
    dginv_n = dginv[:, :, :n]
    np.einsum("la...,iab...,bm...->ilm...", ginv[:, :n], dg, ginv[:, :n],
              out=dginv_n)
    np.negative(dginv_n, out=dginv_n)
    # dT_ijkm = d_i (d_j g_km + d_k g_jm - d_m g_jk)
    d2g = d2g.transpose(1, 2, 3, 4, 0)
    dT = _summand((n, n, n), n, p)
    dT_n = dT[:, :, :, :n]
    np.add(d2g, d2g.swapaxes(1, 2), out=dT_n)
    np.subtract(dT_n, d2g.transpose(0, 2, 3, 1, 4), out=dT_n)
    ginv, T, dginv, dT = (_lanes(a, n) for a in (ginv, T, dginv, dT))
    # E[a, k, j] = R^a_jak, the entries of Riemann that Ricci sums:
    # d_a Gamma^a_kj - d_k Gamma^a_aj + Gamma^a_am Gamma^m_kj
    # - Gamma^a_km Gamma^m_aj, each term and each sum as the full tensor
    # forms it, with d_i Gamma^l_jk = 1/2 (d_i g^{lm} T_jkm
    # + g^{lm} dT_ijkm).
    E = _dot("kjhc...,aahc...->akjc...", T, dginv)
    E += _dot("ahc...,akjhc...->akjc...", ginv, dT)
    E *= 0.5
    d_k = _dot("ajhc...,kahc...->akjc...", T, dginv)
    d_k += _dot("ahc...,kajhc...->akjc...", ginv, dT)
    d_k *= 0.5
    E -= d_k
    E += np.einsum("aam...,mkj...->akj...", gamma, gamma)
    E -= np.einsum("akm...,maj...->akj...", gamma, gamma)
    ricci_kj = np.einsum("akj...->kj...", E).transpose(2, 0, 1).copy()
    ricci = np.swapaxes(ricci_kj, -1, -2)
    gamma = gamma.transpose(3, 0, 1, 2).copy()
    scalar = np.einsum("...jk,...jk->...", g_inv, ricci)
    if data.g_inv.ndim == 2:
        return CurvatureAtPoint(data, gamma[0], ricci[0], float(scalar[0]))
    return CurvatureAtPoint(data, gamma, ricci, scalar)


def curvature_at(metric: MetricField, point: Sequence[float]) -> CurvatureAtPoint:
    return curvature_from(metric_at(metric, point))


class GridCurvature(_Record):
    """g, g_inv, gamma, ricci and the scalar curvature over a (P, n)
    stack of points, each with a leading point axis.  Frozen; equal
    only to itself."""

    __slots__ = ("g", "g_inv", "gamma", "ricci", "scalar")


def curvature_over(metric: MetricField, points: np.ndarray) -> GridCurvature:
    """metric_at -> curvature_from once per distinct metric point of a
    (P, n) float64 stack; every point gets the results of its group.

    Two points are one metric point when the coordinates the metric
    reads (MetricField.read_axes) have the same float64 bits, as in the
    jet walk's keys (grids.distinct_points).  Each row goes through the
    arithmetic it would meet in the full stack, so the results have the
    same bits.  An error names its point and carries its stack index.
    """
    groups = distinct_points(points, metric.read_axes)
    curv = groups.run(lambda q: curvature_from(metric_at(metric, q)))
    data = curv.metric_data
    return GridCurvature(*map(groups.gather, (data.g, data.g_inv, curv.gamma,
                                              curv.ricci, curv.scalar)))


def covariant_hessian_from(gradient: np.ndarray, hessian: np.ndarray,
                           gamma: np.ndarray) -> np.ndarray:
    """Hess(f)_ij = d_i d_j f - Gamma^k_ij d_k f from the coordinate
    gradient and hessian of f."""
    return hessian - np.einsum("...kij,...k->...ij", gamma, gradient)


def covariant_hessian(field: ScalarField, data: MetricAtPoint) -> np.ndarray:
    """Hess(f)_ij = d_i d_j f - Gamma^k_ij d_k f at the evaluated point."""
    jet = eval_jet2(field, data.point)
    return covariant_hessian_from(jet.gradient, jet.hessian,
                                  curvature_from(data).gamma)
