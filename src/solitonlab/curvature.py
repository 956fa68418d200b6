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
curvature_over; curvature_at and covariant_hessian are the one-point
views of the same formulas.

Ricci without Riemann.  curvature_from forms only the n^3 entries of
Riemann that Ricci reads, R^a_jak = d_a Gamma^a_kj - d_k Gamma^a_aj
+ Gamma^a_am Gamma^m_kj - Gamma^a_km Gamma^m_aj, each with the products
and sums the full tensor applies to it, and sums them over a; neither
d Gamma nor Riemann is formed.  CurvatureAtPoint.riemann forms the
full tensor by the formulas above on first access, and Ricci is its
trace bit for bit.

Sum order.  np.einsum without ``optimize`` sums each output entry term
by term.  Where the summed index is the last, contiguous axis of two
operands it goes through a SIMD dot kernel whose order is fixed by the
length of that axis.  Those contractions (gamma from g^-1 and T, both
halves of d Gamma, the scalar curvature) run point first, with the
summed axis last and contiguous in both operands; the order of the
operands and the layout of the other axes do not change their bits.
Every other contraction here (d_i g^{lm}, the Gamma Gamma products
and the sum over a) adds its terms one at a time in index order in any
layout, so it runs with the point axis last on every stack, the inner
loop over the points; one point runs as a stack of one.  Each operand
is copied to that layout once, and a result is copied back to
C-contiguous point-first before a dot kernel reads it.
tests/test_contraction_order.py guards these facts of numpy.

Layouts that later sums read.  The scalar curvature's sum order
follows Ricci's memory layout, which is the one the trace of the full
tensor had: Ric_jk sits at [..., k, j] of a C-contiguous array, and
ricci is the transposed view.  gamma is C-contiguous, which the sum of
the covariant hessian reads.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .autodiff import eval_jet2
from .expressions import ScalarField
from .grids import DistinctPoints, distinct_points
from .metrics import MetricAtPoint, MetricField, metric_at

__all__ = [
    "CurvatureAtPoint",
    "christoffel",
    "curvature_from",
    "curvature_at",
    "GridCurvature",
    "curvature_over",
    "covariant_hessian",
    "covariant_hessian_from",
]


def _point_last(a: np.ndarray) -> np.ndarray:
    return a.transpose(*range(1, a.ndim), 0).copy()


def _point_first(a: np.ndarray) -> np.ndarray:
    return a.transpose(a.ndim - 1, *range(a.ndim - 1)).copy()


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


def _christoffel_from(g_inv: np.ndarray, T: np.ndarray) -> np.ndarray:
    gamma = np.einsum("...ijl,...kl->...kij", T, g_inv)
    gamma *= 0.5
    return gamma


def christoffel(data: MetricAtPoint) -> np.ndarray:
    """Christoffel symbols gamma[k, i, j] at the evaluated point."""
    return _christoffel_from(data.g_inv, _lowered(data.dg))


def _inverse_derivative(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    # d_i g^{lm} = -g^{la} (d_i g_ab) g^{bm}
    dginv = np.einsum("...la,...iab,...bm->...ilm", g_inv, dg, g_inv)
    return np.negative(dginv, out=dginv)


class CurvatureAtPoint:
    """Christoffel symbols and curvature tensors at one point, or with
    a leading point axis for stacked metric data.  ``riemann`` is
    formed on first access.  Frozen; equal only to itself."""

    def __init__(self, metric_data: MetricAtPoint, gamma: np.ndarray,
                 ricci: np.ndarray, scalar: float | np.ndarray) -> None:
        object.__setattr__(self, "metric_data", metric_data)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "ricci", ricci)
        object.__setattr__(self, "scalar", scalar)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (f"CurvatureAtPoint(metric_data={self.metric_data!r}, "
                f"gamma={self.gamma!r}, ricci={self.ricci!r}, "
                f"scalar={self.scalar!r})")

    @cached_property
    def riemann(self) -> np.ndarray:
        """riemann[l, k, i, j] = R^l_kij, from the full dgamma[i, l, j, k]
        = d_i gamma^l_jk; ``ricci`` is its trace over l and i."""
        data = self.metric_data
        ginv, gamma = data.g_inv, self.gamma
        dginv = _inverse_derivative(ginv, data.dg)
        dgamma = 0.5 * (
            np.einsum("...ilm,...jkm->...iljk", dginv, _lowered(data.dg))
            + np.einsum("...lm,...ijkm->...iljk", ginv,
                        _lowered_derivative(data.d2g))
        )
        return (
            np.einsum("...iljk->...lkij", dgamma)
            - np.einsum("...jlik->...lkij", dgamma)
            + np.einsum("...lim,...mjk->...lkij", gamma, gamma)
            - np.einsum("...ljm,...mik->...lkij", gamma, gamma)
        )


def curvature_from(data: MetricAtPoint) -> CurvatureAtPoint:
    one = data.g_inv.ndim == 2
    ginv, dg, d2g = (a[None] if one else a
                     for a in (data.g_inv, data.dg, data.d2g))
    T = _lowered(dg)
    gamma = _christoffel_from(ginv, T)
    ginv_last = _point_last(ginv)
    dginv = np.einsum("la...,iab...,bm...->ilm...", ginv_last,
                      _point_last(dg), ginv_last)
    dginv = _point_first(np.negative(dginv, out=dginv))
    dT = _lowered_derivative(d2g)
    # E[a, k, j] = R^a_jak, the entries of Riemann that Ricci sums:
    # d_a Gamma^a_kj - d_k Gamma^a_aj + Gamma^a_am Gamma^m_kj
    # - Gamma^a_km Gamma^m_aj, each term and each sum as the full tensor
    # forms it, with d_i Gamma^l_jk = 1/2 (d_i g^{lm} T_jkm
    # + g^{lm} dT_ijkm).  The copy of dT with its first two axes swapped
    # lets g^{am} dT_kajm read dT in memory order.
    E = np.einsum("...kjm,...aam->...akj", T, dginv)
    E += np.einsum("...am,...akjm->...akj", ginv, dT)
    E *= 0.5
    d_k = np.einsum("...ajm,...kam->...akj", T, dginv)
    d_k += np.einsum("...am,...akjm->...akj", ginv,
                     dT.swapaxes(-4, -3).copy())
    d_k *= 0.5
    E -= d_k
    gamma_last = _point_last(gamma)
    E = _point_last(E)
    E += np.einsum("aam...,mkj...->akj...", gamma_last, gamma_last)
    E -= np.einsum("akm...,maj...->akj...", gamma_last, gamma_last)
    ricci_kj = _point_first(np.einsum("akj...->kj...", E))
    ricci = np.swapaxes(ricci_kj, -1, -2)
    scalar = np.einsum("...jk,...jk->...", ginv, ricci)
    if one:
        return CurvatureAtPoint(data, gamma[0], ricci[0], float(scalar[0]))
    return CurvatureAtPoint(data, gamma, ricci, scalar)


def curvature_at(metric: MetricField, point: Sequence[float]) -> CurvatureAtPoint:
    return curvature_from(metric_at(metric, point))


class GridCurvature:
    """g, g_inv, gamma, ricci and the scalar curvature over a (P, n)
    stack of points, each with a leading point axis.  Frozen; equal
    only to itself."""

    __slots__ = ("g", "g_inv", "gamma", "ricci", "scalar")

    def __init__(self, g: np.ndarray, g_inv: np.ndarray, gamma: np.ndarray,
                 ricci: np.ndarray, scalar: np.ndarray) -> None:
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "g_inv", g_inv)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "ricci", ricci)
        object.__setattr__(self, "scalar", scalar)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (f"GridCurvature(g={self.g!r}, g_inv={self.g_inv!r}, "
                f"gamma={self.gamma!r}, ricci={self.ricci!r}, "
                f"scalar={self.scalar!r})")


def curvature_over(metric: MetricField, points: np.ndarray, *,
                   distinct: bool = False) -> GridCurvature:
    """metric_at -> curvature_from once per distinct metric point of a
    (P, n) float64 stack; every point gets the results of its group.

    Two points are one metric point when the coordinates the metric
    reads (MetricField.read_axes) have the same float64 bits, as in the
    jet walk's keys (grids.distinct_points).  A caller whose points are
    already one per distinct value of those coordinates, or of more,
    says so with ``distinct``, and they are not grouped again.  Each
    row goes through the arithmetic it would meet in the full stack, so
    the results have the same bits.  An error names its point and
    carries its stack index.
    """
    groups = (DistinctPoints(points, np.arange(len(points)), None) if distinct
              else distinct_points(points, metric.read_axes))
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
    return covariant_hessian_from(jet.gradient, jet.hessian, christoffel(data))
