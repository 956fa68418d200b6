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
ricci[j, k].  Every contraction is a leading-axis ('...') einsum, so
the same code serves the data of one point and metric data stacked
over P points (see metrics.metric_at), which adds a leading point axis
to every array and turns the scalar curvature into a (P,) array.
curvature_over runs metric_at -> curvature_from over a grid once per
distinct metric point and hands every grid point its group's results.
Everything a potential adds on top (its gradient, covariant hessian
and laplacian) comes from soliton.point_geometry, which reads
curvature_over; curvature_at and covariant_hessian are the one-point
views of the same formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import eval_jet2
from .errors import SolitonLabError
from .expressions import ScalarField
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


def _christoffel_parts(data: MetricAtPoint) -> tuple[np.ndarray, np.ndarray]:
    # T[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij with dg[k, i, j] = d_k g_ij.
    dg = data.dg
    T = (
        np.einsum("...ijl->...ijl", dg)
        + np.einsum("...jil->...ijl", dg)
        - np.einsum("...lij->...ijl", dg)
    )
    return T, 0.5 * np.einsum("...kl,...ijl->...kij", data.g_inv, T)


def christoffel(data: MetricAtPoint) -> np.ndarray:
    """Christoffel symbols gamma[k, i, j] at the evaluated point."""
    return _christoffel_parts(data)[1]


@dataclass(frozen=True, eq=False)
class CurvatureAtPoint:
    """Christoffel symbols and curvature tensors at one point, or with
    a leading point axis for stacked metric data."""

    metric_data: MetricAtPoint
    gamma: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float | np.ndarray


def curvature_from(data: MetricAtPoint) -> CurvatureAtPoint:
    ginv = data.g_inv
    d2g = data.d2g
    T, gamma = _christoffel_parts(data)
    # d_i g^{lm} = -g^{la} (d_i g_ab) g^{bm}
    dginv = -np.einsum("...la,...iab,...bm->...ilm", ginv, data.dg, ginv)
    # dT[i, j, k, m] = d_i (d_j g_km + d_k g_jm - d_m g_jk)
    dT = (
        np.einsum("...ijkm->...ijkm", d2g)
        + np.einsum("...ikjm->...ijkm", d2g)
        - np.einsum("...imjk->...ijkm", d2g)
    )
    # dgamma[i, l, j, k] = d_i gamma^l_jk
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
    return CurvatureAtPoint(data, gamma, riemann, ricci, scalar)


def curvature_at(metric: MetricField, point: Sequence[float]) -> CurvatureAtPoint:
    return curvature_from(metric_at(metric, point))


@dataclass(frozen=True, eq=False)
class GridCurvature:
    """g, g_inv, gamma, ricci and the scalar curvature over a (P, n)
    stack of points, each with a leading point axis."""

    g: np.ndarray
    g_inv: np.ndarray
    gamma: np.ndarray
    ricci: np.ndarray
    scalar: np.ndarray


def curvature_over(metric: MetricField, points: np.ndarray) -> GridCurvature:
    """metric_at -> curvature_from once per distinct metric point of a
    (P, n) float64 stack; every point gets the results of its group.

    Two points are one metric point when the coordinates the metric
    reads (MetricField.read_axes) have the same float64 bits, so 0.0
    and -0.0 stay apart, as in the jet walk's keys.  A group is
    represented by its first point in stack order.  Each row goes
    through the arithmetic it would meet in the full stack, so the
    results have the same bits.  An error at a representative names
    that point and carries its stack index: no earlier point fails,
    since each earlier point's group has an earlier representative.
    Where every point is its own metric point, as on a grid over every
    coordinate the metric reads, the stack goes through as it is.
    """
    read = np.ascontiguousarray(points[:, metric.read_axes])
    if read.shape[1]:
        rows = read.view(np.dtype((np.void, read.itemsize * read.shape[1])))
        _, first, of = np.unique(rows[:, 0], return_index=True, return_inverse=True)
    else:
        first, of = np.zeros(1, np.intp), np.zeros(len(points), np.intp)
    if len(first) == len(points):
        curv = curvature_from(metric_at(metric, points))
        data = curv.metric_data
        return GridCurvature(data.g, data.g_inv, curv.gamma, curv.ricci,
                             curv.scalar)
    # np.unique numbers the groups in the order of their bits; number
    # them in stack order of their first points instead.
    at = first[of]
    first = np.sort(first)
    of = np.searchsorted(first, at)
    try:
        curv = curvature_from(metric_at(metric, points[first]))
    except SolitonLabError as exc:
        if exc.index is not None:
            exc.index = int(first[exc.index])
        raise
    data = curv.metric_data
    return GridCurvature(data.g[of], data.g_inv[of], curv.gamma[of],
                         curv.ricci[of], curv.scalar[of])


def covariant_hessian_from(gradient: np.ndarray, hessian: np.ndarray,
                           gamma: np.ndarray) -> np.ndarray:
    """Hess(f)_ij = d_i d_j f - Gamma^k_ij d_k f from the coordinate
    gradient and hessian of f."""
    return hessian - np.einsum("...kij,...k->...ij", gamma, gradient)


def covariant_hessian(field: ScalarField, data: MetricAtPoint) -> np.ndarray:
    """Hess(f)_ij = d_i d_j f - Gamma^k_ij d_k f at the evaluated point."""
    jet = eval_jet2(field, data.point)
    return covariant_hessian_from(jet.gradient, jet.hessian, christoffel(data))
