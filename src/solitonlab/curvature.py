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
ricci[j, k].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import eval_jet2
from .expressions import ScalarField
from .metrics import MetricAtPoint, MetricField, metric_at

__all__ = [
    "CurvatureAtPoint",
    "christoffel",
    "curvature_from",
    "curvature_at",
    "covariant_hessian",
    "covariant_hessian_from",
    "gradient_and_norm",
    "laplace_beltrami",
]


def _christoffel_parts(data: MetricAtPoint) -> tuple[np.ndarray, np.ndarray]:
    # T[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij with dg[k, i, j] = d_k g_ij.
    dg = data.dg
    T = (
        np.einsum("ijl->ijl", dg)
        + np.einsum("jil->ijl", dg)
        - np.einsum("lij->ijl", dg)
    )
    return T, 0.5 * np.einsum("kl,ijl->kij", data.g_inv, T)


def christoffel(data: MetricAtPoint) -> np.ndarray:
    """Christoffel symbols gamma[k, i, j] at the evaluated point."""
    return _christoffel_parts(data)[1]


@dataclass(frozen=True, eq=False)
class CurvatureAtPoint:
    """Christoffel symbols and curvature tensors at one point."""

    metric_data: MetricAtPoint
    gamma: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float


def curvature_from(data: MetricAtPoint) -> CurvatureAtPoint:
    ginv = data.g_inv
    d2g = data.d2g
    T, gamma = _christoffel_parts(data)
    # d_i g^{lm} = -g^{la} (d_i g_ab) g^{bm}
    dginv = -np.einsum("la,iab,bm->ilm", ginv, data.dg, ginv)
    # dT[i, j, k, m] = d_i (d_j g_km + d_k g_jm - d_m g_jk)
    dT = (
        np.einsum("ijkm->ijkm", d2g)
        + np.einsum("ikjm->ijkm", d2g)
        - np.einsum("imjk->ijkm", d2g)
    )
    # dgamma[i, l, j, k] = d_i gamma^l_jk
    dgamma = 0.5 * (
        np.einsum("ilm,jkm->iljk", dginv, T)
        + np.einsum("lm,ijkm->iljk", ginv, dT)
    )
    riemann = (
        np.einsum("iljk->lkij", dgamma)
        - np.einsum("jlik->lkij", dgamma)
        + np.einsum("lim,mjk->lkij", gamma, gamma)
        - np.einsum("ljm,mik->lkij", gamma, gamma)
    )
    ricci = np.einsum("ijik->jk", riemann)
    scalar = float(np.einsum("jk,jk->", ginv, ricci))
    return CurvatureAtPoint(data, gamma, riemann, ricci, scalar)


def curvature_at(metric: MetricField, point: Sequence[float]) -> CurvatureAtPoint:
    return curvature_from(metric_at(metric, point))


def covariant_hessian_from(gradient: np.ndarray, hessian: np.ndarray,
                           gamma: np.ndarray) -> np.ndarray:
    """Hess(f)_ij = d_i d_j f - Gamma^k_ij d_k f from the coordinate
    gradient and hessian of f."""
    return hessian - np.einsum("kij,k->ij", gamma, gradient)


def covariant_hessian(field: ScalarField, data: MetricAtPoint,
                      gamma: np.ndarray | None = None) -> np.ndarray:
    """Hess(f)_ij = d_i d_j f - Gamma^k_ij d_k f at the evaluated point."""
    if gamma is None:
        gamma = christoffel(data)
    jet = eval_jet2(field, data.point)
    return covariant_hessian_from(jet.gradient, jet.hessian, gamma)


def gradient_and_norm(field: ScalarField, data: MetricAtPoint) -> tuple[np.ndarray, float]:
    """Raised gradient g^{ij} d_j f and squared length g^{ij} d_i f d_j f.

    The squared length can be negative on an indefinite metric.
    """
    jet = eval_jet2(field, data.point)
    df = jet.gradient
    raised = data.g_inv @ df
    return raised, float(df @ raised)


def laplace_beltrami(field: ScalarField, data: MetricAtPoint,
                     gamma: np.ndarray | None = None) -> float:
    """Metric trace of the covariant hessian."""
    hess = covariant_hessian(field, data, gamma)
    return float(np.einsum("ij,ij->", data.g_inv, hess))
