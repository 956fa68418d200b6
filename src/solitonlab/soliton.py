"""Verification of gradient Yamabe-type soliton structures.

A metric g with potential phi and constant lam is checked against

    Hess(phi) = (scal - lam) g                      (plain residual)
    Hess(phi) = (scal - lam) g + mu dphi (x) dphi   (coupled residual)

where scal is the scalar curvature.  The plain case is the mu = 0
instance of the coupled one and runs through the same code path, so
the two agree bit for bit.

For mu = 1/m nonzero the substitution theta = exp(-phi/m) turns the
coupled equation into

    Hess(theta) = -(theta/m) (scal - lam) g

and, with no soliton assumption at all, the two hessians satisfy

    Hess(phi) = (1/m) dphi (x) dphi - (m/theta) Hess(theta).

theta_check exposes both facts as residual matrices.  The module also
provides lambda inference from the traced equation, classification,
residual summaries over point sets, and the base/fiber conditions that
characterize these solitons on warped products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import eval_jet2
from .curvature import christoffel, covariant_hessian_from, curvature_from
from .errors import NonPositiveWarpingError
from .expressions import Const, ScalarField, mul, neg
from .expressions import call as _call
from .metrics import MetricField, metric_at

__all__ = [
    "SolitonData",
    "PointGeometry",
    "point_geometry",
    "gys_residual",
    "gqy_residual",
    "theta_substitution",
    "ThetaCheck",
    "theta_check",
    "LambdaEstimate",
    "infer_lambda",
    "classify",
    "ResidualReport",
    "residual_report",
    "WarpedConditions",
    "warped_conditions_check",
]


@dataclass(frozen=True)
class SolitonData:
    """Candidate soliton structure: potential, constant, coupling.

    mu = 0 is the plain gradient case; nonzero mu couples the squared
    differential of the potential with strength mu = 1/m.
    """

    potential: ScalarField
    lam: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam):
            raise ValueError("soliton constant must be finite")
        if not math.isfinite(self.mu):
            raise ValueError("coupling must be finite")


# ---------------------------------------------------------------------
# The geometry pass
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PointGeometry:
    """What the soliton equation needs at each point of a set: the
    metric and its inverse, the scalar curvature, and the potential's
    gradient, covariant hessian and laplacian, stacked along a leading
    point axis.  Riemann and the second metric derivatives are not
    kept."""

    points: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    scal: np.ndarray
    dphi: np.ndarray
    hess: np.ndarray
    lap: np.ndarray

    def residuals(self, lam: float, mu: float) -> np.ndarray:
        """Hess(phi) - (scal - lam) g - mu dphi (x) dphi at every point."""
        res = self.hess - (self.scal - lam)[:, None, None] * self.g
        if mu != 0.0:
            res = res - mu * (self.dphi[:, :, None] * self.dphi[:, None, :])
        return res

    def lambda_estimate(self, mu: float) -> LambdaEstimate:
        """See infer_lambda."""
        norm2 = np.array([np.einsum("ij,i,j->", gi, d, d)
                          for gi, d in zip(self.g_inv, self.dphi)])
        samples = self.scal - (self.lap - mu * norm2) / self.g.shape[1]
        value = float(samples.mean())
        spread = float(np.max(np.abs(samples - value)))
        return LambdaEstimate(value, spread, samples)

    def residual_report(self, lam: float, mu: float,
                        tol: float) -> ResidualReport:
        """See residual_report."""
        if tol <= 0.0:
            raise ValueError("tolerance must be positive")
        grids = self.residuals(lam, mu)
        per_point = np.abs(grids).max(axis=(1, 2))
        worst = int(np.argmax(per_point))
        max_abs = float(per_point[worst])
        return ResidualReport(
            points=self.points,
            residual_grids=grids,
            max_abs=max_abs,
            mean_abs=float(per_point.mean()),
            passed=max_abs <= tol,
            worst_point=self.points[worst].copy(),
        )


def point_geometry(metric: MetricField, potential: ScalarField,
                   points: Sequence[Sequence[float]]) -> PointGeometry:
    """One metric_at -> curvature_from -> potential jet pass per point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("the geometry pass needs at least one point")
    rows = []
    for point in pts:
        data = metric_at(metric, point)
        curv = curvature_from(data)
        jet = eval_jet2(potential, data.point)
        hess = covariant_hessian_from(jet.gradient, jet.hessian, curv.gamma)
        lap = np.einsum("ij,ij->", data.g_inv, hess)
        rows.append((data.g, data.g_inv, curv.scalar, jet.gradient, hess, lap))
    return PointGeometry(pts, *(np.array(column) for column in zip(*rows)))


# ---------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------

def gqy_residual(metric: MetricField, soliton: SolitonData,
                 point: Sequence[float]) -> np.ndarray:
    """Hess(phi) - (scal - lam) g - mu dphi (x) dphi at one point."""
    geometry = point_geometry(metric, soliton.potential, [point])
    return geometry.residuals(soliton.lam, soliton.mu)[0]


def gys_residual(metric: MetricField, soliton: SolitonData,
                 point: Sequence[float]) -> np.ndarray:
    """Plain-case residual; requires mu = 0 and shares the coupled path."""
    if soliton.mu != 0.0:
        raise ValueError("plain residual requires mu = 0")
    return gqy_residual(metric, soliton, point)


# ---------------------------------------------------------------------
# Exponential substitution
# ---------------------------------------------------------------------

def theta_substitution(potential: ScalarField, mu: float) -> ScalarField:
    """theta = exp(-mu * phi), built symbolically so its jets are exact."""
    if mu == 0.0:
        raise ValueError("theta substitution needs a nonzero coupling")
    return ScalarField(
        potential.chart,
        _call("exp", neg(mul(Const(float(mu)), potential.root))),
    )


@dataclass(frozen=True, eq=False)
class ThetaCheck:
    """Residual matrices of the substitution equation and of the
    unconditional two-hessian identity."""

    theta_residual: np.ndarray
    identity_residual: np.ndarray


def theta_check(metric: MetricField, soliton: SolitonData,
                point: Sequence[float]) -> ThetaCheck:
    """Evaluate both theta-substitution residuals at one point.

    theta_residual    = Hess(theta) + (theta/m)(scal - lam) g
    identity_residual = Hess(phi) - (1/m) dphi (x) dphi + (m/theta) Hess(theta)

    The first vanishes exactly when the coupled equation holds; the
    second vanishes for every smooth potential, so it measures pure
    numerical error of the two hessian routes.
    """
    if soliton.mu == 0.0:
        raise ValueError("theta check needs a nonzero coupling")
    m = 1.0 / soliton.mu
    theta = theta_substitution(soliton.potential, soliton.mu)
    data = metric_at(metric, point)
    curv = curvature_from(data)
    jet_phi = eval_jet2(soliton.potential, data.point)
    jet_th = eval_jet2(theta, data.point)
    hess_phi = covariant_hessian_from(jet_phi.gradient, jet_phi.hessian, curv.gamma)
    hess_th = covariant_hessian_from(jet_th.gradient, jet_th.hessian, curv.gamma)
    theta_res = hess_th + (jet_th.value / m) * (curv.scalar - soliton.lam) * data.g
    identity_res = (
        hess_phi
        - np.outer(jet_phi.gradient, jet_phi.gradient) / m
        + (m / jet_th.value) * hess_th
    )
    return ThetaCheck(theta_res, identity_res)


# ---------------------------------------------------------------------
# Lambda inference and classification
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LambdaEstimate:
    value: float
    spread: float
    samples: np.ndarray


def infer_lambda(metric: MetricField, potential: ScalarField,
                 points: Sequence[Sequence[float]],
                 mu: float = 0.0) -> LambdaEstimate:
    """Estimate the soliton constant from the traced equation.

    Tracing the defining equation with the inverse metric gives, at
    each point, lam(p) = scal - (Lap(phi) - mu |grad phi|^2) / n.  For
    a genuine soliton the samples are constant; ``spread`` is the
    largest deviation from their mean and doubles as a structure check.
    """
    return point_geometry(metric, potential, points).lambda_estimate(mu)


def classify(lam: float, tol: float = 1e-8) -> str:
    """'shrinking' (lam > tol), 'steady' (|lam| <= tol) or 'expanding'."""
    if lam > tol:
        return "shrinking"
    if lam < -tol:
        return "expanding"
    return "steady"


# ---------------------------------------------------------------------
# Residual summaries over point sets
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ResidualReport:
    points: np.ndarray
    residual_grids: np.ndarray
    max_abs: float
    mean_abs: float
    passed: bool
    worst_point: np.ndarray


def residual_report(metric: MetricField, soliton: SolitonData,
                    points: Sequence[Sequence[float]],
                    tol: float) -> ResidualReport:
    """Residual grid at every point; pass iff the largest entry is
    within tol.  mean_abs averages the per-point max norms."""
    geometry = point_geometry(metric, soliton.potential, points)
    return geometry.residual_report(soliton.lam, soliton.mu, tol)


# ---------------------------------------------------------------------
# Warped-product conditions
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WarpedConditions:
    """Residuals of the base/fiber conditions a coupled soliton imposes
    on a warped product.

    fiber_dependence      largest fiber-direction derivative of phi
    pairing_gap           largest |g_B(grad theta, grad b) - (lam - scal) b theta / m|
    base_hessian_gap      largest entry of Hess_B(theta) - (theta/m)(lam - scal) g_B
    fiber_scalar_spread   spread of the fiber scalar-curvature samples
    pairing_min_abs       smallest |g_B(grad theta, grad b)| seen, reported
                          so callers can judge the non-orthogonality
                          requirement at their sample points
    """

    fiber_dependence: float
    pairing_gap: float
    base_hessian_gap: float
    fiber_scalar_spread: float
    pairing_min_abs: float

    def max_gap(self) -> float:
        return max(
            self.fiber_dependence,
            self.pairing_gap,
            self.base_hessian_gap,
            self.fiber_scalar_spread,
        )


def warped_conditions_check(
    base: MetricField,
    fiber: MetricField,
    warping: ScalarField,
    soliton: SolitonData,
    base_points: Sequence[Sequence[float]],
    fiber_points: Sequence[Sequence[float]],
) -> WarpedConditions:
    """Check the warped-product conditions at sampled points.

    The product metric g_B + warping^2 g_F is assembled on the chart
    base.chart + fiber.chart and its scalar curvature enters the
    right-hand sides.  Conditions, with theta = exp(-mu phi), m = 1/mu:

      1. phi has no fiber dependence (every base x fiber pairing);
      2. g_B(grad theta, grad b) = (lam - scal) b theta / m;
      3. Hess_B(theta) = (theta/m)(lam - scal) g_B;
      4. the fiber scalar curvature is constant over fiber_points.

    Conditions 2 and 3 run along base_points with the fiber block
    pinned to the first fiber point.
    """
    from .families import WarpedProductSpec, assemble_warped_metric

    if soliton.mu == 0.0:
        raise ValueError("warped conditions need a nonzero coupling")
    m = 1.0 / soliton.mu
    base_pts = np.atleast_2d(np.asarray(base_points, dtype=float))
    fiber_pts = np.atleast_2d(np.asarray(fiber_points, dtype=float))
    if base_pts.shape[0] == 0 or fiber_pts.shape[0] == 0:
        raise ValueError("warped conditions need base and fiber points")
    for x in base_pts:
        if warping(x) <= 0.0:
            raise NonPositiveWarpingError(
                f"warping is not positive at base point {x.tolist()}"
            )
    metric = assemble_warped_metric(WarpedProductSpec(base, fiber, warping))
    dim_base = base.dimension
    if soliton.potential.chart != metric.chart:
        raise ValueError("potential must live on the product chart")
    theta = theta_substitution(soliton.potential, soliton.mu)

    # 1. fiber independence of phi, over all pairings
    fiber_dependence = 0.0
    for x in base_pts:
        for y in fiber_pts:
            jet = eval_jet2(soliton.potential, np.concatenate([x, y]))
            slope = float(np.max(np.abs(jet.gradient[dim_base:])))
            fiber_dependence = max(fiber_dependence, slope)

    # 2 and 3, along the base with the fiber block pinned
    y0 = fiber_pts[0]
    pairing_gap = 0.0
    base_hessian_gap = 0.0
    pairing_min = np.inf
    for x in base_pts:
        full_point = np.concatenate([x, y0])
        scal = curvature_from(metric_at(metric, full_point)).scalar
        base_data = metric_at(base, x)
        gamma_b = christoffel(base_data)
        jet_th = eval_jet2(theta, full_point)
        grad_th = jet_th.gradient[:dim_base]
        hess_th = covariant_hessian_from(
            grad_th, jet_th.hessian[:dim_base, :dim_base], gamma_b
        )
        jet_b = eval_jet2(warping, x)
        pairing = float(np.einsum("ij,i,j->", base_data.g_inv, grad_th, jet_b.gradient))
        pairing_min = min(pairing_min, abs(pairing))
        want = (soliton.lam - scal) * jet_b.value * jet_th.value / m
        pairing_gap = max(pairing_gap, abs(pairing - want))
        hess_want = (jet_th.value / m) * (soliton.lam - scal) * base_data.g
        base_hessian_gap = max(
            base_hessian_gap, float(np.max(np.abs(hess_th - hess_want)))
        )

    # 4. fiber scalar-curvature constancy
    fiber_scal = np.empty(fiber_pts.shape[0])
    for row, y in enumerate(fiber_pts):
        fiber_scal[row] = curvature_from(metric_at(fiber, y)).scalar
    spread = float(np.max(np.abs(fiber_scal - fiber_scal.mean())))

    return WarpedConditions(
        fiber_dependence=fiber_dependence,
        pairing_gap=pairing_gap,
        base_hessian_gap=base_hessian_gap,
        fiber_scalar_spread=spread,
        pairing_min_abs=float(pairing_min),
    )
