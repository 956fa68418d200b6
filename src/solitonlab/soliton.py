"""Verification of gradient Yamabe-type soliton structures.

A metric g with potential phi and constants lam, mu is checked against

    Hess(phi) = (scal - lam) g + mu dphi (x) dphi

where scal is the scalar curvature.  The gradient Yamabe soliton is
the mu = 0 case; it runs through the same code, gqy_residual with
mu = 0.

For mu = 1/m nonzero the substitution theta = exp(-phi/m) turns the
coupled equation into

    Hess(theta) = -(theta/m) (scal - lam) g

and, with no soliton assumption at all, the two hessians satisfy

    Hess(phi) = (1/m) dphi (x) dphi - (m/theta) Hess(theta).

theta_check exposes both facts as residual matrices.  The module also
provides lambda inference from the traced equation, classification and
residual summaries over point sets.  All of them, and the checks in
``families``, read the one geometry pass, point_geometry, which
computes the metric and its curvature once per distinct metric point
(curvature_over) and the potential's gradient, covariant hessian and
laplacian once per point it is given (field_geometry).  Checks of
several fields on one metric run curvature_over once and
field_geometry per field.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .autodiff import eval_jet2
from .curvature import GridCurvature, covariant_hessian_from, curvature_over
from .errors import _Record, _ValueRecord, in_grid_order
from .expressions import Const, ScalarField, mul, neg
from .expressions import call as _call
from .metrics import MetricField

__all__ = [
    "SolitonData",
    "PointGeometry",
    "point_geometry",
    "field_geometry",
    "gqy_residual",
    "theta_substitution",
    "ThetaCheck",
    "theta_check",
    "LambdaEstimate",
    "infer_lambda",
    "classify",
    "ResidualReport",
    "residual_report",
]


class SolitonData(_ValueRecord):
    """Candidate soliton structure: potential, constant, coupling.

    mu = 0 is the plain gradient case; nonzero mu couples the squared
    differential of the potential with strength mu = 1/m.  Frozen, and
    equal to data of the same potential, constant and coupling.
    """

    __slots__ = ("potential", "lam", "mu")

    def __init__(self, potential: ScalarField, lam: float,
                 mu: float = 0.0) -> None:
        if not math.isfinite(lam):
            raise ValueError("soliton constant must be finite")
        if not math.isfinite(mu):
            raise ValueError("coupling must be finite")
        super().__init__(potential, lam, mu)


# ---------------------------------------------------------------------
# The geometry pass
# ---------------------------------------------------------------------

class PointGeometry(_Record):
    """What the soliton equation needs at each point of a set: the
    metric and its inverse, the scalar curvature, and the potential's
    gradient, covariant hessian and laplacian, stacked along a leading
    point axis.  Riemann and the second metric derivatives are not
    kept.  Frozen; equal only to itself."""

    __slots__ = ("points", "g", "g_inv", "scal", "dphi", "hess", "lap")

    def residuals(self, lam: float, mu: float) -> np.ndarray:
        """Hess(phi) - (scal - lam) g - mu dphi (x) dphi at every point."""
        res = self.hess - (self.scal - lam)[:, None, None] * self.g
        if mu != 0.0:
            res = res - mu * (self.dphi[:, :, None] * self.dphi[:, None, :])
        return res

    def lambda_estimate(self, mu: float) -> LambdaEstimate:
        """See infer_lambda."""
        norm2 = np.einsum("...ij,...i,...j->...", self.g_inv, self.dphi,
                          self.dphi)
        return LambdaEstimate.of(
            self.scal - (self.lap - mu * norm2) / self.g.shape[1])

    def residual_report(self, lam: float, mu: float,
                        tol: float) -> ResidualReport:
        """See residual_report."""
        return ResidualReport.of(self.points, self.residuals(lam, mu), tol)


def field_geometry(curv: GridCurvature, potential: ScalarField,
                   points: np.ndarray) -> PointGeometry:
    """The field half of the pass: the potential's jet over a (P, n)
    float64 stack, and its covariant hessian and laplacian on ``curv``,
    the metric half that curvature_over gave for the same stack.  Any
    number of fields on one metric can share one ``curv``."""
    jet = eval_jet2(potential, points)
    hess = covariant_hessian_from(jet.gradient, jet.hessian, curv.gamma)
    lap = np.einsum("...ij,...ij->...", curv.g_inv, hess)
    return PointGeometry(points, curv.g, curv.g_inv, curv.scalar,
                         jet.gradient, hess, lap)


def point_geometry(metric: MetricField, potential: ScalarField,
                   points: Sequence[Sequence[float]]) -> PointGeometry:
    """metric_at -> curvature_from once per distinct metric point of the
    stack (curvature_over), then field_geometry over all the points.
    The results have the bits of a pass without that sharing, so a
    caller may pass one point per distinct point of the coordinates
    the metric and the potential read, as the command line does
    (grids.distinct_points), and hand each result to its group.  An
    error names the first bad point in grid order, whichever stage
    finds it."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("the geometry pass needs at least one point")
    return in_grid_order(lambda q: field_geometry(
        curvature_over(metric, q), potential, q), pts)


# ---------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------

def gqy_residual(metric: MetricField, soliton: SolitonData,
                 point: Sequence[float]) -> np.ndarray:
    """Hess(phi) - (scal - lam) g - mu dphi (x) dphi at one point."""
    geometry = point_geometry(metric, soliton.potential, [point])
    return geometry.residuals(soliton.lam, soliton.mu)[0]


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


class ThetaCheck(_Record):
    """Residual matrices, each (n, n), of the substitution equation and
    of the unconditional two-hessian identity.  Frozen; equal only to
    itself."""

    __slots__ = ("theta_residual", "identity_residual")


def theta_check(metric: MetricField, soliton: SolitonData,
                point: Sequence[float]) -> ThetaCheck:
    """Evaluate both theta-substitution residuals at one point.

    theta_residual    = Hess(theta) + (theta/m)(scal - lam) g
    identity_residual = Hess(phi) - (1/m) dphi (x) dphi + (m/theta) Hess(theta)

    The first vanishes exactly when the coupled equation holds; the
    second vanishes for every smooth potential, so it measures pure
    numerical error of the two hessian routes.  Both come from one
    curvature pass over the point and the field halves of phi and
    theta on it; theta's value is the plain evaluation of the field.
    """
    if soliton.mu == 0.0:
        raise ValueError("theta check needs a nonzero coupling")
    m = 1.0 / soliton.mu
    theta = theta_substitution(soliton.potential, soliton.mu)
    pts = np.array([point], dtype=float)
    curv = curvature_over(metric, pts)
    phi = field_geometry(curv, soliton.potential, pts)
    th = field_geometry(curv, theta, pts)
    theta_value = float(theta.at_points(pts)[0])
    hess_th = th.hess[0]
    theta_res = hess_th + (theta_value / m) * (th.scal[0] - soliton.lam) * th.g[0]
    identity_res = (
        phi.hess[0]
        - np.outer(phi.dphi[0], phi.dphi[0]) / m
        + (m / theta_value) * hess_th
    )
    return ThetaCheck(theta_res, identity_res)


# ---------------------------------------------------------------------
# Lambda inference and classification
# ---------------------------------------------------------------------

class LambdaEstimate(_Record):
    """The mean of the lambda samples, their spread about it (both
    floats) and the (P,) samples.  Frozen; equal only to itself."""

    __slots__ = ("value", "spread", "samples")

    @classmethod
    def of(cls, samples: np.ndarray) -> LambdaEstimate:
        """The samples' mean and their largest |deviation| from it."""
        value = float(samples.mean())
        return cls(value, float(np.max(np.abs(samples - value))), samples)


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

class ResidualReport(_Record):
    """The residuals at each point, each point's largest |entry|, their
    largest and mean, whether the largest is within the tolerance, and
    the first worst point (arrays, two floats and a bool).  Frozen;
    equal only to itself."""

    __slots__ = ("points", "residual_grids", "per_point", "max_abs",
                 "mean_abs", "passed", "worst_point")

    @classmethod
    def of(cls, points: np.ndarray, grids: np.ndarray,
           tol: float) -> ResidualReport:
        """Each point's largest |entry| over the trailing axes of the
        stacked residuals (``per_point``), and the first worst point.
        A (P,) stack is read as the points' largest entries already."""
        if not tol > 0.0:
            raise ValueError("tolerance must be positive")
        per_point = np.abs(grids).max(axis=tuple(range(1, grids.ndim)))
        worst = int(np.argmax(per_point))
        max_abs = float(per_point[worst])
        return cls(points, grids, per_point, max_abs,
                   float(per_point.mean()), max_abs <= tol,
                   points[worst].copy())


def residual_report(metric: MetricField, soliton: SolitonData,
                    points: Sequence[Sequence[float]],
                    tol: float) -> ResidualReport:
    """Residual grid at every point; pass iff the largest entry is
    within tol.  mean_abs averages the per-point max norms."""
    geometry = point_geometry(metric, soliton.potential, points)
    return geometry.residual_report(soliton.lam, soliton.mu, tol)
