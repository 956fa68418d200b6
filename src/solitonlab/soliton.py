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
residual summaries over point sets.  All of them, and every reduced
system in ``families``, read the one geometry pass, point_geometry,
which computes the metric and its curvature once per distinct metric
point (curvature_over) and the potential's gradient, covariant hessian
and laplacian once per point it is given (field_geometry).  Checks of
several fields on one metric run curvature_over once and
field_geometry per field.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .autodiff import eval_jet2
from .curvature import GridCurvature, covariant_hessian_from, curvature_over
from .errors import in_grid_order
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


class SolitonData:
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
        object.__setattr__(self, "potential", potential)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.potential, self.lam, self.mu)
                == (other.potential, other.lam, other.mu))

    def __hash__(self) -> int:
        return hash((self.potential, self.lam, self.mu))

    def __repr__(self) -> str:
        return (f"SolitonData(potential={self.potential!r}, "
                f"lam={self.lam!r}, mu={self.mu!r})")


# ---------------------------------------------------------------------
# The geometry pass
# ---------------------------------------------------------------------

class PointGeometry:
    """What the soliton equation needs at each point of a set: the
    metric and its inverse, the scalar curvature, and the potential's
    gradient, covariant hessian and laplacian, stacked along a leading
    point axis.  Riemann and the second metric derivatives are not
    kept.  Frozen; equal only to itself."""

    __slots__ = ("points", "g", "g_inv", "scal", "dphi", "hess", "lap")

    def __init__(self, points: np.ndarray, g: np.ndarray, g_inv: np.ndarray,
                 scal: np.ndarray, dphi: np.ndarray, hess: np.ndarray,
                 lap: np.ndarray) -> None:
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "g_inv", g_inv)
        object.__setattr__(self, "scal", scal)
        object.__setattr__(self, "dphi", dphi)
        object.__setattr__(self, "hess", hess)
        object.__setattr__(self, "lap", lap)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (f"PointGeometry(points={self.points!r}, g={self.g!r}, "
                f"g_inv={self.g_inv!r}, scal={self.scal!r}, "
                f"dphi={self.dphi!r}, hess={self.hess!r}, lap={self.lap!r})")

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
                   points: Sequence[Sequence[float]], *,
                   distinct: bool = False) -> PointGeometry:
    """metric_at -> curvature_from once per distinct metric point of the
    stack (curvature_over), then field_geometry over all the points.
    The results have the bits of a pass without that sharing, so a
    caller may pass one point per distinct point of the coordinates
    the metric and the potential read, as the command line does
    (grids.distinct_points), and hand each result to its group.  Where
    those are all the coordinates the metric reads, each point is its
    own metric point, and the caller says so with ``distinct`` (see
    curvature_over).  An error names the first bad point in grid
    order, whichever stage finds it."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("the geometry pass needs at least one point")
    return in_grid_order(lambda q: field_geometry(
        curvature_over(metric, q, distinct=distinct), potential, q), pts)


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


class ThetaCheck:
    """Residual matrices of the substitution equation and of the
    unconditional two-hessian identity.  Frozen; equal only to
    itself."""

    __slots__ = ("theta_residual", "identity_residual")

    def __init__(self, theta_residual: np.ndarray,
                 identity_residual: np.ndarray) -> None:
        object.__setattr__(self, "theta_residual", theta_residual)
        object.__setattr__(self, "identity_residual", identity_residual)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (f"ThetaCheck(theta_residual={self.theta_residual!r}, "
                f"identity_residual={self.identity_residual!r})")


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

class LambdaEstimate:
    """The mean of the lambda samples, their spread about it and the
    samples.  Frozen; equal only to itself."""

    __slots__ = ("value", "spread", "samples")

    def __init__(self, value: float, spread: float,
                 samples: np.ndarray) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "spread", spread)
        object.__setattr__(self, "samples", samples)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (f"LambdaEstimate(value={self.value!r}, "
                f"spread={self.spread!r}, samples={self.samples!r})")

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

class ResidualReport:
    """The residuals at each point, each point's largest |entry|, their
    largest and mean, whether the largest is within the tolerance, and
    the first worst point.  Frozen; equal only to itself."""

    __slots__ = ("points", "residual_grids", "per_point", "max_abs",
                 "mean_abs", "passed", "worst_point")

    def __init__(self, points: np.ndarray, residual_grids: np.ndarray,
                 per_point: np.ndarray, max_abs: float, mean_abs: float,
                 passed: bool, worst_point: np.ndarray) -> None:
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "residual_grids", residual_grids)
        object.__setattr__(self, "per_point", per_point)
        object.__setattr__(self, "max_abs", max_abs)
        object.__setattr__(self, "mean_abs", mean_abs)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "worst_point", worst_point)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (f"ResidualReport(points={self.points!r}, "
                f"residual_grids={self.residual_grids!r}, "
                f"per_point={self.per_point!r}, max_abs={self.max_abs!r}, "
                f"mean_abs={self.mean_abs!r}, passed={self.passed!r}, "
                f"worst_point={self.worst_point!r})")

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
