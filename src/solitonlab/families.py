"""The four metric families and their explicit soliton constructions.

Supported families over fixed charts:

  * warped products      g_B + w^2 g_F          (base chart + fiber chart)
  * cosmological type    -dt^2 + w(t)^2 g_F     (t + fiber chart)
  * static type          -f(x)^2 dt^2 + g_F     (t + fiber chart, f on the fiber)
  * 3d null-parallel     2 dt dy + dx^2 + q(t,x,y) dy^2     chart (t, x, y)
  * 4d null-parallel     2 dx dz + 2 dy dt + w(t) dt^2      chart (x, y, z, t)

For each family this module provides the metric assembly, the reduced
equation system its soliton condition induces, closed-form hessian and
laplacian tables evaluated straight from jets (cross-checks for the
generic curvature pipeline), and the explicit potential constructions,
including the quadrature-backed profiles.

Two construction formulas circulate in slightly different forms; both
variants are implemented.  The default is the one that satisfies the
family's own equation system (derivative-corrected); the other is kept
behind ``paper_literal=True`` so its nonzero residuals can be
demonstrated rather than silently patched.  The same flag selects the
literal 3d hessian yy-row, which drops two correction terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np
from scipy.interpolate import PchipInterpolator

from .autodiff import eval_jet2
from .curvature import (
    christoffel,
    covariant_hessian_from,
    curvature_from,
    laplace_beltrami,
)
from .errors import (
    DomainError,
    NonPositiveEtaPrimeError,
    NonPositiveWarpingError,
)
from .expressions import (
    Const,
    ScalarField,
    Var,
    add,
    call,
    constant_field,
    div,
    external,
    mul,
    neg,
)
from .metrics import MetricField, metric_at
from .quadrature import adaptive_simpson

__all__ = [
    "WarpedProductSpec",
    "GRWSpec",
    "StaticSpec",
    "Walker3Spec",
    "Walker3Construction",
    "Walker4Spec",
    "assemble_warped_metric",
    "grw_potential",
    "grw_potential_field",
    "GRWSample",
    "grw_samples",
    "grw_system_residual",
    "grw_lambda_map",
    "static_system_residual",
    "walker3_metric",
    "walker3_closed_forms",
    "walker3_pde_residual",
    "walker3_construct",
    "walker4_metric",
    "walker4_closed_forms",
    "walker4_pde_residual",
    "walker4_construct",
    "QuadratureProfile",
    "LaplacianReport",
    "laplacian_report",
]


# =====================================================================
# Family specifications
# =====================================================================

@dataclass(frozen=True)
class WarpedProductSpec:
    """Product of two metrics with the fiber scaled by warping^2.

    The warping lives on the base chart and must stay positive on the
    region of interest.
    """

    base: MetricField
    fiber: MetricField
    warping: ScalarField

    def __post_init__(self) -> None:
        if self.warping.chart != self.base.chart:
            raise ValueError("warping must live on the base chart")
        if set(self.base.chart) & set(self.fiber.chart):
            raise ValueError("base and fiber charts must not share names")


@dataclass(frozen=True)
class GRWSpec:
    """Cosmological warped product -dt^2 + warping(t)^2 g_F."""

    warping: ScalarField
    fiber: MetricField
    interval: tuple[float, float]

    def __post_init__(self) -> None:
        if len(self.warping.chart) != 1:
            raise ValueError("warping must live on a one-dimensional chart")
        if self.time_var in self.fiber.chart:
            raise ValueError("fiber chart reuses the time coordinate")
        if any(s != 1 for s in self.fiber.signature):
            raise ValueError("fiber must be Riemannian")
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError(f"empty interval {self.interval}")

    @property
    def time_var(self) -> str:
        return self.warping.chart[0]


@dataclass(frozen=True)
class StaticSpec:
    """Static product -lapse(x)^2 dt^2 + g_F with the lapse on the fiber."""

    lapse: ScalarField
    fiber: MetricField
    time_var: str = "t"

    def __post_init__(self) -> None:
        if self.lapse.chart != self.fiber.chart:
            raise ValueError("lapse must live on the fiber chart")
        if self.time_var in self.fiber.chart:
            raise ValueError("fiber chart reuses the time coordinate")
        if any(s != 1 for s in self.fiber.signature):
            raise ValueError("fiber must be Riemannian")


WALKER3_CHART = ("t", "x", "y")
WALKER4_CHART = ("x", "y", "z", "t")


@dataclass(frozen=True)
class Walker3Spec:
    """3d Lorentzian metric 2 dt dy + dx^2 + phi_metric dy^2."""

    phi_metric: ScalarField

    def __post_init__(self) -> None:
        if self.phi_metric.chart != WALKER3_CHART:
            raise ValueError(f"metric function must live on {WALKER3_CHART}")


@dataclass(frozen=True)
class Walker3Construction:
    """Ingredients of the explicit 3d potential: kappa scales the x
    part, eta(y) is the strictly increasing profile, zeta(x, y) the
    free additive term of the metric function."""

    kappa: float
    eta: ScalarField
    zeta: ScalarField

    def __post_init__(self) -> None:
        if self.eta.chart != ("y",):
            raise ValueError("eta must live on the chart ('y',)")
        if self.zeta.chart != ("x", "y"):
            raise ValueError("zeta must live on the chart ('x', 'y')")


@dataclass(frozen=True)
class Walker4Spec:
    """4d neutral metric 2 dx dz + 2 dy dt + warping(t) dt^2 with the
    four construction constants and the quadrature base point."""

    warping: ScalarField
    c0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    t0: float = 0.0

    def __post_init__(self) -> None:
        if self.warping.chart != ("t",):
            raise ValueError("warping must live on the chart ('t',)")


# =====================================================================
# Metric assembly
# =====================================================================

AnyWarpedSpec = Union[WarpedProductSpec, GRWSpec, StaticSpec]


def _check_positive(fn: ScalarField, points: Sequence[Sequence[float]] | None,
                    what: str) -> None:
    if points is None:
        return
    for p in np.atleast_2d(np.asarray(points, dtype=float)):
        if fn(p) <= 0.0:
            raise NonPositiveWarpingError(
                f"{what} is not positive at {p.tolist()}"
            )


def assemble_warped_metric(
    spec: AnyWarpedSpec,
    check_points: Sequence[Sequence[float]] | None = None,
) -> MetricField:
    """Block metric over the product chart.

    ``check_points`` are base points (fiber points for the static case)
    where positivity of the warping or lapse is enforced; the
    cosmological family checks 17 samples of its interval by default.
    """
    if isinstance(spec, WarpedProductSpec):
        _check_positive(spec.warping, check_points, "warping")
        return _product_metric(spec.base, spec.fiber, spec.warping)
    if isinstance(spec, GRWSpec):
        if check_points is None:
            lo, hi = spec.interval
            check_points = np.linspace(lo, hi, 17).reshape(-1, 1)
        _check_positive(spec.warping, check_points, "warping")
        base = MetricField.from_rows((spec.time_var,), [[-1.0]], "-")
        return _product_metric(base, spec.fiber, spec.warping)
    if isinstance(spec, StaticSpec):
        _check_positive(spec.lapse, check_points, "lapse")
        return _static_metric(spec)
    raise TypeError(f"not a warped-family spec: {spec!r}")


def _product_metric(base: MetricField, fiber: MetricField,
                    warping: ScalarField) -> MetricField:
    chart = base.chart + fiber.chart
    nb = base.dimension
    n = len(chart)
    warp2 = mul(warping.root, warping.root)
    zero = constant_field(chart, 0.0)
    rows: list[list[ScalarField]] = [[zero] * n for _ in range(n)]
    for i in range(nb):
        for j in range(i, nb):
            comp = base.components[i][j].with_chart(chart)
            rows[i][j] = rows[j][i] = comp
    for a in range(fiber.dimension):
        for b in range(a, fiber.dimension):
            comp = ScalarField(chart, mul(warp2, fiber.components[a][b].root))
            rows[nb + a][nb + b] = rows[nb + b][nb + a] = comp
    signature = base.signature + fiber.signature
    return MetricField.from_rows(chart, rows, signature)


def _static_metric(spec: StaticSpec) -> MetricField:
    chart = (spec.time_var,) + spec.fiber.chart
    n = len(chart)
    zero = constant_field(chart, 0.0)
    rows: list[list[ScalarField]] = [[zero] * n for _ in range(n)]
    rows[0][0] = ScalarField(chart, neg(mul(spec.lapse.root, spec.lapse.root)))
    for a in range(spec.fiber.dimension):
        for b in range(a, spec.fiber.dimension):
            comp = spec.fiber.components[a][b].with_chart(chart)
            rows[1 + a][1 + b] = rows[1 + b][1 + a] = comp
    signature = (-1,) + spec.fiber.signature
    return MetricField.from_rows(chart, rows, signature)


# =====================================================================
# Cosmological family: quadrature potential and equation system
# =====================================================================

def _field_scalar(fn: ScalarField) -> Callable[[float], float]:
    return lambda value: fn((value,))


def grw_potential(spec: GRWSpec, alpha: float, t0: float, t: float,
                  tol: float = 1e-10) -> float:
    """alpha * integral of 1/warping from t0 to t, zero at t0.

    Positivity of the warping is checked on 9 samples between the
    limits before integrating.
    """
    lo, hi = min(t0, t), max(t0, t)
    if lo < hi:
        _check_positive(
            spec.warping, np.linspace(lo, hi, 9).reshape(-1, 1), "warping"
        )
    w = _field_scalar(spec.warping)
    return alpha * adaptive_simpson(lambda u: 1.0 / w(u), t0, t, tol=tol)


def grw_potential_field(spec: GRWSpec, alpha: float, t0: float,
                        tol: float = 1e-10) -> ScalarField:
    """The quadrature potential as a scalar field on the time chart.

    The value is integrated on demand; the first and second derivative
    callables use the defining relation (slope alpha / warping), so
    jets of this field carry no quadrature noise.
    """
    w = _field_scalar(spec.warping)
    dw = _field_scalar(spec.warping.diff(spec.time_var))

    @lru_cache(maxsize=None)
    def value(tv: float) -> float:
        return alpha * adaptive_simpson(lambda u: 1.0 / w(u), t0, tv, tol=tol)

    def deriv(tv: float) -> float:
        return alpha / w(tv)

    def deriv2(tv: float) -> float:
        wv = w(tv)
        return -alpha * dw(tv) / (wv * wv)

    node = external("potential_profile", (value, deriv, deriv2),
                    Var(spec.time_var))
    return ScalarField((spec.time_var,), node)


class GRWSample(NamedTuple):
    """The reduced cosmological system at one time: scalar curvature of
    the product metric, phi', phi'', the warping w and w'."""

    scal: float
    d1: float
    d2: float
    w: float
    dw: float

    def lambda_map(self) -> float:
        return self.scal - self.dw * self.d1 / self.w

    def residual(self, lam: float) -> tuple[float, float, float]:
        r1 = self.d2 + (self.scal - lam)
        r2 = self.dw * self.d1 - (self.scal - lam) * self.w
        r3 = self.w * self.d2 + self.dw * self.d1
        return r1, r2, r3


def grw_samples(spec: GRWSpec, metric: MetricField, potential: ScalarField,
                times: Sequence[float],
                fiber_point: Sequence[float] | None = None,
                ) -> list[GRWSample]:
    """The reduced system at each time on ``metric``, the product metric
    of ``spec``, which the caller assembles once.  The warping must be
    positive at every time; the fiber point defaults to the origin."""
    samples = []
    for t in times:
        _check_positive(spec.warping, [[t]], "warping")
        samples.append(_grw_sample(spec, metric, potential, t, fiber_point))
    return samples


def _grw_sample(spec: GRWSpec, metric: MetricField, potential: ScalarField,
                t: float, fiber_point: Sequence[float] | None) -> GRWSample:
    if fiber_point is None:
        fiber_point = np.zeros(spec.fiber.dimension)
    point = np.concatenate([[t], np.asarray(fiber_point, dtype=float)])
    scal = curvature_from(metric_at(metric, point)).scalar
    jet_p = eval_jet2(potential, (t,))
    jet_w = eval_jet2(spec.warping, (t,))
    return GRWSample(scal, float(jet_p.gradient[0]), float(jet_p.hessian[0, 0]),
                     jet_w.value, float(jet_w.gradient[0]))


def grw_system_residual(spec: GRWSpec, potential: ScalarField, lam: float,
                        t: float,
                        fiber_point: Sequence[float] | None = None,
                        ) -> tuple[float, float, float]:
    """Residuals of the reduced cosmological system at time t.

        r1 = phi'' + (scal - lam)
        r2 = w' phi' - (scal - lam) w
        r3 = w phi'' + w' phi'          (lam-free identity)

    The scalar curvature comes from the assembled product metric at
    (t, fiber_point); the fiber point defaults to the origin.
    """
    metric = assemble_warped_metric(spec, check_points=[[t]])
    return _grw_sample(spec, metric, potential, t, fiber_point).residual(lam)


def grw_lambda_map(spec: GRWSpec, potential: ScalarField, t: float,
                   fiber_point: Sequence[float] | None = None) -> float:
    """The constant the fiber equation of the reduced system forces at
    time t: scal - w' phi' / w.  Constancy over t is what makes the
    construction consistent."""
    metric = assemble_warped_metric(spec, check_points=[[t]])
    return _grw_sample(spec, metric, potential, t, fiber_point).lambda_map()


# =====================================================================
# Static family: equation system
# =====================================================================

def static_system_residual(spec: StaticSpec, potential: ScalarField,
                           lam: float, fiber_point: Sequence[float],
                           ) -> tuple[float, np.ndarray, float]:
    """Residuals of the reduced static system at a fiber point.

        r1 = g_F(grad phi, grad lapse) - (scal - lam) lapse
        r2 = Hess_F(phi) - (scal - lam) g_F
        r3 = Lap_F(phi) - (s / lapse) g_F(grad phi, grad lapse)

    The potential lives on the fiber chart; the scalar curvature comes
    from the assembled static metric (time-independent by construction,
    evaluated at time 0).
    """
    p = np.asarray(fiber_point, dtype=float)
    lapse_value = spec.lapse(p)
    if lapse_value <= 0.0:
        raise NonPositiveWarpingError(
            f"lapse is not positive at {p.tolist()}"
        )
    if potential.chart != spec.fiber.chart:
        raise ValueError("potential must live on the fiber chart")
    metric = assemble_warped_metric(spec)
    scal = curvature_from(metric_at(metric, np.concatenate([[0.0], p]))).scalar
    data = metric_at(spec.fiber, p)
    gamma = christoffel(data)
    jet_phi = eval_jet2(potential, p)
    jet_lapse = eval_jet2(spec.lapse, p)
    hess = covariant_hessian_from(jet_phi.gradient, jet_phi.hessian, gamma)
    pairing = float(np.einsum(
        "ij,i,j->", data.g_inv, jet_phi.gradient, jet_lapse.gradient
    ))
    lap = float(np.einsum("ij,ij->", data.g_inv, hess))
    s = spec.fiber.dimension
    r1 = pairing - (scal - lam) * lapse_value
    r2 = hess - (scal - lam) * data.g
    r3 = lap - (s / lapse_value) * pairing
    return r1, r2, r3


# =====================================================================
# 3d family
# =====================================================================

def walker3_metric(spec: Walker3Spec) -> MetricField:
    """2 dt dy + dx^2 + phi_metric dy^2 over (t, x, y), Lorentzian."""
    zero = constant_field(WALKER3_CHART, 0.0)
    one = constant_field(WALKER3_CHART, 1.0)
    q = spec.phi_metric
    rows = [
        [zero, zero, one],
        [zero, one, zero],
        [one, zero, q],
    ]
    return MetricField.from_rows(WALKER3_CHART, rows, "-++")


def walker3_closed_forms(spec: Walker3Spec, f: ScalarField,
                         point: Sequence[float],
                         paper_literal: bool = False,
                         ) -> tuple[np.ndarray, float]:
    """Closed-form covariant hessian and laplacian of f, from jets only.

    Index order (t, x, y).  The default yy entry carries the full
    connection terms; ``paper_literal=True`` selects a variant that
    drops -1/2 q_y f_t and +1/2 q_x f_x from it.
    """
    jf = eval_jet2(f, point)
    jq = eval_jet2(spec.phi_metric, point)
    q = jq.value
    q_t, q_x, q_y = jq.gradient
    f_t, f_x, f_y = jf.gradient
    H = jf.hessian
    hess = np.empty((3, 3))
    hess[0, 0] = H[0, 0]
    hess[0, 1] = hess[1, 0] = H[0, 1]
    hess[0, 2] = hess[2, 0] = H[0, 2] - 0.5 * q_t * f_t
    hess[1, 1] = H[1, 1]
    hess[1, 2] = hess[2, 1] = H[1, 2] - 0.5 * q_x * f_t
    if paper_literal:
        hess[2, 2] = H[2, 2] - 0.5 * q * q_t * f_t + 0.5 * q_t * f_y
    else:
        hess[2, 2] = (
            H[2, 2]
            - 0.5 * (q * q_t + q_y) * f_t
            + 0.5 * q_x * f_x
            + 0.5 * q_t * f_y
        )
    lap = -q * H[0, 0] + 2.0 * H[0, 2] - q_t * f_t + H[1, 1]
    return hess, lap


def walker3_pde_residual(spec: Walker3Spec, f: ScalarField,
                         point: Sequence[float]) -> np.ndarray:
    """The five reduced scalar equations of the 3d family, evaluated
    as residuals in a fixed order."""
    jf = eval_jet2(f, point)
    jq = eval_jet2(spec.phi_metric, point)
    q = jq.value
    q_t, q_x, _ = jq.gradient
    f_t, _, f_y = jf.gradient
    H = jf.hessian
    return np.array([
        H[0, 0],
        H[0, 1],
        H[1, 2] - 0.5 * q_x * f_t,
        H[1, 1] - H[0, 2] + 0.5 * q_t * f_t,
        H[2, 2] - H[1, 1] - 0.5 * q * q_t * f_t + 0.5 * q_t * f_y,
    ])


def walker3_construct(construction: Walker3Construction,
                      paper_literal: bool = False,
                      check_points: Sequence[float] | None = None,
                      ) -> tuple[ScalarField, ScalarField]:
    """Potential and metric function of the explicit 3d structure.

    Returns (f, phi_metric) on the chart (t, x, y):

        f          = kappa * x + eta(y)
        phi_metric = -2 t * eta''(y)/eta'(y) + zeta(x, y)

    ``paper_literal=True`` swaps the time slope for -2 t * ln(eta'(y));
    that variant fails the family's own system whenever
    eta'' != eta' ln(eta').  ``check_points`` are y samples where
    eta' > 0 is enforced.
    """
    eta_d1 = construction.eta.diff("y")
    if check_points is not None:
        for yv in check_points:
            if eta_d1((float(yv),)) <= 0.0:
                raise NonPositiveEtaPrimeError(
                    f"profile slope is not positive at y = {float(yv)}"
                )
    f = ScalarField(
        WALKER3_CHART,
        add(mul(Const(float(construction.kappa)), Var("x")),
            construction.eta.root),
    )
    if paper_literal:
        slope = call("ln", eta_d1.root)
    else:
        slope = div(eta_d1.diff("y").root, eta_d1.root)
    phi_metric = ScalarField(
        WALKER3_CHART,
        add(mul(mul(Const(-2.0), Var("t")), slope), construction.zeta.root),
    )
    return f, phi_metric


# =====================================================================
# 4d family
# =====================================================================

def walker4_metric(spec: Walker4Spec) -> MetricField:
    """2 dx dz + 2 dy dt + warping(t) dt^2 over (x, y, z, t), neutral
    signature."""
    zero = constant_field(WALKER4_CHART, 0.0)
    one = constant_field(WALKER4_CHART, 1.0)
    w = spec.warping.with_chart(WALKER4_CHART)
    rows = [
        [zero, zero, one, zero],
        [zero, zero, zero, one],
        [one, zero, zero, zero],
        [zero, one, zero, w],
    ]
    return MetricField.from_rows(WALKER4_CHART, rows, "--++")


def walker4_closed_forms(spec: Walker4Spec, f: ScalarField,
                         point: Sequence[float],
                         ) -> tuple[np.ndarray, float]:
    """Closed-form covariant hessian and laplacian of f, from jets only.

    Index order (x, y, z, t); the only connection correction sits in
    the tt entry.
    """
    jf = eval_jet2(f, point)
    jw = eval_jet2(spec.warping, (point[3],))
    w = jw.value
    w_t = float(jw.gradient[0])
    hess = jf.hessian.copy()
    hess[3, 3] = hess[3, 3] - 0.5 * w_t * jf.gradient[1]
    lap = 2.0 * jf.hessian[0, 2] - w * jf.hessian[1, 1] + 2.0 * jf.hessian[1, 3]
    return hess, lap


def walker4_pde_residual(spec: Walker4Spec, f: ScalarField,
                         point: Sequence[float]) -> np.ndarray:
    """The ten reduced equations of the 4d family, in a fixed order:
    seven vanishing second partials, the two quarter-laplacian
    couplings, and the tt balance with its warping term."""
    jf = eval_jet2(f, point)
    jw = eval_jet2(spec.warping, (point[3],))
    w = jw.value
    w_t = float(jw.gradient[0])
    H = jf.hessian
    lap = 2.0 * H[0, 2] - w * H[1, 1] + 2.0 * H[1, 3]
    quarter = 0.25 * lap
    return np.array([
        H[0, 0],
        H[0, 1],
        H[1, 1],
        H[1, 2],
        H[2, 2],
        H[0, 3],
        H[2, 3],
        H[0, 2] - quarter,
        H[1, 3] - quarter,
        H[3, 3] - 0.5 * w_t * jf.gradient[1] - w * quarter,
    ])


@dataclass(frozen=True, eq=False)
class QuadratureProfile:
    """A function of one variable known through quadrature: tabulated
    values with monotone cubic interpolation, plus derivative callables
    taken from the defining relation rather than from the table."""

    name: str
    funcs: tuple[Callable[[float], float], ...]
    knots: np.ndarray
    values: np.ndarray

    def __call__(self, t: float) -> float:
        return float(self.funcs[0](float(t)))

    def deriv(self, t: float) -> float:
        return float(self.funcs[1](float(t)))

    def deriv2(self, t: float) -> float:
        return float(self.funcs[2](float(t)))


def walker4_construct(spec: Walker4Spec,
                      paper_literal: bool = False,
                      interval: tuple[float, float] = (-1.5, 1.5),
                      knots: int = 33,
                      tol: float = 1e-10,
                      ) -> tuple[ScalarField, QuadratureProfile]:
    """Potential of the explicit 4d structure, with its time profile.

        f = x (c0 z + c2) + y (c0 t + c1) + c3 z + tpart(t)

    where the profile solves 2 tpart' = w(t) (c0 t + c1) + c0 I(t) with
    I the running integral of the warping from t0.  The profile value
    is a cumulative quadrature table on ``knots`` points of
    ``interval`` with monotone cubic interpolation; its first and
    second derivatives come from the defining relation, so jets of f
    carry no interpolation noise.

    ``paper_literal=True`` swaps the y coefficient for (c0 z + c1);
    that variant fails the family's own system when c0 != 0.
    """
    w = _field_scalar(spec.warping)
    w_t = _field_scalar(spec.warping.diff("t"))
    c0, c1 = spec.c0, spec.c1
    t0 = spec.t0

    @lru_cache(maxsize=None)
    def running(tv: float) -> float:
        return adaptive_simpson(w, t0, tv, tol=tol)

    def slope(tv: float) -> float:
        return 0.5 * (w(tv) * (c0 * tv + c1) + c0 * running(tv))

    def slope2(tv: float) -> float:
        return 0.5 * w_t(tv) * (c0 * tv + c1) + c0 * w(tv)

    lo, hi = interval
    if not lo < hi:
        raise ValueError(f"empty interval {interval}")
    grid = np.linspace(lo, hi, int(knots))
    table = np.empty_like(grid)
    table[0] = adaptive_simpson(slope, t0, grid[0], tol=tol)
    for i in range(1, len(grid)):
        table[i] = table[i - 1] + adaptive_simpson(
            slope, grid[i - 1], grid[i], tol=tol
        )
    spline = PchipInterpolator(grid, table)

    def value(tv: float) -> float:
        if tv < lo - 1e-9 or tv > hi + 1e-9:
            raise DomainError(
                f"profile sampled at {tv}, outside its table {interval}"
            )
        return float(spline(tv))

    profile = QuadratureProfile("tpart", (value, slope, slope2), grid, table)
    x, y, z, t = (Var(n) for n in WALKER4_CHART)
    y_coeff_var = z if paper_literal else t
    root = add(
        add(
            add(
                mul(x, add(mul(Const(c0), z), Const(spec.c2))),
                mul(y, add(mul(Const(c0), y_coeff_var), Const(c1))),
            ),
            mul(Const(spec.c3), z),
        ),
        external(profile.name, profile.funcs, t),
    )
    return ScalarField(WALKER4_CHART, root), profile


# =====================================================================
# Laplacian constancy report
# =====================================================================

@dataclass(frozen=True, eq=False)
class LaplacianReport:
    values: np.ndarray
    mean: float
    max_deviation: float


def laplacian_report(metric: MetricField, f: ScalarField,
                     points: Sequence[Sequence[float]]) -> LaplacianReport:
    """Laplacian of f sampled over points, with the spread about the
    mean; the explicit constructions make it constant."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.array([laplace_beltrami(f, metric_at(metric, p)) for p in pts])
    mean = float(values.mean())
    return LaplacianReport(values, mean, float(np.max(np.abs(values - mean))))
