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
including the quadrature-backed profiles.  For general warped products
it checks the base/fiber conditions a coupled soliton imposes.

The reduced systems, the warped-product conditions and the laplacian
report read their geometry from the one pass, soliton.point_geometry,
or from its halves, curvature_over and soliton.field_geometry, where
two fields share a metric or only the curvature is wanted; the
closed-form tables read jets only, so they stay independent of it.

Two construction formulas circulate in slightly different forms; both
variants are implemented.  The default is the one that satisfies the
family's own equation system (derivative-corrected); the other is kept
behind ``paper_literal=True`` so its nonzero residuals can be
demonstrated rather than silently patched.  The same flag selects the
literal 3d hessian yy-row, which drops two correction terms.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .autodiff import eval_jet2
from .curvature import curvature_over
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
    _profile_value,
)
from .metrics import MetricField
from .quadrature import _simpson_batch
from .soliton import (
    SolitonData,
    field_geometry,
    point_geometry,
    theta_substitution,
)

__all__ = [
    "WarpedProductSpec",
    "GRWSpec",
    "StaticSpec",
    "Walker3Spec",
    "Walker3Construction",
    "Walker4Spec",
    "assemble_warped_metric",
    "grw_potential_field",
    "GRWSamples",
    "grw_samples",
    "grw_system_residual",
    "grw_lambda_map",
    "static_system_residual",
    "WarpedConditions",
    "warped_conditions_check",
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

QUADRATURE_TOL = 1e-10  # of each adaptive quadrature behind a potential
PROFILE_KNOTS = 33  # points of the walker4 profile's quadrature table


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
    """Raise NonPositiveWarpingError at the first point where ``fn`` is
    not positive, or what ``fn`` raises there if that comes first."""
    if points is None:
        return
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    try:
        values = fn.at_points(pts).tolist()
    except Exception:  # noqa: BLE001 - the loop below meets the first failure
        # fn fails at some point, and one before it may be non-positive.
        values = (fn(p) for p in pts.tolist())
    for p, value in zip(pts.tolist(), values):
        if value <= 0.0:
            raise NonPositiveWarpingError(f"{what} is not positive at {p}")


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

def _divisor(x: np.ndarray) -> np.ndarray:
    """The divisor ``x``, refused, as float division refuses it, where
    any element is zero."""
    if not x.all():
        raise ZeroDivisionError("float division by zero")
    return x


def grw_potential_field(spec: GRWSpec, alpha: float, t0: float,
                        times: Sequence[float] | None = None) -> ScalarField:
    """The quadrature potential as a scalar field on the time chart.

    The value, alpha times the integral of 1/warping from t0, is
    integrated on demand and raises NonPositiveWarpingError at a
    quadrature sample where the warping is not positive.  Given
    ``times``, the first value asked for integrates it and all of
    ``times`` together, in one batch (quadrature._simpson_batch), which
    keeps the values before a failure; only a time whose own quadrature
    fails raises, so each value and error is the same either way.
    Values are kept per time, keyed as lru_cache keys them
    (0.0 == -0.0).  The first and second derivative callables use the
    defining relation (slope alpha / warping), so jets of this field
    carry no quadrature noise.  The profile's callables take arrays of times (see
    expressions.external): the value is read per time, in order, and
    the derivatives come from the warping over arrays, each element
    with the bits, and a one-element array with the errors, of the
    float expressions alpha / w and -alpha w' / (w w).
    """
    w_many = spec.warping.compiled_arrays
    dw_many = spec.warping.diff(spec.time_var).compiled_arrays
    pending = None if times is None else np.asarray(times, dtype=float).tolist()
    values: dict[float, float] = {}

    def reciprocals(u: np.ndarray) -> np.ndarray:
        wu = w_many(u)
        bad = wu <= 0.0
        if bad.any():
            raise NonPositiveWarpingError(
                f"warping is not positive at [{float(u[bad][0])}]")
        return 1.0 / wu

    def value(tv: float) -> float:
        nonlocal pending
        if tv not in values:
            ends = list(dict.fromkeys([tv, *(pending or ())]))
            pending = None
            integrals, error = _simpson_batch(
                reciprocals, [t0] * len(ends), ends, tol=QUADRATURE_TOL)
            values.update((end, alpha * integral) for end, integral
                          in zip(ends, integrals.tolist()))
            if tv not in values:
                raise error
        return values[tv]

    def values_at(ts: np.ndarray) -> np.ndarray:
        return np.fromiter(map(value, ts.tolist()), float, len(ts))

    def deriv(ts: np.ndarray) -> np.ndarray:
        return alpha / _divisor(w_many(ts))

    def deriv2(ts: np.ndarray) -> np.ndarray:
        wv = w_many(ts)
        return -alpha * dw_many(ts) / _divisor(wv * wv)

    node = external("potential_profile", (values_at, deriv, deriv2),
                    Var(spec.time_var))
    return ScalarField((spec.time_var,), node)


class GRWSamples(NamedTuple):
    """The reduced cosmological system at T times as (T,) arrays: scalar
    curvature of the product metric, phi', phi'', the warping w and w'.
    residual(lam) stacks grw_system_residual's r1, r2, r3 as (T, 3)."""

    scal: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    w: np.ndarray
    dw: np.ndarray

    def lambda_map(self) -> np.ndarray:
        return self.scal - self.dw * self.d1 / self.w

    def residual(self, lam: float) -> np.ndarray:
        shifted = self.scal - lam
        return np.column_stack([self.d2 + shifted,
                                self.dw * self.d1 - shifted * self.w,
                                self.w * self.d2 + self.dw * self.d1])


def grw_samples(spec: GRWSpec, metric: MetricField, potential: ScalarField,
                times: Sequence[float],
                fiber_point: Sequence[float] | None = None,
                ) -> GRWSamples:
    """The reduced system at every time, as (T,) arrays, on ``metric``,
    the product metric of ``spec``, which the caller assembles once.
    The warping must be positive at every time; the fiber point
    defaults to the origin.

    One geometry pass over the points (t, fiber_point) gives scal,
    phi' and phi''; Gamma^k_tt vanishes on -dt^2 + w^2 g_F, so the
    covariant tt entry is the plain second derivative.
    """
    _check_positive(spec.warping, np.reshape(times, (-1, 1)), "warping")
    if fiber_point is None:
        fiber_point = np.zeros(spec.fiber.dimension)
    points = np.column_stack([times, np.tile(fiber_point, (len(times), 1))])
    geometry = point_geometry(metric, potential.with_chart(metric.chart), points)
    jet_w = eval_jet2(spec.warping, np.reshape(times, (-1, 1)))
    return GRWSamples(geometry.scal, geometry.dphi[:, 0],
                      geometry.hess[:, 0, 0], jet_w.value,
                      jet_w.gradient[:, 0])


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
    samples = grw_samples(spec, metric, potential, [t], fiber_point)
    return tuple(samples.residual(lam)[0].tolist())


def grw_lambda_map(spec: GRWSpec, potential: ScalarField, t: float,
                   fiber_point: Sequence[float] | None = None) -> float:
    """The constant the fiber equation of the reduced system forces at
    time t: scal - w' phi' / w.  Constancy over t is what makes the
    construction consistent."""
    metric = assemble_warped_metric(spec, check_points=[[t]])
    samples = grw_samples(spec, metric, potential, [t], fiber_point)
    return float(samples.lambda_map()[0])


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

    The potential lives on the fiber chart.  Everything is read from
    one curvature pass over the fiber point and the field halves of the
    potential and the lapse on it; the static scalar curvature is
    scal_F - 2 Lap_F(lapse) / lapse (O'Neill, Semi-Riemannian Geometry,
    7.43, with a one-dimensional time fiber).
    """
    p = np.asarray(fiber_point, dtype=float)
    lapse_value = spec.lapse(p)
    if lapse_value <= 0.0:
        raise NonPositiveWarpingError(
            f"lapse is not positive at {p.tolist()}"
        )
    if potential.chart != spec.fiber.chart:
        raise ValueError("potential must live on the fiber chart")
    pts = p[None, :]
    curv = curvature_over(spec.fiber, pts)
    phi = field_geometry(curv, potential, pts)
    lapse = field_geometry(curv, spec.lapse, pts)
    scal = float(phi.scal[0] - 2.0 * lapse.lap[0] / lapse_value)
    pairing = float(np.einsum("ij,i,j->", phi.g_inv[0], phi.dphi[0], lapse.dphi[0]))
    s = spec.fiber.dimension
    r1 = pairing - (scal - lam) * lapse_value
    r2 = phi.hess[0] - (scal - lam) * phi.g[0]
    r3 = float(phi.lap[0]) - (s / lapse_value) * pairing
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
    values with monotone cubic interpolation (PCHIP: Fritsch-Carlson
    interior slopes, Moler's one-sided end rule; see ``_pchip``), plus
    derivative callables taken from the defining relation rather than
    from the table.  ``funcs`` take arrays of points, as
    expressions.external takes them; the methods take one point, which
    they pass as a one-element array."""

    name: str
    funcs: tuple[Callable[[np.ndarray], np.ndarray], ...]
    knots: np.ndarray
    values: np.ndarray

    def __call__(self, t: float) -> float:
        return _profile_value(self.name, self.funcs[0], float(t))

    def deriv(self, t: float) -> float:
        return _profile_value(self.name, self.funcs[1], float(t))

    def deriv2(self, t: float) -> float:
        return _profile_value(self.name, self.funcs[2], float(t))


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """Moler's one-sided three-point end slope (``pchiptx``), clipped so
    the end interval keeps the shape of the data."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(knots: Sequence[float],
           values: Sequence[float]) -> Callable[[float], float]:
    """Monotone piecewise cubic Hermite interpolant through the table.

    Interior slopes are the weighted harmonic means of the adjacent
    secants, zero where the secants change sign or vanish (Fritsch &
    Carlson, SIAM J. Numer. Anal. 17, 1980; Fritsch & Butland, SIAM
    J. Sci. Stat. Comput. 5, 1984); end slopes follow
    ``_pchip_end_slope``; two knots give the secant line.  The slopes,
    the cubic coefficients and the evaluation keep the operation order
    of the reference interpolant in ``tests/test_pchip.py``, so the
    values agree with it bit for bit.  The returned callable
    extrapolates with the end cubics; interval i holds
    knots[i] <= t < knots[i+1], the last one also its right end.
    """
    x = np.asarray(knots, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("pchip needs a 1-d table with one value per knot")
    if len(x) < 2:
        raise ValueError("pchip needs at least 2 knots")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("pchip knots and values must be finite")
    h = np.diff(x)
    if np.any(h <= 0):
        raise ValueError("pchip knots must be strictly increasing")
    m = (y[1:] - y[:-1]) / h
    d = np.full_like(y, m[0])
    if len(x) > 2:
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        flat = ((np.sign(m[1:]) != np.sign(m[:-1]))
                | (m[1:] == 0) | (m[:-1] == 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    coeffs = list(zip((t / h).tolist(), ((m - d[:-1]) / h - t).tolist(),
                      d[:-1].tolist(), y[:-1].tolist()))
    xs = x.tolist()
    last = len(xs) - 2

    def spline(tv: float) -> float:
        i = min(max(bisect_right(xs, tv) - 1, 0), last)
        c3, c2, c1, c0 = coeffs[i]
        s = tv - xs[i]
        # Power sums from +0.0, not Horner: the reference rounds, and
        # signs a zero result, in this order.
        return 0.0 + c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)

    return spline


def walker4_construct(spec: Walker4Spec,
                      paper_literal: bool = False,
                      interval: tuple[float, float] = (-1.5, 1.5),
                      ) -> tuple[ScalarField, QuadratureProfile]:
    """Potential of the explicit 4d structure, with its time profile.

        f = x (c0 z + c2) + y (c0 t + c1) + c3 z + tpart(t)

    where the profile solves 2 tpart' = w(t) (c0 t + c1) + c0 I(t) with
    I the running integral of the warping from t0.  The profile value
    is a cumulative quadrature table on PROFILE_KNOTS equally spaced
    points of ``interval`` with monotone cubic interpolation (PCHIP:
    Fritsch & Carlson's slopes, Moler's ``pchiptx`` end rule); its first
    and second derivatives come from the defining relation, so jets of
    f carry no interpolation noise.

    The table's quadratures, from t0 to the first knot and between
    knots, run as one batch (quadrature._simpson_batch).  Each of its
    array calls evaluates the slope over arrays: the warping at the
    times, then the running integrals it lacks, in one nested batch,
    kept per time as lru_cache keys them (0.0 == -0.0).  A nested batch
    that fails keeps the integrals before its failure.  The batches
    report the errors of the loop of one quadrature at a time, so the
    table has that loop's values and errors.

    The profile's callables take arrays of times (see
    expressions.external): the value maps the interpolant over them
    element by element, the slope is the table's array slope, and its
    derivative is the warping over arrays.  Each element has the bits
    of the float expressions, and a one-element array their errors.

    ``paper_literal=True`` swaps the y coefficient for (c0 z + c1);
    that variant fails the family's own system when c0 != 0.
    """
    w_many = spec.warping.compiled_arrays
    w_t_many = spec.warping.diff("t").compiled_arrays
    c0, c1 = spec.c0, spec.c1
    t0 = spec.t0
    integrals: dict[float, float] = {}

    def slopes(ts: np.ndarray) -> np.ndarray:
        """The slope at every element of ts: the warping there, then the
        running integrals not yet known, integrated in one batch."""
        w_ts = w_many(ts)
        keys = ts.tolist()
        missing = [tv for tv in dict.fromkeys(keys) if tv not in integrals]
        batch, error = _simpson_batch(w_many, [t0] * len(missing), missing,
                                      tol=QUADRATURE_TOL)
        integrals.update(zip(missing, batch.tolist()))
        if error is not None:
            raise error
        run = np.fromiter(map(integrals.__getitem__, keys), float, len(keys))
        return 0.5 * (w_ts * (c0 * ts + c1) + c0 * run)

    def slope2(ts: np.ndarray) -> np.ndarray:
        return 0.5 * w_t_many(ts) * (c0 * ts + c1) + c0 * w_many(ts)

    lo, hi = interval
    if not lo < hi:
        raise ValueError(f"empty interval {interval}")
    grid = np.linspace(lo, hi, PROFILE_KNOTS)
    pieces, error = _simpson_batch(slopes, [t0, *grid[:-1].tolist()],
                                   grid.tolist(), tol=QUADRATURE_TOL)
    if error is not None:
        raise error
    table = np.empty_like(grid)
    table[0] = pieces[0]
    for i in range(1, len(grid)):
        table[i] = table[i - 1] + pieces[i]
    spline = _pchip(grid, table)

    def value(tv: float) -> float:
        if tv < lo - 1e-9 or tv > hi + 1e-9:
            raise DomainError(
                f"profile sampled at {tv}, outside its table {interval}"
            )
        return float(spline(tv))

    def values_at(ts: np.ndarray) -> np.ndarray:
        return np.fromiter(map(value, ts.tolist()), float, len(ts))

    profile = QuadratureProfile("tpart", (values_at, slopes, slope2),
                                grid, table)
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
    values = point_geometry(metric, f, points).lap
    mean = float(values.mean())
    return LaplacianReport(values, mean, float(np.max(np.abs(values - mean))))


# =====================================================================
# Warped-product conditions
# =====================================================================

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

    Conditions 2 and 3 come from one pass of theta over the product
    points (x, y0), y0 the first fiber point, and condition 4 from
    curvature_over on the fiber.  The base block of the product's g,
    g^-1 and covariant hessian is the base data, because Gamma^a_ij
    vanishes for a fiber index a and base indices i, j.
    """
    if soliton.mu == 0.0:
        raise ValueError("warped conditions need a nonzero coupling")
    m = 1.0 / soliton.mu
    base_pts = np.atleast_2d(np.asarray(base_points, dtype=float))
    fiber_pts = np.atleast_2d(np.asarray(fiber_points, dtype=float))
    if base_pts.shape[0] == 0 or fiber_pts.shape[0] == 0:
        raise ValueError("warped conditions need base and fiber points")
    metric = assemble_warped_metric(WarpedProductSpec(base, fiber, warping),
                                    check_points=base_pts)
    if soliton.potential.chart != metric.chart:
        raise ValueError("potential must live on the product chart")
    nb = base.dimension

    # 1. fiber independence of phi, over all pairings
    pairs = [np.concatenate([x, y]) for x in base_pts for y in fiber_pts]
    jet = eval_jet2(soliton.potential, pairs)
    fiber_dependence = float(np.max(np.abs(jet.gradient[:, nb:])))

    # 2 and 3, along the base with the fiber block pinned
    theta = theta_substitution(soliton.potential, soliton.mu)
    full_pts = [np.concatenate([x, fiber_pts[0]]) for x in base_pts]
    geometry = point_geometry(metric, theta, full_pts)
    theta_values = theta.at_points(full_pts)
    jet_b = eval_jet2(warping, base_pts)
    rhs = (soliton.lam - geometry.scal) * theta_values / m
    pairing = np.einsum("pij,pi,pj->p", geometry.g_inv[:, :nb, :nb],
                        geometry.dphi[:, :nb], jet_b.gradient)
    pairing_gap = np.abs(pairing - rhs * jet_b.value).max()
    base_hessian_gap = np.abs(
        geometry.hess[:, :nb, :nb] - rhs[:, None, None] * geometry.g[:, :nb, :nb]
    ).max()

    # 4. fiber scalar-curvature constancy
    fiber_scal = curvature_over(fiber, fiber_pts).scalar
    spread = float(np.max(np.abs(fiber_scal - fiber_scal.mean())))

    return WarpedConditions(
        fiber_dependence=fiber_dependence,
        pairing_gap=float(pairing_gap),
        base_hessian_gap=float(base_hessian_gap),
        fiber_scalar_spread=spread,
        pairing_min_abs=float(np.abs(pairing).min()),
    )
