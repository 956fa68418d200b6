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
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .autodiff import eval_jet2
from .curvature import curvature_over
from .errors import (
    DomainError,
    NonPositiveEtaPrimeError,
    NonPositiveWarpingError,
    QuadratureFailureError,
)
from .expressions import (
    Add,
    Const,
    Div,
    Mul,
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

class WarpedProductSpec:
    """Product of two metrics with the fiber scaled by warping^2.

    The warping lives on the base chart and must stay positive on the
    region of interest.  A spec is frozen, and equal to a spec of equal
    fields, as are the other specs.
    """

    __slots__ = ("base", "fiber", "warping")

    def __init__(self, base: MetricField, fiber: MetricField,
                 warping: ScalarField) -> None:
        if warping.chart != base.chart:
            raise ValueError("warping must live on the base chart")
        if set(base.chart) & set(fiber.chart):
            raise ValueError("base and fiber charts must not share names")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "warping", warping)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.base, self.fiber, self.warping)
                == (other.base, other.fiber, other.warping))

    def __hash__(self) -> int:
        return hash((self.base, self.fiber, self.warping))

    def __repr__(self) -> str:
        return (f"WarpedProductSpec(base={self.base!r}, fiber={self.fiber!r}, "
                f"warping={self.warping!r})")


class GRWSpec:
    """Cosmological warped product -dt^2 + warping(t)^2 g_F."""

    __slots__ = ("warping", "fiber", "interval")

    def __init__(self, warping: ScalarField, fiber: MetricField,
                 interval: tuple[float, float]) -> None:
        object.__setattr__(self, "warping", warping)
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "interval", interval)
        if len(warping.chart) != 1:
            raise ValueError("warping must live on a one-dimensional chart")
        if self.time_var in fiber.chart:
            raise ValueError("fiber chart reuses the time coordinate")
        if any(s != 1 for s in fiber.signature):
            raise ValueError("fiber must be Riemannian")
        lo, hi = interval
        if not lo < hi:
            raise ValueError(f"empty interval {interval}")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.warping, self.fiber, self.interval)
                == (other.warping, other.fiber, other.interval))

    def __hash__(self) -> int:
        return hash((self.warping, self.fiber, self.interval))

    def __repr__(self) -> str:
        return (f"GRWSpec(warping={self.warping!r}, fiber={self.fiber!r}, "
                f"interval={self.interval!r})")

    @property
    def time_var(self) -> str:
        return self.warping.chart[0]


class StaticSpec:
    """Static product -lapse(x)^2 dt^2 + g_F with the lapse on the fiber."""

    __slots__ = ("lapse", "fiber", "time_var")

    def __init__(self, lapse: ScalarField, fiber: MetricField,
                 time_var: str = "t") -> None:
        if lapse.chart != fiber.chart:
            raise ValueError("lapse must live on the fiber chart")
        if time_var in fiber.chart:
            raise ValueError("fiber chart reuses the time coordinate")
        if any(s != 1 for s in fiber.signature):
            raise ValueError("fiber must be Riemannian")
        object.__setattr__(self, "lapse", lapse)
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "time_var", time_var)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.lapse, self.fiber, self.time_var)
                == (other.lapse, other.fiber, other.time_var))

    def __hash__(self) -> int:
        return hash((self.lapse, self.fiber, self.time_var))

    def __repr__(self) -> str:
        return (f"StaticSpec(lapse={self.lapse!r}, fiber={self.fiber!r}, "
                f"time_var={self.time_var!r})")


WALKER3_CHART = ("t", "x", "y")
WALKER4_CHART = ("x", "y", "z", "t")


class Walker3Spec:
    """3d Lorentzian metric 2 dt dy + dx^2 + phi_metric dy^2."""

    __slots__ = ("phi_metric",)

    def __init__(self, phi_metric: ScalarField) -> None:
        if phi_metric.chart != WALKER3_CHART:
            raise ValueError(f"metric function must live on {WALKER3_CHART}")
        object.__setattr__(self, "phi_metric", phi_metric)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.phi_metric == other.phi_metric

    def __hash__(self) -> int:
        return hash((self.phi_metric,))

    def __repr__(self) -> str:
        return f"Walker3Spec(phi_metric={self.phi_metric!r})"


class Walker3Construction:
    """Ingredients of the explicit 3d potential: kappa scales the x
    part, eta(y) is the strictly increasing profile, zeta(x, y) the
    additive term of the metric function.  zeta is free only where
    kappa * d(zeta)/dx = 0: elsewhere the yy equation keeps
    1/2 kappa d(zeta)/dx, and the structure is no soliton.  Frozen,
    and equal to a construction of equal fields."""

    __slots__ = ("kappa", "eta", "zeta")

    def __init__(self, kappa: float, eta: ScalarField,
                 zeta: ScalarField) -> None:
        if eta.chart != ("y",):
            raise ValueError("eta must live on the chart ('y',)")
        if zeta.chart != ("x", "y"):
            raise ValueError("zeta must live on the chart ('x', 'y')")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "zeta", zeta)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kappa, self.eta, self.zeta)
                == (other.kappa, other.eta, other.zeta))

    def __hash__(self) -> int:
        return hash((self.kappa, self.eta, self.zeta))

    def __repr__(self) -> str:
        return (f"Walker3Construction(kappa={self.kappa!r}, eta={self.eta!r}, "
                f"zeta={self.zeta!r})")


class Walker4Spec:
    """4d neutral metric 2 dx dz + 2 dy dt + warping(t) dt^2 with the
    four construction constants and the quadrature base point."""

    __slots__ = ("warping", "c0", "c1", "c2", "c3", "t0")

    def __init__(self, warping: ScalarField, c0: float = 0.0, c1: float = 0.0,
                 c2: float = 0.0, c3: float = 0.0, t0: float = 0.0) -> None:
        if warping.chart != ("t",):
            raise ValueError("warping must live on the chart ('t',)")
        object.__setattr__(self, "warping", warping)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "c3", c3)
        object.__setattr__(self, "t0", t0)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.warping, self.c0, self.c1, self.c2, self.c3, self.t0)
                == (other.warping, other.c0, other.c1, other.c2, other.c3,
                    other.t0))

    def __hash__(self) -> int:
        return hash((self.warping, self.c0, self.c1, self.c2, self.c3,
                     self.t0))

    def __repr__(self) -> str:
        return (f"Walker4Spec(warping={self.warping!r}, c0={self.c0!r}, "
                f"c1={self.c1!r}, c2={self.c2!r}, c3={self.c3!r}, "
                f"t0={self.t0!r})")


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

def _running_integrals(integrand: Callable[[np.ndarray], np.ndarray],
                       t0: float) -> Callable[[np.ndarray], np.ndarray]:
    """The integrals of ``integrand`` from t0 to each element of an
    array of times, kept per time as lru_cache keys them (0.0 == -0.0).
    The times not yet known are integrated in order, in one batch
    (quadrature._simpson_batch); a batch that fails keeps the integrals
    before its failure and raises the error the loop of one quadrature
    per time meets first, save that a time that is not finite (an outer
    subdivision that overflowed) is a QuadratureFailureError."""
    known: dict[float, float] = {}

    def running(ts: np.ndarray) -> np.ndarray:
        keys = ts.tolist()
        missing = [tv for tv in dict.fromkeys(keys) if tv not in known]
        batch, error = _simpson_batch(integrand, [t0] * len(missing), missing,
                                      tol=QUADRATURE_TOL)
        known.update(zip(missing, batch.tolist()))
        if isinstance(error, ValueError):
            error = QuadratureFailureError(
                f"running integral from {t0} to a non-finite time")
        if error is not None:
            raise error
        return np.fromiter(map(known.__getitem__, keys), float, len(keys))

    return running


def grw_potential_field(spec: GRWSpec, alpha: float, t0: float) -> ScalarField:
    """The quadrature potential as a scalar field on the time chart.

    The value, alpha times the integral of 1/warping from t0, is
    integrated on demand, for all the times of one call at once
    (_running_integrals), and raises NonPositiveWarpingError at a
    quadrature sample where the warping is not positive.  The first and
    second derivatives use the defining relation (slope alpha /
    warping), so jets of this field carry no quadrature noise.  The
    profile's callables take arrays of times (see expressions.external).
    The derivatives are compiled fields of the warping w, alpha / w and
    (-alpha w') / (w w), built from the node kinds, which do not fold,
    so each element is the float expression's and a zero of the
    divisor fails at the compiler's guard.
    """
    w_many = spec.warping.compiled_arrays
    time = (spec.time_var,)
    w, dw = spec.warping.root, spec.warping.diff(spec.time_var).root
    deriv = ScalarField(time, Div(Const(alpha), w)).compiled_arrays
    deriv2 = ScalarField(
        time, Div(Mul(Const(-alpha), dw), Mul(w, w))).compiled_arrays

    def reciprocals(u: np.ndarray) -> np.ndarray:
        wu = w_many(u)
        bad = wu <= 0.0
        if bad.any():
            raise NonPositiveWarpingError(
                f"warping is not positive at [{float(u[bad][0])}]")
        return 1.0 / wu

    running = _running_integrals(reciprocals, t0)

    def values_at(ts: np.ndarray) -> np.ndarray:
        return alpha * running(ts)

    node = external("potential_profile", (values_at, deriv, deriv2),
                    Var(spec.time_var))
    return ScalarField(time, node)


class GRWSamples(NamedTuple):
    """The reduced cosmological system at N samples as (N,) arrays:
    scalar curvature of the product metric, phi', phi'', the warping w
    and w'.  residual(lam) stacks grw_system_residual's r1, r2, r3 as
    (N, 3)."""

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
                fiber_points: Sequence[Sequence[float]] | None = None,
                ) -> GRWSamples:
    """The reduced system at every time and each of P fiber points, on
    ``metric``, the product metric of ``spec``, which the caller
    assembles once: (P*T,) arrays, the T times of the first fiber point
    first.  The warping must be positive at every time; the fiber
    points, P rows of fiber coordinates, default to the origin alone.

    One geometry pass over the points (t, fiber point) gives scal,
    phi' and phi''; Gamma^k_tt vanishes on -dt^2 + w^2 g_F, so the
    covariant tt entry is the plain second derivative.  The warping
    and its jet are taken once over the times.
    """
    times = np.asarray(times, dtype=float)
    _check_positive(spec.warping, times[:, None], "warping")
    if fiber_points is None:
        fiber_points = np.zeros((1, spec.fiber.dimension))
    count = len(fiber_points)
    points = np.column_stack([np.tile(times, count),
                              np.repeat(fiber_points, len(times), axis=0)])
    geometry = point_geometry(metric, potential.with_chart(metric.chart), points)
    jet_w = eval_jet2(spec.warping, times[:, None])
    return GRWSamples(geometry.scal, geometry.dphi[:, 0],
                      geometry.hess[:, 0, 0], np.tile(jet_w.value, count),
                      np.tile(jet_w.gradient[:, 0], count))


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
    samples = grw_samples(spec, metric, potential, [t],
                          None if fiber_point is None else [fiber_point])
    return tuple(samples.residual(lam)[0].tolist())


def grw_lambda_map(spec: GRWSpec, potential: ScalarField, t: float,
                   fiber_point: Sequence[float] | None = None) -> float:
    """The constant the fiber equation of the reduced system forces at
    time t: scal - w' phi' / w.  Constancy over t is what makes the
    construction consistent."""
    metric = assemble_warped_metric(spec, check_points=[[t]])
    samples = grw_samples(spec, metric, potential, [t],
                          None if fiber_point is None else [fiber_point])
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
    as residuals in a fixed order: the parts of Hess(f) = (scal - lam) g
    free of lam, Hess_tt, Hess_tx, Hess_xy, Hess_xx - Hess_ty and
    Hess_yy - q Hess_xx, each covariant entry as walker3_closed_forms
    gives it."""
    jf = eval_jet2(f, point)
    jq = eval_jet2(spec.phi_metric, point)
    q = jq.value
    q_t, q_x, q_y = jq.gradient
    f_t, f_x, f_y = jf.gradient
    H = jf.hessian
    return np.array([
        H[0, 0],
        H[0, 1],
        H[1, 2] - 0.5 * q_x * f_t,
        H[1, 1] - H[0, 2] + 0.5 * q_t * f_t,
        H[2, 2] - q * H[1, 1] - 0.5 * (q * q_t + q_y) * f_t
        + 0.5 * q_x * f_x + 0.5 * q_t * f_y,
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


class QuadratureProfile:
    """A function of one variable known through quadrature: tabulated
    values with monotone cubic interpolation (PCHIP: Fritsch-Carlson
    interior slopes, Moler's one-sided end rule; see ``_pchip``), plus
    derivative callables taken from the defining relation rather than
    from the table.  ``funcs`` take arrays of points, as
    expressions.external takes them; the methods take one point, which
    they pass as a one-element array.  Frozen; equal only to itself."""

    __slots__ = ("name", "funcs", "knots", "values")

    def __init__(self, name: str,
                 funcs: tuple[Callable[[np.ndarray], np.ndarray], ...],
                 knots: np.ndarray, values: np.ndarray) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "funcs", funcs)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (f"QuadratureProfile(name={self.name!r}, funcs={self.funcs!r}, "
                f"knots={self.knots!r}, values={self.values!r})")

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
    times, then the running integrals it lacks, in one nested batch
    (_running_integrals).  The batches report the errors of the loop of
    one quadrature at a time, so the table has that loop's values and
    errors.

    The profile's callables take arrays of times (see
    expressions.external): the value maps the interpolant over them
    element by element, and the slope is the table's array slope.  The
    slope's derivative is a compiled field of the warping w,
    (0.5 w') (c0 t + c1) + c0 w, built from the node kinds, which do not
    fold (c0 = 0 keeps the sign of c0 w), so each element is the float
    expression's.

    ``paper_literal=True`` swaps the y coefficient for (c0 z + c1);
    that variant fails the family's own system when c0 != 0.
    """
    w_many = spec.warping.compiled_arrays
    c0, c1 = spec.c0, spec.c1
    running = _running_integrals(w_many, spec.t0)

    def slopes(ts: np.ndarray) -> np.ndarray:
        """The slope at every element of ts: the warping there, then the
        running integrals."""
        w_ts = w_many(ts)
        return 0.5 * (w_ts * (c0 * ts + c1) + c0 * running(ts))

    slope2 = ScalarField(("t",), Add(
        Mul(Mul(Const(0.5), spec.warping.diff("t").root),
            Add(Mul(Const(c0), Var("t")), Const(c1))),
        Mul(Const(c0), spec.warping.root))).compiled_arrays

    lo, hi = interval
    if not lo < hi:
        raise ValueError(f"empty interval {interval}")
    grid = np.linspace(lo, hi, PROFILE_KNOTS)
    pieces, error = _simpson_batch(slopes, [spec.t0, *grid[:-1].tolist()],
                                   grid.tolist(), tol=QUADRATURE_TOL)
    if error is not None:
        raise error
    # Each entry adds its piece to the one before, as a loop would.
    table = np.cumsum(pieces)
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

class LaplacianReport:
    """Laplacian samples, their mean and their largest |deviation| from
    it.  Frozen; equal only to itself."""

    __slots__ = ("values", "mean", "max_deviation")

    def __init__(self, values: np.ndarray, mean: float,
                 max_deviation: float) -> None:
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "max_deviation", max_deviation)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (f"LaplacianReport(values={self.values!r}, mean={self.mean!r}, "
                f"max_deviation={self.max_deviation!r})")


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

    Frozen; equal only to itself.
    """

    __slots__ = ("fiber_dependence", "pairing_gap", "base_hessian_gap",
                 "fiber_scalar_spread", "pairing_min_abs")

    def __init__(self, fiber_dependence: float, pairing_gap: float,
                 base_hessian_gap: float, fiber_scalar_spread: float,
                 pairing_min_abs: float) -> None:
        object.__setattr__(self, "fiber_dependence", fiber_dependence)
        object.__setattr__(self, "pairing_gap", pairing_gap)
        object.__setattr__(self, "base_hessian_gap", base_hessian_gap)
        object.__setattr__(self, "fiber_scalar_spread", fiber_scalar_spread)
        object.__setattr__(self, "pairing_min_abs", pairing_min_abs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (f"WarpedConditions(fiber_dependence={self.fiber_dependence!r}, "
                f"pairing_gap={self.pairing_gap!r}, "
                f"base_hessian_gap={self.base_hessian_gap!r}, "
                f"fiber_scalar_spread={self.fiber_scalar_spread!r}, "
                f"pairing_min_abs={self.pairing_min_abs!r})")

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
