"""The four metric families and their explicit soliton constructions.

Supported families over fixed charts:

  * warped products      g_B + w^2 g_F          (base chart + fiber chart)
  * cosmological type    -dt^2 + w(t)^2 g_F     (t + fiber chart)
  * static type          -f(x)^2 dt^2 + g_F     (t + fiber chart, f on the fiber)
  * 3d null-parallel     2 dt dy + dx^2 + q(t,x,y) dy^2     chart (t, x, y)
  * 4d null-parallel     2 dx dz + 2 dy dt + w(t) dt^2      chart (x, y, z, t)

For each family this module provides the metric assembly and the
explicit potential constructions, and for the cosmological family the
reduced equation system its soliton condition induces (grw_samples).
The two quadrature-backed potentials are expression trees over one
running integral (expressions.Integral), whose derivative is its
integrand, so their jets need no hand-written slopes.  For general
warped products it checks the base/fiber conditions a coupled soliton
imposes.

The GRW system and the warped-product conditions read their geometry
from the one pass, soliton.point_geometry, or from curvature_over
where only the curvature is wanted.

Two construction formulas circulate in slightly different forms; both
variants are implemented.  The default is the one that satisfies the
family's own equation system (derivative-corrected); the other is kept
behind ``paper_literal=True`` so its nonzero residuals can be
demonstrated rather than silently patched.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .autodiff import eval_jet2
from .curvature import curvature_over
from .errors import (
    NonPositiveEtaPrimeError,
    NonPositiveWarpingError,
    _Record,
    _ValueRecord,
)
from .expressions import (
    Add,
    Const,
    Div,
    Integral,
    Mul,
    ScalarField,
    Var,
    add,
    call,
    constant_field,
    div,
    mul,
    neg,
)
from .metrics import MetricField
from .quadrature import _simpson_batch
from .soliton import (
    SolitonData,
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
    "WarpedConditions",
    "warped_conditions_check",
    "walker3_metric",
    "walker3_construct",
    "walker4_metric",
    "walker4_construct",
]

QUADRATURE_TOL = 1e-10  # of each adaptive quadrature behind a potential


# =====================================================================
# Family specifications
# =====================================================================

class WarpedProductSpec(_ValueRecord):
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
        super().__init__(base, fiber, warping)


class GRWSpec(_ValueRecord):
    """Cosmological warped product -dt^2 + warping(t)^2 g_F."""

    __slots__ = ("warping", "fiber", "interval")

    def __init__(self, warping: ScalarField, fiber: MetricField,
                 interval: tuple[float, float]) -> None:
        super().__init__(warping, fiber, interval)
        if len(warping.chart) != 1:
            raise ValueError("warping must live on a one-dimensional chart")
        if self.time_var in fiber.chart:
            raise ValueError("fiber chart reuses the time coordinate")
        if any(s != 1 for s in fiber.signature):
            raise ValueError("fiber must be Riemannian")
        lo, hi = interval
        if not lo < hi:
            raise ValueError(f"empty interval {interval}")

    @property
    def time_var(self) -> str:
        return self.warping.chart[0]


class StaticSpec(_ValueRecord):
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
        super().__init__(lapse, fiber, time_var)


WALKER3_CHART = ("t", "x", "y")
WALKER4_CHART = ("x", "y", "z", "t")


class Walker3Spec(_ValueRecord):
    """3d Lorentzian metric 2 dt dy + dx^2 + phi_metric dy^2."""

    __slots__ = ("phi_metric",)

    def __init__(self, phi_metric: ScalarField) -> None:
        if phi_metric.chart != WALKER3_CHART:
            raise ValueError(f"metric function must live on {WALKER3_CHART}")
        super().__init__(phi_metric)


class Walker3Construction(_ValueRecord):
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
        super().__init__(kappa, eta, zeta)


class Walker4Spec(_ValueRecord):
    """4d neutral metric 2 dx dz + 2 dy dt + warping(t) dt^2 with the
    four construction constants and the quadrature base point."""

    __slots__ = ("warping", "c0", "c1", "c2", "c3", "t0")

    def __init__(self, warping: ScalarField, c0: float = 0.0, c1: float = 0.0,
                 c2: float = 0.0, c3: float = 0.0, t0: float = 0.0) -> None:
        if warping.chart != ("t",):
            raise ValueError("warping must live on the chart ('t',)")
        super().__init__(warping, c0, c1, c2, c3, t0)


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
    array of times, as an array of its shape, kept per time as
    lru_cache keys them (0.0 == -0.0).  The times not yet known are
    integrated in order, in one batch (quadrature._simpson_batch); a
    batch that fails keeps the integrals before its failure and raises
    the error the loop of one quadrature per time meets first, its
    ``index`` set to the position of the first time whose integral
    failed."""
    known: dict[float, float] = {}

    def running(ts: np.ndarray) -> np.ndarray:
        keys = ts.ravel().tolist()
        new = dict.fromkeys(keys)
        # Times all distinct and all new are integrated as they come, and
        # the batch is their integrals.
        fresh = len(new) == len(keys) and known.keys().isdisjoint(new)
        missing = keys if fresh else [tv for tv in new if tv not in known]
        if missing:
            batch, error = _simpson_batch(integrand, np.full(len(missing), t0),
                                          missing, tol=QUADRATURE_TOL)
            known.update(zip(missing, batch.tolist()))
            if error is not None:
                error.index = keys.index(missing[len(batch)])
                raise error
            if fresh:
                return batch.reshape(ts.shape)
        values = np.fromiter(map(known.__getitem__, keys), float, len(keys))
        return values.reshape(ts.shape)

    return running


def grw_potential_field(spec: GRWSpec, alpha: float, t0: float) -> ScalarField:
    """The quadrature potential as a scalar field on the time chart:
    alpha times the integral of 1/warping from t0, the tree
    Mul(Const(alpha), Integral(1/w, t, t0)) of node kinds that do not
    fold, so each value is alpha times the integral, as a float
    product, also for alpha = 0 or 1.  Its values are integrated
    on demand, for all the times of one call at once
    (_running_integrals), and raise NonPositiveWarpingError at a
    quadrature sample where the warping is not positive.  Its jets
    differentiate the tree, so they carry no quadrature noise.
    """
    w_many = spec.warping.compiled_arrays

    def reciprocals(u: np.ndarray) -> np.ndarray:
        wu = w_many(u)
        bad = wu <= 0.0
        if bad.any():
            raise NonPositiveWarpingError(
                f"warping is not positive at [{float(u[bad][0])}]")
        return 1.0 / wu

    integral = Integral(Div(Const(1.0), spec.warping.root), spec.time_var, t0,
                        _running_integrals(reciprocals, t0))
    return ScalarField((spec.time_var,), Mul(Const(alpha), integral))


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


def walker4_construct(spec: Walker4Spec,
                      paper_literal: bool = False) -> ScalarField:
    """Potential of the explicit 4d structure.

        f = x (c0 z + c2) + y (c0 t + c1) + c3 z + tpart(t)

    where the profile solves 2 tpart' = w(t) (c0 t + c1) + c0 I(t) with
    I the running integral of the warping from t0.  The right side is
    the derivative of (c0 t + c1) I(t), and I(t0) = 0, so

        tpart(t) = 1/2 (c0 t + c1) I(t)

    exactly, at any t: the tree 0.5*(c0*t + c1)*Integral(w, t, t0),
    built from the node kinds, which do not fold (c0 = 0 keeps the
    sign of 0*t), so each value is the float expression's.  Its values
    read one memo of running integrals (_running_integrals): the times
    of a call that it lacks are integrated in one batch, and a time is
    integrated once per construction.

    ``paper_literal=True`` swaps the y coefficient for (c0 z + c1);
    that variant fails the family's own system when c0 != 0.
    """
    c0, c1 = Const(spec.c0), Const(spec.c1)
    x, y, z, t = (Var(n) for n in WALKER4_CHART)
    integral = Integral(spec.warping.root, "t", spec.t0, _running_integrals(
        spec.warping.compiled_arrays, spec.t0))
    tpart = Mul(Mul(Const(0.5), Add(Mul(c0, t), c1)), integral)
    y_coeff_var = z if paper_literal else t
    root = add(
        add(
            add(
                mul(x, add(mul(c0, z), Const(spec.c2))),
                mul(y, add(mul(c0, y_coeff_var), c1)),
            ),
            mul(Const(spec.c3), z),
        ),
        tpart,
    )
    return ScalarField(WALKER4_CHART, root)


# =====================================================================
# Warped-product conditions
# =====================================================================

class WarpedConditions(_Record):
    """Residuals of the base/fiber conditions a coupled soliton imposes
    on a warped product.

    fiber_dependence      largest fiber-direction derivative of phi
    pairing_gap           largest |g_B(grad theta, grad b) - (lam - scal) b theta / m|
    base_hessian_gap      largest entry of Hess_B(theta) - (theta/m)(lam - scal) g_B
    fiber_scalar_spread   spread of the fiber scalar-curvature samples
    pairing_min_abs       smallest |g_B(grad theta, grad b)| seen, reported
                          so callers can judge the non-orthogonality
                          requirement at their sample points

    Each is a float.  Frozen; equal only to itself.
    """

    __slots__ = ("fiber_dependence", "pairing_gap", "base_hessian_gap",
                 "fiber_scalar_spread", "pairing_min_abs")

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
