"""Metric families: assembly, reduced systems, closed forms and the
explicit constructions.

The closed-form hessian and laplacian tables are cross-validated
against the generic covariant pipeline, which computes Christoffel
symbols from metric jets and knows nothing about the families.  The
quadrature-backed potentials are checked against hand-integrable
warpings.
"""

import numpy as np
import pytest

from solitonlab import (
    DomainError,
    MetricField,
    NonPositiveEtaPrimeError,
    NonPositiveWarpingError,
    SolitonData,
    adaptive_simpson,
    christoffel,
    constant_field,
    coordinate_field,
    covariant_hessian,
    curvature_at,
    eval_jet2,
    exp as field_exp,
    flat_metric,
    infer_lambda,
    metric_at,
    parse_expression,
    point_geometry,
    residual_report,
    sphere_metric,
    theta_substitution,
)
from solitonlab.curvature import covariant_hessian_from
from solitonlab.expressions import Add, ScalarField, Var, external
from solitonlab.families import (
    GRWSpec,
    StaticSpec,
    Walker3Construction,
    Walker3Spec,
    Walker4Spec,
    WarpedConditions,
    WarpedProductSpec,
    assemble_warped_metric,
    grw_lambda_map,
    grw_potential_field,
    grw_system_residual,
    laplacian_report,
    static_system_residual,
    walker3_closed_forms,
    walker3_construct,
    walker3_metric,
    walker3_pde_residual,
    walker4_closed_forms,
    walker4_construct,
    walker4_metric,
    walker4_pde_residual,
    warped_conditions_check,
)

from conftest import count_calls, random_field


# ---------------------------------------------------------------
# assembly
# ---------------------------------------------------------------

def test_warped_product_assembly_values():
    base = flat_metric(("t",), "+")
    fiber = sphere_metric(1.0, ("u", "v"))
    warping = parse_expression("2 + t", ("t",))
    metric = assemble_warped_metric(WarpedProductSpec(base, fiber, warping))
    assert metric.chart == ("t", "u", "v")
    data = metric_at(metric, (0.5, 1.1, 0.3))
    w2 = 2.5**2
    assert abs(data.g[0, 0] - 1.0) < 1e-15
    assert abs(data.g[1, 1] - w2) < 1e-13
    assert abs(data.g[2, 2] - w2 * np.sin(1.1) ** 2) < 1e-13


def test_warped_assembly_rejects_non_positive_warping():
    cases = [
        (("t",), "t", [(2.0,), (-1.0,)], "warping is not positive at [-1.0]"),
        (("t", "s"), "t*s", [(1.0, 2.0), (1.0, -0.0), (-1.0, 1.0)],
         "warping is not positive at [1.0, -0.0]"),
    ]
    for chart, source, points, message in cases:
        spec = WarpedProductSpec(flat_metric(chart), flat_metric(("p",)),
                                 parse_expression(source, chart))
        with pytest.raises(NonPositiveWarpingError) as caught:
            assemble_warped_metric(spec, check_points=points)
        assert str(caught.value) == message


def test_cosmological_assembly_checks_its_interval():
    warping = parse_expression("t", ("t",))
    spec = GRWSpec(warping, flat_metric(("p",)), (-1.0, 1.0))
    with pytest.raises(NonPositiveWarpingError) as caught:
        assemble_warped_metric(spec)
    assert str(caught.value) == "warping is not positive at [-1.0]"


def test_cosmological_spec_validation():
    warping = parse_expression("t", ("t",))
    with pytest.raises(ValueError):
        GRWSpec(warping, flat_metric(("p",), "-"), (1.0, 2.0))
    with pytest.raises(ValueError):
        GRWSpec(warping, flat_metric(("t", "p")), (1.0, 2.0))
    with pytest.raises(ValueError):
        GRWSpec(warping, flat_metric(("p",)), (2.0, 1.0))


def test_static_assembly_values():
    fiber = flat_metric(("x1", "x2"))
    lapse = field_exp(coordinate_field(("x1", "x2"), "x2"))
    metric = assemble_warped_metric(StaticSpec(lapse, fiber))
    data = metric_at(metric, (0.7, 0.1, 0.4))
    assert abs(data.g[0, 0] + np.exp(0.8)) < 1e-13
    assert abs(data.g[1, 1] - 1.0) < 1e-15
    assert abs(data.g[0, 1]) < 1e-15


# ---------------------------------------------------------------
# cosmological family
# ---------------------------------------------------------------

def _grw_linear():
    warping = parse_expression("t", ("t",))
    return GRWSpec(warping, flat_metric(("x1", "x2", "x3")), (1.0, 2.0))


def test_potential_against_hand_integrals():
    const = GRWSpec(
        constant_field(("t",), 2.0), flat_metric(("p",)), (0.0, 3.0)
    )
    assert abs(grw_potential_field(const, 4.0, 0.0)((3.0,)) - 6.0) < 1e-10

    linear = _grw_linear()
    assert abs(
        grw_potential_field(linear, -6.0, 1.0)((1.7,)) + 6.0 * np.log(1.7)
    ) < 1e-9

    expo = GRWSpec(
        field_exp(coordinate_field(("t",), "t")), flat_metric(("p",)),
        (0.0, 2.0),
    )
    expected = 3.0 * (np.exp(-0.5) - np.exp(-1.5))
    assert abs(grw_potential_field(expo, 3.0, 0.5)((1.5,)) - expected) < 1e-10


def test_potential_vanishes_at_the_base_point_and_is_monotone():
    spec = _grw_linear()
    assert grw_potential_field(spec, 5.0, 1.3)((1.3,)) == 0.0
    potential = grw_potential_field(spec, 5.0, 1.0)
    values = [potential((t,)) for t in np.linspace(1.0, 2.0, 7)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_potential_rejects_warping_that_crosses_zero():
    spec = GRWSpec(
        parse_expression("t", ("t",)), flat_metric(("p",)), (1.0, 2.0)
    )
    with pytest.raises(NonPositiveWarpingError):
        grw_potential_field(spec, 1.0, -1.0)((2.0,))


def test_a_zero_of_the_warping_fails_the_derivatives_as_a_domain_error():
    # The derivatives divide by the warping, unchecked where it is not
    # sampled for positivity; a zero there is the package's error.
    spec = GRWSpec(parse_expression("t - 1", ("t",)), flat_metric(("x",)),
                   (0.5, 2.0))
    slope = grw_potential_field(spec, 2.0, 1.5).diff("t")
    with pytest.raises(DomainError, match="division by zero"):
        slope((1.0,))
    with pytest.raises(DomainError, match="division by zero"):
        slope.diff("t")((1.0,))


def test_potential_quadrature_convergence():
    # The potential alpha * integral of 1/warping at two tolerances.
    warping = parse_expression("1 + 0.5*sin(t)", ("t",))

    def reciprocal(t):
        return 1.0 / warping((t,))

    coarse = 2.0 * adaptive_simpson(reciprocal, 0.0, 5.5, tol=1e-8)
    fine = 2.0 * adaptive_simpson(reciprocal, 0.0, 5.5, tol=1e-10)
    assert abs(coarse - fine) < 1e-8


def test_potential_field_jets_follow_the_defining_relation():
    spec = _grw_linear()
    potential = grw_potential_field(spec, -6.0, 1.0)
    from solitonlab.autodiff import eval_jet2

    for t in (1.1, 1.5, 1.9):
        jet = eval_jet2(potential, (t,))
        assert abs(jet.value + 6.0 * np.log(t)) < 1e-9
        assert abs(jet.gradient[0] + 6.0 / t) < 1e-13
        assert abs(jet.hessian[0, 0] - 6.0 / t**2) < 1e-13


def test_lambda_free_identity_for_quadrature_potentials():
    warpings = [
        ("t", (1.0, 2.0)),
        ("1 + 0.5*sin(t)", (0.0, 3.0)),
        ("exp(0.3*t)", (0.0, 2.0)),
    ]
    for source, interval in warpings:
        spec = GRWSpec(
            parse_expression(source, ("t",)),
            flat_metric(("x1", "x2", "x3")), interval,
        )
        for alpha in (-6.0, 0.5, 3.0):
            potential = grw_potential_field(spec, alpha, interval[0] + 0.1)
            for t in np.linspace(interval[0] + 0.2, interval[1] - 0.1, 4):
                _, _, r3 = grw_system_residual(spec, potential, 0.0, t)
                assert abs(r3) < 1e-9


def test_linear_warping_quasi_certification():
    spec = _grw_linear()
    metric = assemble_warped_metric(spec)
    potential = grw_potential_field(spec, -6.0, 1.0).with_chart(metric.chart)
    soliton = SolitonData(potential, 0.0, mu=1.0 / 3.0)
    rng = np.random.default_rng(41)
    pts = [np.concatenate([[t], rng.uniform(-1, 1, 3)])
           for t in np.linspace(1.0, 2.0, 6)]
    report = residual_report(metric, soliton, pts, tol=1e-8)
    assert report.passed
    estimate = infer_lambda(metric, potential, pts, mu=1.0 / 3.0)
    assert abs(estimate.value) < 1e-12
    assert estimate.spread < 1e-12


def test_linear_warping_admits_no_plain_structure():
    # With zero coupling, no slope constant makes the inferred lambda
    # constant AND the full residual small at the same time: the slope
    # that flattens lambda leaves a residual of order 1/t^2 behind.
    spec = _grw_linear()
    metric = assemble_warped_metric(spec)
    t_values = np.linspace(1.0, 2.0, 5)
    pts = [np.array([t, 0.1, -0.2, 0.3]) for t in t_values]
    best = np.inf
    for alpha in np.linspace(-14.0, 2.0, 33):
        potential = grw_potential_field(spec, alpha, 1.0).with_chart(metric.chart)
        estimate = infer_lambda(metric, potential, pts, mu=0.0)
        report = residual_report(
            metric, SolitonData(potential, estimate.value), pts, tol=1e-8
        )
        best = min(best, max(estimate.spread, report.max_abs))
    assert best > 1e-2


def test_perturbed_slope_breaks_constancy():
    spec = _grw_linear()
    metric = assemble_warped_metric(spec)
    pts = [np.array([t, 0.1, -0.2, 0.3]) for t in np.linspace(1.0, 2.0, 5)]
    good = grw_potential_field(spec, -6.0, 1.0).with_chart(metric.chart)
    off = grw_potential_field(spec, -6.6, 1.0).with_chart(metric.chart)
    mu = 1.0 / 3.0
    assert infer_lambda(metric, good, pts, mu).spread < 1e-12
    assert infer_lambda(metric, off, pts, mu).spread > 1e-2


def test_lambda_map_is_constant_for_the_matching_slope():
    spec = _grw_linear()
    potential = grw_potential_field(spec, 6.0, 1.0)
    values = [grw_lambda_map(spec, potential, t) for t in np.linspace(1.05, 1.95, 7)]
    assert max(values) - min(values) < 1e-12
    assert abs(values[0]) < 1e-12
    r1, r2, r3 = grw_system_residual(spec, potential, 0.0, 1.4)
    assert max(abs(r1), abs(r2), abs(r3)) < 1e-12


# ---------------------------------------------------------------
# static family
# ---------------------------------------------------------------

def _static_instance():
    fiber = flat_metric(("x1", "x2"))
    lapse = field_exp(coordinate_field(("x1", "x2"), "x2"))
    return StaticSpec(lapse, fiber)


def test_static_system_residuals_vanish_on_the_certified_instance():
    spec = _static_instance()
    potential = coordinate_field(("x1", "x2"), "x1")
    for point in ((0.3, -0.5), (-0.2, 0.4), (0.0, 0.0)):
        r1, r2, r3 = static_system_residual(spec, potential, -2.0, point)
        assert abs(r1) < 1e-13
        assert np.abs(r2).max() < 1e-13
        assert abs(r3) < 1e-13


def test_static_system_detects_a_wrong_class_constant():
    spec = _static_instance()
    potential = coordinate_field(("x1", "x2"), "x1")
    r1, r2, r3 = static_system_residual(spec, potential, 1.0, (0.3, -0.5))
    assert abs(r1) > 0.1
    assert np.abs(r2).max() > 0.1


def test_static_trace_identity_on_arbitrary_data():
    # The third equation is the fiber trace of the second minus s/lapse
    # times the first; the identity holds for any potential, soliton or
    # not.
    spec = _static_instance()
    fiber = spec.fiber
    rng = np.random.default_rng(53)
    pts = rng.uniform(-0.9, 0.9, (5, 2))
    s = fiber.dimension
    for _ in range(10):
        potential, _ = random_field(rng, ("x1", "x2"), pts, depth=2, bound=50.0)
        lam = rng.uniform(-2.0, 2.0)
        for point in pts[:3]:
            r1, r2, r3 = static_system_residual(spec, potential, lam, point)
            data = metric_at(fiber, point)
            trace_r2 = float(np.einsum("ij,ij->", data.g_inv, r2))
            lapse_value = spec.lapse(point)
            assert abs(r3 - (trace_r2 - (s / lapse_value) * r1)) < 1e-9


def test_static_system_assembles_no_product_metric(monkeypatch):
    calls = count_calls(monkeypatch, "families", "assemble_warped_metric")
    spec = _static_instance()
    potential = coordinate_field(("x1", "x2"), "x1")
    for point in ((0.3, -0.5), (-0.2, 0.4)):
        static_system_residual(spec, potential, -2.0, point)
    assert len(calls) == 0


def test_static_scalar_curvature_matches_the_generic_pipeline():
    # With phi = 0 and lam = 0, r1 = -scal * lapse; the curved fiber
    # makes both scal_F and Lap_F(lapse) nonzero.  The assembled static
    # metric through the generic pipeline is the oracle.
    fiber = sphere_metric(1.5)
    lapse = parse_expression("2 + cos(u)*sin(v)", fiber.chart)
    spec = StaticSpec(lapse, fiber)
    metric = assemble_warped_metric(spec)
    zero = constant_field(fiber.chart, 0.0)
    for point in ((0.7, 0.4), (1.9, -1.1)):
        r1, _, _ = static_system_residual(spec, zero, 0.0, point)
        want = curvature_at(metric, (0.0, *point)).scalar
        assert abs(-r1 / lapse(point) - want) < 1e-10


def test_static_system_rejects_non_positive_lapse():
    fiber = flat_metric(("x1", "x2"))
    lapse = coordinate_field(("x1", "x2"), "x2")
    spec = StaticSpec(lapse, fiber)
    potential = coordinate_field(("x1", "x2"), "x1")
    with pytest.raises(NonPositiveWarpingError):
        static_system_residual(spec, potential, 0.0, (0.3, -0.5))


# ---------------------------------------------------------------
# 3d family
# ---------------------------------------------------------------

def _random_walker3_pair(rng, pts):
    q, _ = random_field(rng, ("t", "x", "y"), pts, depth=2, bound=20.0)
    f, _ = random_field(rng, ("t", "x", "y"), pts, depth=2, bound=20.0)
    return q, f


def test_walker3_closed_forms_match_the_generic_pipeline():
    rng = np.random.default_rng(61)
    worst_h = worst_l = 0.0
    checked = 0
    while checked < 40:
        pts = rng.uniform(-1.0, 1.0, (3, 3))
        q, f = _random_walker3_pair(rng, pts)
        spec = Walker3Spec(q)
        metric = walker3_metric(spec)
        for p in pts:
            geometry = point_geometry(metric, f, [p])
            hess_closed, lap_closed = walker3_closed_forms(spec, f, p)
            worst_h = max(
                worst_h,
                np.abs(geometry.hess[0] - hess_closed).max(),
            )
            worst_l = max(worst_l, abs(geometry.lap[0] - lap_closed))
            checked += 1
    assert worst_h < 1e-9
    assert worst_l < 1e-9


def test_walker3_literal_row_misses_two_terms():
    q = parse_expression("0.4*x*y + 0.3*y^2", ("t", "x", "y"))
    f = parse_expression("x^2 + t*y", ("t", "x", "y"))
    spec = Walker3Spec(q)
    p = np.array([0.5, -0.4, 0.8])
    metric = walker3_metric(spec)
    data = metric_at(metric, p)
    hess_generic = covariant_hessian(f, data)
    hess_literal, _ = walker3_closed_forms(spec, f, p, paper_literal=True)
    assert np.abs(hess_generic - hess_literal).max() > 1e-3


def test_walker3_construction_certifies():
    eta = field_exp(coordinate_field(("y",), "y"))
    zeta = constant_field(("x", "y"), 0.0)
    f, q = walker3_construct(
        Walker3Construction(1.0, eta, zeta),
        check_points=np.linspace(-1.0, 1.0, 9),
    )
    assert str(q) == "-2*t"
    metric = walker3_metric(Walker3Spec(q))
    rng = np.random.default_rng(67)
    pts = rng.uniform(-1.0, 1.0, (12, 3))
    report = residual_report(metric, SolitonData(f, 0.0), pts, tol=1e-9)
    assert report.passed
    estimate = infer_lambda(metric, f, pts)
    assert abs(estimate.value) < 1e-12
    assert estimate.spread < 1e-12
    assert np.abs(walker3_pde_residual(Walker3Spec(q), f, pts[0])).max() < 1e-12
    constancy = laplacian_report(metric, f, pts)
    assert abs(constancy.mean) < 1e-12
    assert constancy.max_deviation < 1e-12


def test_walker3_construction_with_free_term():
    eta = parse_expression("y + 0.2*y^3", ("y",))
    zeta = parse_expression("x^2 - 0.3*y", ("x", "y"))
    f, q = walker3_construct(
        Walker3Construction(0.0, eta, zeta),
        check_points=np.linspace(-1.0, 1.0, 9),
    )
    metric = walker3_metric(Walker3Spec(q))
    rng = np.random.default_rng(71)
    pts = rng.uniform(-1.0, 1.0, (10, 3))
    report = residual_report(metric, SolitonData(f, 0.0), pts, tol=1e-9)
    assert report.passed
    constancy = laplacian_report(metric, f, pts)
    assert constancy.max_deviation < 1e-10


def test_walker3_free_term_is_free_only_where_kappa_zeta_x_vanishes():
    # With kappa = 1 and zeta = x the yy equation keeps 1/2 kappa zeta_x,
    # the 0.5 the construct command reports.
    eta = field_exp(coordinate_field(("y",), "y"))
    zeta = coordinate_field(("x", "y"), "x")
    f, q = walker3_construct(Walker3Construction(1.0, eta, zeta))
    residual = walker3_pde_residual(Walker3Spec(q), f, (0.3, 0.2, -0.4))
    assert np.abs(residual[:4]).max() < 1e-12
    assert abs(residual[4] - 0.5) < 1e-12


def test_walker3_literal_construction_fails_its_own_system():
    eta = field_exp(coordinate_field(("y",), "y"))
    zeta = constant_field(("x", "y"), 0.0)
    f, q = walker3_construct(
        Walker3Construction(1.0, eta, zeta), paper_literal=True
    )
    metric = walker3_metric(Walker3Spec(q))
    report = residual_report(
        metric, SolitonData(f, 0.0), [np.array([0.5, 0.2, -1.0])], tol=0.1
    )
    assert not report.passed
    assert abs(report.max_abs - np.exp(-1.0) * 2.0) < 1e-12


def test_walker3_construction_rejects_non_increasing_profiles():
    eta = parse_expression("-y", ("y",))
    zeta = constant_field(("x", "y"), 0.0)
    with pytest.raises(NonPositiveEtaPrimeError):
        walker3_construct(
            Walker3Construction(1.0, eta, zeta), check_points=[0.0]
        )


def test_walker3_spec_demands_its_chart():
    with pytest.raises(ValueError):
        Walker3Spec(parse_expression("a", ("a", "b", "c")))
    with pytest.raises(ValueError):
        Walker3Construction(1.0, parse_expression("q", ("q",)),
                            constant_field(("x", "y"), 0.0))


# ---------------------------------------------------------------
# 4d family
# ---------------------------------------------------------------

def test_walker4_metric_is_flat_for_any_warping():
    spec = Walker4Spec(parse_expression("1 + 0.5*sin(t)", ("t",)))
    metric = walker4_metric(spec)
    rng = np.random.default_rng(73)
    for _ in range(3):
        p = rng.uniform(-1.0, 1.0, 4)
        curv = curvature_at(metric, p)
        assert np.abs(curv.riemann).max() < 1e-12
        assert abs(curv.scalar) < 1e-12


def test_walker4_closed_forms_match_the_generic_pipeline():
    rng = np.random.default_rng(79)
    worst_h = worst_l = 0.0
    checked = 0
    while checked < 40:
        pts = rng.uniform(-1.0, 1.0, (3, 4))
        warping, _ = random_field(rng, ("t",), pts[:, 3:4], depth=2, bound=20.0)
        f, _ = random_field(rng, ("x", "y", "z", "t"), pts, depth=2, bound=20.0)
        spec = Walker4Spec(warping)
        metric = walker4_metric(spec)
        for p in pts:
            try:
                metric_at(metric, p)
            except Exception:
                break
            geometry = point_geometry(metric, f, [p])
            hess_closed, lap_closed = walker4_closed_forms(spec, f, p)
            worst_h = max(
                worst_h,
                np.abs(geometry.hess[0] - hess_closed).max(),
            )
            worst_l = max(worst_l, abs(geometry.lap[0] - lap_closed))
            checked += 1
    assert worst_h < 1e-9
    assert worst_l < 1e-9


def test_walker4_construction_certifies():
    spec = Walker4Spec(constant_field(("t",), 1.0), 1.0, 1.0, 1.0, 1.0, 0.0)
    f, profile = walker4_construct(spec)
    metric = walker4_metric(spec)
    rng = np.random.default_rng(83)
    pts = rng.uniform(-1.0, 1.0, (12, 4))
    report = residual_report(metric, SolitonData(f, -1.0), pts, tol=1e-9)
    assert report.passed
    estimate = infer_lambda(metric, f, pts)
    assert abs(estimate.value + 1.0) < 1e-12
    assert estimate.spread < 1e-12
    constancy = laplacian_report(metric, f, pts)
    assert abs(constancy.mean - 4.0) < 1e-12
    assert constancy.max_deviation < 1e-12
    assert np.abs(walker4_pde_residual(spec, f, pts[0])).max() < 1e-12
    # unit warping, all constants one: the profile is t^2/2 + t/2
    for t in profile.knots[::8]:
        assert abs(profile(t) - (t * t / 2 + t / 2)) < 1e-9
    assert abs(profile.deriv(0.3) - 0.8) < 1e-12
    assert abs(profile.deriv2(0.3) - 1.0) < 1e-12


def test_walker4_degenerate_constant_gives_a_steady_structure():
    spec = Walker4Spec(constant_field(("t",), 1.0), 0.0, 2.0, 3.0, 0.5, 0.0)
    f, profile = walker4_construct(spec)
    metric = walker4_metric(spec)
    rng = np.random.default_rng(89)
    pts = rng.uniform(-1.0, 1.0, (8, 4))
    report = residual_report(metric, SolitonData(f, 0.0), pts, tol=1e-9)
    assert report.passed
    constancy = laplacian_report(metric, f, pts)
    assert abs(constancy.mean) < 1e-12
    # profile reduces to (c1/2) * running integral of the warping
    assert abs(profile(0.8) - 0.8) < 1e-9


def test_walker4_construction_with_nonconstant_warping():
    spec = Walker4Spec(
        parse_expression("1 + 0.5*sin(t)", ("t",)), 1.0, -0.5, 0.7, 2.0, 0.2
    )
    f, _ = walker4_construct(spec)
    metric = walker4_metric(spec)
    rng = np.random.default_rng(97)
    pts = rng.uniform(-1.0, 1.0, (10, 4))
    estimate = infer_lambda(metric, f, pts)
    report = residual_report(
        metric, SolitonData(f, estimate.value), pts, tol=1e-9
    )
    assert report.passed
    assert estimate.spread < 1e-10
    constancy = laplacian_report(metric, f, pts)
    assert abs(constancy.mean - 4.0) < 1e-10


def test_walker4_literal_construction_fails_its_own_system():
    spec = Walker4Spec(constant_field(("t",), 1.0), 1.0, 1.0, 1.0, 1.0, 0.0)
    f, _ = walker4_construct(spec, paper_literal=True)
    metric = walker4_metric(spec)
    pts = [np.array([0.3, -0.2, 0.5, 0.1])]
    report = residual_report(metric, SolitonData(f, -1.0), pts, tol=0.1)
    assert not report.passed
    assert abs(report.max_abs - 1.0) < 1e-12


def test_walker4_worked_equation_rows():
    spec = Walker4Spec(constant_field(("t",), 1.0))
    f = parse_expression("y*t", ("x", "y", "z", "t"))
    rows = walker4_pde_residual(spec, f, np.array([0.1, 0.2, 0.3, 0.4]))
    assert np.abs(rows[:7]).max() < 1e-15
    assert abs(rows[7] + 0.5) < 1e-15
    assert abs(rows[8] - 0.5) < 1e-15
    assert abs(rows[9] + 0.5) < 1e-15


def test_walker4_profile_rejects_sampling_outside_its_table():
    spec = Walker4Spec(constant_field(("t",), 1.0), 1.0, 1.0, 1.0, 1.0, 0.0)
    _, profile = walker4_construct(spec, interval=(-1.0, 1.0))
    with pytest.raises(DomainError):
        profile(2.0)


def test_laplacian_report_flags_non_constant_laplacians():
    metric = flat_metric(("x", "y"))
    f = parse_expression("x^3", ("x", "y"))
    report = laplacian_report(metric, f, [(0.0, 0.0), (1.0, 0.0)])
    assert report.max_deviation > 1.0
    g = parse_expression("x^2 + y^2", ("x", "y"))
    report2 = laplacian_report(metric, g, [(0.0, 0.0), (1.0, 2.0)])
    assert abs(report2.mean - 4.0) < 1e-12
    assert report2.max_deviation < 1e-12


# ---------------------------------------------------------------
# warped-product conditions
# ---------------------------------------------------------------

def test_warped_conditions_on_a_curved_base_match_a_base_chart_reference():
    # Non-constant, non-diagonal base metric, so Gamma_B is nonzero and
    # the base block of the product pass is really put to the test.
    base = MetricField.from_rows(
        ("x", "y"),
        [["2 + x^2", "0.5*x*y"], ["0.5*x*y", "1 + y^2 + 0.3*sin(x)"]],
        "++",
    )
    fiber = sphere_metric(1.0, ("u", "v"))
    warping = parse_expression("1.5 + 0.3*x - 0.2*x*y", base.chart)
    chart = base.chart + fiber.chart
    potential = parse_expression("0.4*x + 0.2*y^2 + 0.1*sin(u)", chart)
    soliton = SolitonData(potential, 0.3, mu=0.5)
    base_pts = np.array([(0.5, -0.4), (-0.6, 0.7), (0.2, 0.9)])
    fiber_pts = np.array([(0.8, 0.3), (1.4, -0.6)])
    got = warped_conditions_check(base, fiber, warping, soliton,
                                  base_pts, fiber_pts)

    metric = assemble_warped_metric(WarpedProductSpec(base, fiber, warping))
    theta = theta_substitution(potential, soliton.mu)
    m = 1.0 / soliton.mu
    pairings, pairing_gaps, hessian_gaps = [], [], []
    for x in base_pts:
        full = np.concatenate([x, fiber_pts[0]])
        scal = curvature_at(metric, full).scalar
        base_data = metric_at(base, x)
        gamma_b = christoffel(base_data)
        assert np.abs(gamma_b).max() > 0.05
        jet_th = eval_jet2(theta, full)
        hess_th = covariant_hessian_from(jet_th.gradient[:2],
                                         jet_th.hessian[:2, :2], gamma_b)
        jet_b = eval_jet2(warping, x)
        pairing = float(base_data.g_inv @ jet_th.gradient[:2] @ jet_b.gradient)
        pairings.append(abs(pairing))
        pairing_gaps.append(abs(
            pairing - (soliton.lam - scal) * jet_b.value * jet_th.value / m))
        hessian_gaps.append(np.abs(
            hess_th - (jet_th.value / m) * (soliton.lam - scal) * base_data.g
        ).max())
    fiber_scal = np.array([curvature_at(fiber, y).scalar for y in fiber_pts])
    want = WarpedConditions(
        fiber_dependence=max(
            np.abs(eval_jet2(potential, np.concatenate([x, y])).gradient[2:]).max()
            for x in base_pts for y in fiber_pts
        ),
        pairing_gap=max(pairing_gaps),
        base_hessian_gap=max(hessian_gaps),
        fiber_scalar_spread=np.abs(fiber_scal - fiber_scal.mean()).max(),
        pairing_min_abs=min(pairings),
    )
    for name in WarpedConditions.__slots__:
        assert abs(getattr(got, name) - getattr(want, name)) < 1e-10, name
    assert want.pairing_gap > 0.01 and want.base_hessian_gap > 0.01


# ---------------------------------------------------------------
# the profiles' derivative fields against the closures they replaced
# ---------------------------------------------------------------

def _same_bits(funcs, closures, ts):
    # The derivatives themselves, where a folded zero would show its sign;
    # the jets' sums can lose it.
    for got, want in zip(funcs, closures):
        assert got(ts).tobytes() == want(ts).tobytes()


def _same_jets(field, reference, points):
    got, want = eval_jet2(field, points), eval_jet2(reference, points)
    for part in ("value", "gradient", "hessian"):
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), part


@pytest.mark.parametrize("warping", ["t", "2", "1 + 0.3*sin(t)", "exp(0.5*t)", "t^2"])
def test_grw_derivative_fields_give_the_closure_bits(warping):
    spec = GRWSpec(parse_expression(warping, ("t",)), flat_metric(("x",)),
                   (0.5, 2.0))
    w_many = spec.warping.compiled_arrays
    dw_many = spec.warping.diff("t").compiled_arrays
    points = np.linspace(0.5, 2.0, 7)[:, None]
    for alpha in (0.0, 1.0, -1.0, 6.0, 0.37):
        potential = grw_potential_field(spec, alpha, 0.5)

        def deriv(ts, alpha=alpha):
            return alpha / w_many(ts)

        def deriv2(ts, alpha=alpha):
            wv = w_many(ts)
            return -alpha * dw_many(ts) / (wv * wv)

        reference = ScalarField(("t",), external(
            "potential_profile", (potential.root.funcs[0], deriv, deriv2),
            Var("t")))
        _same_bits(potential.root.funcs[1:], (deriv, deriv2), points[:, 0])
        _same_jets(potential, reference, points)


@pytest.mark.parametrize("paper_literal", [False, True])
@pytest.mark.parametrize("warping", ["1 + 0.3*sin(t)", "2", "-1 + 0.2*t", "t", "0"])
def test_walker4_slope_derivative_field_gives_the_closure_bits(warping,
                                                               paper_literal):
    w = parse_expression(warping, ("t",))
    w_many, w_t_many = w.compiled_arrays, w.diff("t").compiled_arrays
    rng = np.random.default_rng(101)
    points = np.column_stack([rng.uniform(-1.0, 1.0, (11, 3)),
                              [-1.0, -0.7, -0.3, -0.0, 0.0, 0.1, 0.4, 0.7,
                               1.0, 1.2, 1.4]])
    for c0 in (0.0, -0.0, 1.0, -1.0, 0.7):
        for c1 in (0.0, -0.0, 1.0, -1.0, 0.7):

            def slope2(ts, c0=c0, c1=c1):
                return 0.5 * w_t_many(ts) * (c0 * ts + c1) + c0 * w_many(ts)

            spec = Walker4Spec(w, c0, c1, 0.25, -0.5, 0.1)
            f, profile = walker4_construct(spec, paper_literal)
            assert type(f.root) is Add
            reference = ScalarField(f.chart, Add(f.root.left, external(
                profile.name, (*profile.funcs[:2], slope2), Var("t"))))
            _same_bits(profile.funcs[2:], (slope2,), points[:, 3])
            _same_jets(f, reference, points)
