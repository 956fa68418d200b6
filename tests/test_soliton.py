"""The soliton condition, its quasi variant, the substitution identity
and the warped-product criteria.

Certified instances used throughout (each verified by hand before
being frozen here):

  * static block diag(-exp(2*x2), 1, 1) with potential x1: scalar
    curvature -2, expanding, residual exactly zero.
  * product dt^2 + exp(2t) (dp^2 + dq^2) with potential t, mu = -1,
    lambda = -7: quasi structure with non-constant warping.
  * flat line with potential -ln(s), mu = 1, lambda = 0: the smallest
    exact quasi structure, used for the substitution checks.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from solitonlab import (
    MetricField,
    NonPositiveWarpingError,
    SolitonData,
    StaticSpec,
    WarpedProductSpec,
    assemble_warped_metric,
    classify,
    coordinate_field,
    exp as field_exp,
    flat_metric,
    gqy_residual,
    infer_lambda,
    ln as field_ln,
    parse_expression,
    point_geometry,
    residual_report,
    sphere_metric,
    static_system_residual,
    theta_check,
    theta_substitution,
    warped_conditions_check,
)

from solitonlab.curvature import curvature_over

from conftest import random_field, random_metric_rows


def _static_instance():
    fiber = flat_metric(("x1", "x2"))
    lapse = field_exp(coordinate_field(("x1", "x2"), "x2"))
    metric = assemble_warped_metric(StaticSpec(lapse, fiber))
    potential = coordinate_field(("x1", "x2"), "x1").with_chart(metric.chart)
    return metric, potential


def test_certified_static_instance_has_zero_residual():
    metric, potential = _static_instance()
    soliton = SolitonData(potential, -2.0)
    for point in ([0.0, 0.3, -0.5], [0.4, -0.2, 0.8]):
        res = gqy_residual(metric, soliton, np.array(point))
        assert np.abs(res).max() < 1e-13


def test_residual_is_invariant_under_potential_shifts():
    metric, potential = _static_instance()
    shifted = potential + 17.5
    p = np.array([0.1, 0.5, -0.3])
    a = gqy_residual(metric, SolitonData(potential, -2.0), p)
    b = gqy_residual(metric, SolitonData(shifted, -2.0), p)
    assert np.abs(a - b).max() < 1e-12


def test_quasi_residual_with_zero_coupling_matches_plain_residual():
    metric, potential = _static_instance()
    p = np.array([0.2, -0.4, 0.6])
    lam = -1.3
    geometry = point_geometry(metric, potential, [p])
    plain = geometry.hess[0] - (geometry.scal[0] - lam) * geometry.g[0]
    quasi = gqy_residual(metric, SolitonData(potential, lam, mu=0.0), p)
    assert np.array_equal(plain, quasi)


def test_wrong_lambda_leaves_a_residual():
    metric, potential = _static_instance()
    res = gqy_residual(metric, SolitonData(potential, 0.0), (0.0, 0.3, -0.5))
    assert np.abs(res).max() > 0.1


def test_infer_lambda_recovers_the_certified_value():
    metric, potential = _static_instance()
    pts = [np.array([t, a, b]) for t in (0.0, 0.5) for a in (-0.3, 0.4)
           for b in (-0.6, 0.2)]
    estimate = infer_lambda(metric, potential, pts)
    assert abs(estimate.value + 2.0) < 1e-12
    assert estimate.spread < 1e-12
    assert len(estimate.samples) == len(pts)


def _close(got, want):
    """|got - want| <= 1e-9 max|want|, entrywise."""
    return np.abs(np.asarray(got) - want).max() <= 1e-9 * np.abs(want).max()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
def test_scaling_the_metric_keeps_the_hessian_and_divides_scal_and_lambda(
        seed, c):
    """g -> c g with c > 0 leaves the Christoffel symbols, hence the
    covariant hessian, as they are, and divides the scalar curvature,
    the laplacian and |dphi|^2, hence every lambda sample, by c."""
    chart = ("u", "v", "w")
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, (4, 3))
    rows = random_metric_rows(rng, chart, points, depth=2)
    potential = random_field(rng, chart, points)[0]
    metric = MetricField.from_rows(chart, rows, "+++")
    scaled = MetricField.from_rows(
        chart, [[c * f for f in row] for row in metric.components], "+++")
    plain = point_geometry(metric, potential, points)
    geometry = point_geometry(scaled, potential, points)
    assert _close(geometry.hess, plain.hess)
    assert _close(c * geometry.scal, plain.scal)
    want = plain.lambda_estimate(0.5)
    got = geometry.lambda_estimate(0.5)
    assert _close(c * got.samples, want.samples)
    assert abs(c * got.value - want.value) \
        <= 1e-9 * np.abs(want.samples).max()


def _pulled_back(text, chart, new_chart, A):
    """The expression text with each chart coordinate x_i replaced by
    (A y)_i over the new chart's coordinates y."""
    rows = {name: "(" + " + ".join(f"({a!r})*{y}" for a, y in zip(row, new_chart))
            + ")" for name, row in zip(chart, A.tolist())}
    return re.sub(r"\b(" + "|".join(chart) + r")\b",
                  lambda m: rows[m.group(1)], text)


def _close_to(got, want, scale):
    """|got - want| <= 1e-8 max|scale|, entrywise."""
    return np.abs(got - want).max() <= 1e-8 * np.abs(scale).max()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9))
def test_a_linear_change_of_chart_maps_the_tensors_and_keeps_the_invariants(
        seed, entries):
    """Under x = A y, A constant and invertible, the pulled-back metric
    is A^T g(A y) A and the potential phi(A y); g, Ric and Hess phi map
    as A^T T A, and scal and every lambda sample stay as they are.  Both
    charts go from expression texts through the whole pass."""
    A = np.array(entries).reshape(3, 3)
    assume(np.linalg.cond(A) < 20.0)
    chart, new_chart = ("u", "v", "w"), ("y1", "y2", "y3")
    rng = np.random.default_rng(seed)
    ys = rng.uniform(-1.0, 1.0, (4, 3))
    xs = ys @ A.T
    rows = random_metric_rows(rng, chart, xs, depth=2)
    potential = str(random_field(rng, chart, xs)[0])
    texts = [[_pulled_back(text, chart, new_chart, A) for text in row]
             for row in rows]
    pulled = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            pulled[i][j] = pulled[j][i] = " + ".join(
                f"({float(A[k, i] * A[l, j])!r})*({texts[k][l]})"
                for k in range(3) for l in range(3))
    metric = MetricField.from_rows(chart, rows, "+++")
    metric_y = MetricField.from_rows(new_chart, pulled, "+++")
    potential_y = _pulled_back(potential, chart, new_chart, A)

    def mapped(t):
        return np.einsum("ki,pkl,lj->pij", A, t, A)

    curv = curvature_over(metric, xs)
    curv_y = curvature_over(metric_y, ys)
    assert _close_to(curv_y.g, mapped(curv.g), curv_y.g)
    assert _close_to(curv_y.ricci, mapped(curv.ricci), curv_y.ricci)
    assert _close_to(curv_y.scalar, curv.scalar, curv.scalar)
    plain = point_geometry(metric, parse_expression(potential, chart), xs)
    geometry = point_geometry(
        metric_y, parse_expression(potential_y, new_chart), ys)
    assert _close_to(geometry.hess, mapped(plain.hess), geometry.hess)
    assert _close_to(geometry.scal, plain.scal, plain.scal)
    want = plain.lambda_estimate(0.5).samples
    assert _close_to(geometry.lambda_estimate(0.5).samples, want, want)


def test_classify_thresholds():
    assert classify(0.5) == "shrinking"
    assert classify(-0.5) == "expanding"
    assert classify(0.0) == "steady"
    assert classify(5e-9, tol=1e-8) == "steady"
    assert classify(2e-8, tol=1e-8) == "shrinking"


def test_residual_report_invariants():
    metric, potential = _static_instance()
    pts = [np.array([0.0, 0.3, -0.5]), np.array([0.4, -0.2, 0.8])]
    good = residual_report(metric, SolitonData(potential, -2.0), pts, tol=1e-8)
    assert good.passed
    assert good.max_abs >= good.mean_abs >= 0.0
    assert len(good.residual_grids) == 2
    bad = residual_report(metric, SolitonData(potential, 0.0), pts, tol=1e-8)
    assert not bad.passed
    assert bad.max_abs > 1e-8
    assert bad.worst_point is not None
    with pytest.raises(ValueError):
        residual_report(metric, SolitonData(potential, -2.0), pts, tol=0.0)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        residual_report(metric, SolitonData(potential, -2.0), pts, tol=np.nan)


def test_smallest_quasi_instance_and_substitution():
    metric = flat_metric(("s",), "+")
    potential = -field_ln(coordinate_field(("s",), "s"))
    soliton = SolitonData(potential, 0.0, mu=1.0)
    for s in (0.5, 1.0, 2.0):
        assert np.abs(gqy_residual(metric, soliton, (s,))).max() < 1e-13
        check = theta_check(metric, soliton, (s,))
        assert np.abs(check.theta_residual).max() < 1e-13
        assert np.abs(check.identity_residual).max() < 1e-13
    bad = theta_check(metric, SolitonData(potential, 1.0, mu=1.0), (1.5,))
    assert np.abs(bad.theta_residual).max() > 0.1


def test_substitution_identity_holds_for_arbitrary_fields():
    metric = sphere_metric(1.3)
    rng = np.random.default_rng(31)
    pts = rng.uniform(0.4, 2.2, (6, 2))
    worst = 0.0
    for _ in range(20):
        field, _ = random_field(rng, ("u", "v"), pts, depth=2, bound=50.0)
        mu = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        lam = rng.uniform(-1.0, 1.0)
        soliton = SolitonData(field, lam, mu=mu)
        for p in pts[:3]:
            check = theta_check(metric, soliton, p)
            worst = max(worst, np.abs(check.identity_residual).max())
    assert worst < 1e-9


def test_substitution_requires_nonzero_coupling():
    potential = coordinate_field(("s",), "s")
    with pytest.raises(ValueError):
        theta_substitution(potential, 0.0)


def test_substitution_value():
    potential = coordinate_field(("s",), "s")
    theta = theta_substitution(potential, 0.5)
    assert abs(theta((1.2,)) - np.exp(-0.6)) < 1e-15


def _warped_quasi_instance():
    base = flat_metric(("t",), "+")
    fiber = flat_metric(("p", "q"))
    warping = field_exp(coordinate_field(("t",), "t"))
    spec = WarpedProductSpec(base, fiber, warping)
    metric = assemble_warped_metric(spec)
    potential = coordinate_field(("t",), "t").with_chart(metric.chart)
    return base, fiber, warping, metric, potential


def test_certified_warped_quasi_instance():
    base, fiber, warping, metric, potential = _warped_quasi_instance()
    soliton = SolitonData(potential, -7.0, mu=-1.0)
    for t in (-0.5, 0.0, 0.5):
        res = gqy_residual(metric, soliton, (t, 0.3, -0.2))
        assert np.abs(res).max() < 1e-12


def test_warped_conditions_on_the_certified_instance():
    base, fiber, warping, metric, potential = _warped_quasi_instance()
    soliton = SolitonData(potential, -7.0, mu=-1.0)
    conditions = warped_conditions_check(
        base, fiber, warping, soliton,
        [(-0.5,), (0.0,), (0.5,)], [(0.3, -0.2), (0.1, 0.4)],
    )
    assert conditions.max_gap() < 1e-9
    assert conditions.pairing_min_abs > 0.3


def test_warped_conditions_detect_fiber_dependence():
    base, fiber, warping, metric, potential = _warped_quasi_instance()
    leaking = potential + coordinate_field(metric.chart, "p")
    soliton = SolitonData(leaking, -7.0, mu=-1.0)
    conditions = warped_conditions_check(
        base, fiber, warping, soliton, [(0.0,), (0.5,)], [(0.3, -0.2)],
    )
    assert conditions.fiber_dependence > 0.5


def test_warped_conditions_reject_zero_coupling_and_bad_warping():
    base, fiber, warping, metric, potential = _warped_quasi_instance()
    with pytest.raises(ValueError):
        warped_conditions_check(
            base, fiber, warping, SolitonData(potential, 0.0, mu=0.0),
            [(0.0,)], [(0.3, -0.2)],
        )
    sign_flipping = parse_expression("t", ("t",))
    with pytest.raises(NonPositiveWarpingError):
        warped_conditions_check(
            base, fiber, sign_flipping,
            SolitonData(potential, 0.0, mu=1.0),
            [(-0.5,), (0.5,)], [(0.3, -0.2)],
        )


def test_soliton_data_validates_inputs():
    potential = coordinate_field(("s",), "s")
    with pytest.raises(ValueError):
        SolitonData(potential, float("nan"))
    with pytest.raises(ValueError):
        SolitonData(potential, 0.0, mu=float("inf"))


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def test_fields_sharing_one_curvature_pass_keep_the_bits_of_separate_passes():
    # theta_check and static_system_residual run curvature_over once for
    # two fields, and warped_conditions_check reads the fiber's scalar
    # curvature from curvature_over alone.  Each must equal what a full
    # point_geometry pass per field gives, bit for bit.
    rng = np.random.default_rng(5)
    chart = ("u", "v")
    probes = rng.uniform(0.3, 1.2, (3, 2))
    fiber = MetricField.from_rows(chart, random_metric_rows(rng, chart, probes),
                                  "++")
    lapse = parse_expression("2 + 0.5*sin(u*v)", chart)
    spec = StaticSpec(lapse, fiber)
    for point in probes:
        field, _ = random_field(rng, chart, probes, depth=2, bound=20.0)
        soliton = SolitonData(field, 0.4, mu=0.7)
        m = 1.0 / soliton.mu
        phi = point_geometry(fiber, field, [point])
        th = point_geometry(fiber, theta_substitution(field, soliton.mu), [point])
        theta_value = theta_substitution(field, soliton.mu)(point)
        want_theta = (th.hess[0] + (theta_value / m)
                      * (th.scal[0] - soliton.lam) * th.g[0])
        want_identity = (phi.hess[0] - np.outer(phi.dphi[0], phi.dphi[0]) / m
                         + (m / theta_value) * th.hess[0])
        check = theta_check(fiber, soliton, point)
        assert _bits(check.theta_residual) == _bits(want_theta)
        assert _bits(check.identity_residual) == _bits(want_identity)

        lap = point_geometry(fiber, lapse, [point])
        lapse_value = lapse(point)
        scal = float(phi.scal[0] - 2.0 * lap.lap[0] / lapse_value)
        pairing = float(np.einsum("ij,i,j->", phi.g_inv[0], phi.dphi[0],
                                  lap.dphi[0]))
        want = (pairing - (scal - 0.4) * lapse_value,
                phi.hess[0] - (scal - 0.4) * phi.g[0],
                float(phi.lap[0]) - (2 / lapse_value) * pairing)
        got = static_system_residual(spec, field, 0.4, point)
        assert [_bits(x) for x in got] == [_bits(x) for x in want]

    base = flat_metric(("t",), "+")
    warping = field_exp(coordinate_field(("t",), "t"))
    metric = assemble_warped_metric(WarpedProductSpec(base, fiber, warping))
    potential = coordinate_field(("t",), "t").with_chart(metric.chart)
    conditions = warped_conditions_check(
        base, fiber, warping, SolitonData(potential, -7.0, mu=-1.0),
        [(0.0,), (0.5,)], probes)
    scal = point_geometry(fiber, parse_expression("0", chart), probes).scal
    spread = float(np.max(np.abs(scal - scal.mean())))
    assert _bits(conditions.fiber_scalar_spread) == _bits(spread)
