"""Acceptance criteria.

Each test covers one numbered criterion and writes a single visible
"criterion N (...): PASS/FAIL" line to the real stdout so the run log
always carries the verdict, whether or not pytest captures output.
All tolerances are stated inline; nothing is derived from the library
under test except the quantities being checked.
"""

import json
from pathlib import Path

import numpy as np

from solitonlab import (
    SolitonData,
    constant_field,
    curvature_at,
    flat_metric,
    infer_lambda,
    metric_at,
    parse_expression,
    point_geometry,
    residual_report,
    sphere_metric,
)
from solitonlab.cli import main as cli_main
from solitonlab.families import (
    GRWSpec,
    StaticSpec,
    Walker3Construction,
    Walker3Spec,
    Walker4Spec,
    WarpedProductSpec,
    assemble_warped_metric,
    grw_potential_field,
    grw_samples,
    walker3_construct,
    walker3_metric,
    walker4_construct,
    walker4_metric,
)

from conftest import random_field, static_system_residual, theta_residuals
from jet_oracles import (finite_diff_jet2, walker3_closed_forms,
                         walker4_closed_forms)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _verdict(capsys, number: int, description: str, ok: bool) -> bool:
    line = f"criterion {number} ({description}): {'PASS' if ok else 'FAIL'}"
    with capsys.disabled():
        print(line, flush=True)
    return ok


def test_criterion_1_jets_match_finite_differences_on_random_expressions(capsys):
    rng = np.random.default_rng(101)
    chart = ("u", "v", "w")
    worst = 0.0
    for _ in range(50):
        pts = rng.uniform(-1.5, 1.5, (20, 3))
        field, jets = random_field(rng, chart, pts)
        for p, jet in zip(pts, jets):
            fd = finite_diff_jet2(field, p, h=1e-4)
            scale = max(
                1.0,
                abs(jet.value),
                np.abs(jet.gradient).max(),
                np.abs(jet.hessian).max(),
            )
            err = max(
                abs(fd.value - jet.value),
                np.abs(fd.gradient - jet.gradient).max(),
                np.abs(fd.hessian - jet.hessian).max(),
            )
            worst = max(worst, (err - 1e-8) / scale)
    ok = worst <= 1e-6
    assert _verdict(
        capsys, 1, "second-order jets agree with finite differences", ok
    ), f"worst relative disagreement {worst:.3e} exceeds 1e-6"


def test_criterion_2_constant_curvature_references(capsys):
    p = np.array([np.pi / 4, 0.3])
    tau_unit = curvature_at(sphere_metric(1.0), p).scalar
    tau_double = curvature_at(sphere_metric(2.0), p).scalar
    flat3 = flat_metric(("a", "b", "c"), "-++")
    tau_flat = curvature_at(flat3, np.array([0.4, -0.7, 1.1])).scalar
    ok = (
        abs(tau_unit - 2.0) <= 1e-8
        and abs(tau_double - 0.5) <= 1e-8
        and abs(tau_flat) <= 1e-12
    )
    assert _verdict(
        capsys, 2, "sphere and flat scalar curvature", ok), (
        f"unit sphere {tau_unit!r}, radius-two sphere {tau_double!r}, "
        f"flat {tau_flat!r}"
    )


def test_criterion_3_closed_form_tables_match_the_generic_pipeline(capsys):
    rng = np.random.default_rng(103)
    worst = 0.0
    count3 = 0
    while count3 < 100:
        q, _ = random_field(rng, ("t", "x", "y"),
                            rng.uniform(-1, 1, (2, 3)), depth=2, bound=20.0)
        f, _ = random_field(rng, ("t", "x", "y"),
                            rng.uniform(-1, 1, (2, 3)), depth=2, bound=20.0)
        spec = Walker3Spec(q)
        metric = walker3_metric(spec)
        p = rng.uniform(-1.0, 1.0, 3)
        geometry = point_geometry(metric, f, [p])
        hess_closed, lap_closed = walker3_closed_forms(spec, f, p)
        worst = max(
            worst,
            np.abs(geometry.hess[0] - hess_closed).max(),
            abs(geometry.lap[0] - lap_closed),
        )
        count3 += 1
    count4 = 0
    while count4 < 100:
        p = rng.uniform(-1.0, 1.0, 4)
        warping, _ = random_field(rng, ("t",), [p[3:4]], depth=2, bound=20.0)
        f, _ = random_field(rng, ("x", "y", "z", "t"), [p], depth=2,
                            bound=20.0)
        spec = Walker4Spec(warping)
        metric = walker4_metric(spec)
        geometry = point_geometry(metric, f, [p])
        hess_closed, lap_closed = walker4_closed_forms(spec, f, p)
        worst = max(
            worst,
            np.abs(geometry.hess[0] - hess_closed).max(),
            abs(geometry.lap[0] - lap_closed),
        )
        count4 += 1
    ok = worst <= 1e-9
    assert _verdict(
        capsys, 3, "null-slice hessian and laplacian closed forms", ok
    ), f"worst deviation {worst:.3e} exceeds 1e-9"


def test_criterion_4_3d_construction_certifies_and_literal_variant_fails(capsys):
    eta = parse_expression("exp(y)", ("y",))
    zeta = constant_field(("x", "y"), 0.0)
    construction = Walker3Construction(1.0, eta, zeta)
    f, q = walker3_construct(
        construction, check_points=np.linspace(-1.0, 1.0, 9)
    )
    metric = walker3_metric(Walker3Spec(q))
    rng = np.random.default_rng(104)
    pts = rng.uniform(-1.0, 1.0, (20, 3))
    estimate = infer_lambda(metric, f, pts)
    report = residual_report(
        metric, SolitonData(f, estimate.value), pts, tol=1e-9
    )
    lap = point_geometry(metric, f, pts).lap
    f_lit, q_lit = walker3_construct(construction, paper_literal=True)
    metric_lit = walker3_metric(Walker3Spec(q_lit))
    report_lit = residual_report(
        metric_lit, SolitonData(f_lit, 0.0),
        [np.array([0.5, 0.2, -1.0])], tol=1e-9,
    )
    ok = (
        report.passed
        and estimate.spread <= 1e-9
        and np.abs(lap - lap.mean()).max() <= 1e-9
        and report_lit.max_abs > 0.1
    )
    assert _verdict(
        capsys, 4, "3d construction certifies, literal form does not", ok
    ), (
        f"residual {report.max_abs:.3e}, spread {estimate.spread:.3e}, "
        f"literal residual {report_lit.max_abs:.3e}"
    )


def test_criterion_5_4d_construction_certifies_and_literal_variant_fails(capsys):
    spec = Walker4Spec(constant_field(("t",), 1.0), 1.0, 1.0, 1.0, 1.0, 0.0)
    f = walker4_construct(spec)
    metric = walker4_metric(spec)
    rng = np.random.default_rng(105)
    pts = rng.uniform(-1.0, 1.0, (20, 4))
    estimate = infer_lambda(metric, f, pts)
    report = residual_report(
        metric, SolitonData(f, estimate.value), pts, tol=1e-9
    )
    lap = point_geometry(metric, f, pts).lap

    degenerate = Walker4Spec(
        parse_expression("1 + 0.5*sin(t)", ("t",)), 0.0, 2.0, 0.7, 0.3, 0.0
    )
    f0 = walker4_construct(degenerate)
    metric0 = walker4_metric(degenerate)
    estimate0 = infer_lambda(metric0, f0, pts)
    report0 = residual_report(
        metric0, SolitonData(f0, estimate0.value), pts, tol=1e-9
    )
    lap0 = point_geometry(metric0, f0, pts).lap

    f_lit = walker4_construct(spec, paper_literal=True)
    report_lit = residual_report(
        metric, SolitonData(f_lit, -1.0), [pts[0]], tol=1e-9
    )
    ok = (
        report.passed
        and abs(lap.mean() - 4.0) <= 1e-9
        and np.abs(lap - lap.mean()).max() <= 1e-9
        and abs(estimate.value + 1.0) <= 1e-9
        and report0.passed
        and abs(lap0.mean()) <= 1e-9
        and abs(estimate0.value) <= 1e-9
        and report_lit.max_abs > 0.1
    )
    assert _verdict(
        capsys, 5, "4d construction certifies, literal form does not", ok
    ), (
        f"laplacian {lap.mean()!r}, residual {report.max_abs:.3e}, "
        f"degenerate laplacian {lap0.mean()!r}, "
        f"literal residual {report_lit.max_abs:.3e}"
    )


def test_criterion_6_linear_cosmological_warping(capsys):
    spec = GRWSpec(
        parse_expression("t", ("t",)),
        flat_metric(("x1", "x2", "x3")), (1.0, 2.0),
    )
    metric = assemble_warped_metric(spec)
    rng = np.random.default_rng(106)
    pts = [np.concatenate([[t], rng.uniform(-1.0, 1.0, 3)])
           for t in np.linspace(1.0, 2.0, 5)]
    potential = grw_potential_field(spec, -6.0, 1.0).with_chart(metric.chart)
    mu = 1.0 / 3.0
    estimate = infer_lambda(metric, potential, pts, mu)
    report = residual_report(
        metric, SolitonData(potential, estimate.value, mu), pts, tol=1e-8
    )
    identity_worst = 0.0
    for source, interval in (
        ("t", (1.0, 2.0)),
        ("1 + 0.5*sin(t)", (0.0, 3.0)),
        ("exp(0.3*t)", (0.0, 2.0)),
    ):
        sweep_spec = GRWSpec(
            parse_expression(source, ("t",)),
            flat_metric(("x1", "x2", "x3")), interval,
        )
        sweep_metric = assemble_warped_metric(sweep_spec)
        times = np.linspace(interval[0] + 0.2, interval[1] - 0.1, 4)
        for alpha in (-6.0, 0.5, 3.0):
            sweep_potential = grw_potential_field(
                sweep_spec, alpha, interval[0] + 0.1
            )
            samples = grw_samples(sweep_spec, sweep_metric, sweep_potential,
                                  times)
            r3 = samples.residual(0.0)[:, 2]
            identity_worst = max(identity_worst, np.abs(r3).max())
    ok = (
        estimate.spread <= 1e-8
        and report.passed
        and identity_worst <= 1e-9
    )
    assert _verdict(
        capsys, 6, "linear warping admits a quasi potential", ok
    ), (
        f"spread {estimate.spread:.3e}, residual {report.max_abs:.3e}, "
        f"identity {identity_worst:.3e}"
    )


def test_criterion_7_substitution_recasts_and_identity(capsys):
    # Two passes of the geometry, of phi and of theta = exp(-mu phi):
    # theta's equation holds where the coupled one does, and the
    # two-hessian identity holds for every potential.
    worst_recast = 0.0
    grw_spec = GRWSpec(
        parse_expression("t", ("t",)),
        flat_metric(("x1", "x2", "x3")), (1.0, 2.0),
    )
    grw_metric = assemble_warped_metric(grw_spec)
    grw_potential = grw_potential_field(grw_spec, -6.0, 1.0).with_chart(
        grw_metric.chart
    )
    grw_soliton = SolitonData(grw_potential, 0.0, mu=1.0 / 3.0)
    rng = np.random.default_rng(107)
    grw_pts = [np.concatenate([rng.uniform(1.05, 1.95, 1), rng.uniform(-1, 1, 3)])
               for _ in range(5)]
    warped_spec = WarpedProductSpec(
        flat_metric(("t",), "+"),
        flat_metric(("p", "q")),
        parse_expression("exp(t)", ("t",)),
    )
    warped_metric = assemble_warped_metric(warped_spec)
    warped_potential = parse_expression("t", warped_metric.chart)
    warped_soliton = SolitonData(warped_potential, -7.0, mu=-1.0)
    line = flat_metric(("s",), "+")
    line_potential = parse_expression("0 - ln(s)", ("s",))
    line_soliton = SolitonData(line_potential, 0.0, mu=1.0)
    for metric, soliton, pts in (
        (grw_metric, grw_soliton, grw_pts),
        (warped_metric, warped_soliton,
         [(t, 0.3, -0.2) for t in (-0.5, 0.0, 0.5)]),
        (line, line_soliton, [(0.5,), (1.0,), (2.0,)]),
    ):
        substituted, identity = theta_residuals(metric, soliton, pts)
        worst_recast = max(worst_recast, np.abs(substituted).max(),
                           np.abs(identity).max())
    worst_identity = 0.0
    sphere = sphere_metric(1.3)
    pts = rng.uniform(0.4, 2.2, (6, 2))
    for _ in range(50):
        field, _ = random_field(rng, ("u", "v"), pts, depth=2, bound=50.0)
        mu = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        soliton = SolitonData(field, rng.uniform(-1.0, 1.0), mu=mu)
        _, identity = theta_residuals(sphere, soliton, pts[:2])
        worst_identity = max(worst_identity, np.abs(identity).max())
    ok = worst_recast <= 1e-9 and worst_identity <= 1e-9
    assert _verdict(
        capsys, 7, "exponential substitution equivalence and identity", ok
    ), (
        f"recast residual {worst_recast:.3e}, "
        f"identity residual {worst_identity:.3e}"
    )


def test_criterion_8_static_system_with_inferred_constant(capsys):
    fiber = flat_metric(("x1", "x2"))
    lapse = parse_expression("exp(x2)", ("x1", "x2"))
    spec = StaticSpec(lapse, fiber)
    metric = assemble_warped_metric(spec)
    potential_fiber = parse_expression("x1", ("x1", "x2"))
    potential_full = potential_fiber.with_chart(metric.chart)
    rng = np.random.default_rng(108)
    pts = [np.concatenate([[t], xy])
           for t in (-0.5, 0.5)
           for xy in rng.uniform(-0.9, 0.9, (4, 2))]
    estimate = infer_lambda(metric, potential_full, pts)
    worst_system = 0.0
    for point in rng.uniform(-0.9, 0.9, (6, 2)):
        r1, r2, r3 = static_system_residual(
            spec, potential_fiber, estimate.value, point
        )
        worst_system = max(worst_system, abs(r1), np.abs(r2).max(), abs(r3))
    worst_trace = 0.0
    s = fiber.dimension
    for _ in range(10):
        probe, _ = random_field(rng, ("x1", "x2"),
                                rng.uniform(-0.9, 0.9, (3, 2)),
                                depth=2, bound=50.0)
        lam = rng.uniform(-2.0, 2.0)
        for point in rng.uniform(-0.9, 0.9, (3, 2)):
            r1, r2, r3 = static_system_residual(spec, probe, lam, point)
            data = metric_at(fiber, point)
            trace_r2 = float(np.einsum("ij,ij->", data.g_inv, r2))
            gap = r3 - (trace_r2 - (s / lapse(point)) * r1)
            worst_trace = max(worst_trace, abs(gap))
    ok = (
        estimate.spread <= 1e-8
        and worst_system <= 1e-8
        and worst_trace <= 1e-9
    )
    assert _verdict(
        capsys, 8, "static system residuals and trace identity", ok
    ), (
        f"spread {estimate.spread:.3e}, system {worst_system:.3e}, "
        f"trace {worst_trace:.3e}"
    )


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path, capsys):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    code_pass = cli_main([
        "construct", str(CONFIGS / "walker4_certified.json"),
        "--out", str(first),
    ])
    code_pass_again = cli_main([
        "construct", str(CONFIGS / "walker4_certified.json"),
        "--out", str(second),
    ])
    identical = first.read_bytes() == second.read_bytes()
    code_fail = cli_main([
        "verify", str(CONFIGS / "walker4_verify_fail.json"),
        "--out", str(tmp_path / "fail.csv"),
    ])
    broken = tmp_path / "broken.json"
    broken.write_text(
        json.dumps({"family": "walker4", "warping": "1", "mystery": True}),
        encoding="utf-8",
    )
    code_config = cli_main(["verify", str(broken)])
    capsys.readouterr()
    ok = (
        code_pass == 0
        and code_pass_again == 0
        and identical
        and code_fail == 1
        and code_config == 2
    )
    assert _verdict(
        capsys, 9, "command line determinism and exit codes", ok), (
        f"exit codes {code_pass}/{code_pass_again}/{code_fail}/{code_config}, "
        f"byte-identical {identical}"
    )
