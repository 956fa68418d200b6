"""Command line behavior: exit codes, report format, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from solitonlab.cli import CONSTANT_KEYS, DEFAULT_TOLERANCE, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
USAGE_TEXTS = Path(__file__).resolve().parent / "cli_usage_texts.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_curvature_flat_reports_zero(tmp_path, capsys):
    out = tmp_path / "flat.csv"
    code, stdout, _ = run(
        capsys, "curvature", f"{CONFIGS}/flat_curvature.json", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "#schema=1"
    assert lines[1] == "a,b,tau,ricci_a_a,ricci_a_b,ricci_b_b"
    assert len(lines) == 2 + 9
    for line in lines[2:]:
        cells = [float(c) for c in line.split(",")]
        assert all(abs(c) < 1e-12 for c in cells[2:])


def test_curvature_sphere_scalar_column(tmp_path, capsys):
    out = tmp_path / "sphere.csv"
    code, _, _ = run(
        capsys, "curvature", f"{CONFIGS}/sphere_curvature.json",
        "--out", str(out),
    )
    assert code == 0
    rows = out.read_text(encoding="utf-8").splitlines()[2:]
    taus = {float(line.split(",")[2]) for line in rows}
    assert all(abs(t - 0.5) < 1e-10 for t in taus)


def test_verify_pass_line_and_exit_zero(tmp_path, capsys):
    out = tmp_path / "static.csv"
    code, stdout, _ = run(
        capsys, "verify", f"{CONFIGS}/static_verify.json", "--out", str(out)
    )
    assert code == 0
    assert stdout.startswith("PASS lambda=-2.000000000000e+00 class=expanding")
    header = out.read_text(encoding="utf-8").splitlines()[1]
    assert header == "t,x1,x2,residual_max,tau,lap_potential,lambda_point"


def test_verify_quasi_coupled_potential(tmp_path, capsys):
    out = tmp_path / "quasi.csv"
    code, stdout, _ = run(
        capsys, "verify", f"{CONFIGS}/grw_gqy_verify.json", "--out", str(out)
    )
    assert code == 0
    assert stdout.startswith("PASS lambda=0.000000000000e+00 class=steady")


def test_verify_fail_prints_residual_and_exits_one(tmp_path, capsys):
    out = tmp_path / "fail.csv"
    code, stdout, _ = run(
        capsys, "verify", f"{CONFIGS}/walker4_verify_fail.json",
        "--out", str(out),
    )
    assert code == 1
    assert stdout.startswith("FAIL max_residual=1.000000000000e+00 at ")


def test_construct_linear_warping_passes(tmp_path, capsys):
    out = tmp_path / "grw.csv"
    code, stdout, _ = run(
        capsys, "construct", f"{CONFIGS}/grw_construct.json", "--out", str(out)
    )
    assert code == 0
    assert stdout.startswith("PASS lambda=")
    assert "class=steady" in stdout
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "#schema=1"
    assert lines[1].startswith("#potential_slope=")
    assert "t,potential,r1,r2,r3" in lines


def test_construct_null_slice_family(tmp_path, capsys):
    out = tmp_path / "w3.csv"
    code, stdout, _ = run(
        capsys, "construct", f"{CONFIGS}/walker3_certified.json",
        "--out", str(out),
    )
    assert code == 0
    assert stdout.startswith("PASS lambda=0.000000000000e+00 class=steady")
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "#f=x + exp(y)"
    assert lines[2] == "#metric_function=-2*t"


def test_construct_4d_family_and_literal_variant(tmp_path, capsys):
    out = tmp_path / "w4.csv"
    code, stdout, _ = run(
        capsys, "construct", f"{CONFIGS}/walker4_certified.json",
        "--out", str(out),
    )
    assert code == 0
    assert stdout.startswith("PASS lambda=-1.000000000000e+00 class=expanding")
    code_lit, stdout_lit, _ = run(
        capsys, "construct", f"{CONFIGS}/walker4_certified.json",
        "--paper-literal", "--out", str(tmp_path / "w4lit.csv"),
    )
    assert code_lit == 1
    assert stdout_lit.startswith("FAIL max_residual=1.000000000000e+00")


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        code, _, _ = run(
            capsys, "construct", f"{CONFIGS}/walker4_certified.json",
            "--out", str(target),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for target in (c, d):
        code, _, _ = run(
            capsys, "verify", f"{CONFIGS}/static_verify.json",
            "--out", str(target),
        )
        assert code == 0
    assert c.read_bytes() == d.read_bytes()


def test_missing_out_prints_csv_to_stdout(capsys):
    code, stdout, _ = run(capsys, "curvature", f"{CONFIGS}/flat_curvature.json")
    assert code == 0
    assert stdout.startswith("#schema=1\n")


def test_unknown_top_level_key_is_exit_two(tmp_path, capsys):
    path = write_config(tmp_path, {
        "family": "walker3", "metric_function": "t", "mystery": 1,
    })
    code, _, stderr = run(capsys, "curvature", path)
    assert code == 2
    assert "mystery" in stderr


def test_unknown_constants_key_is_exit_two(tmp_path, capsys):
    path = write_config(tmp_path, {
        "family": "walker3", "metric_function": "t",
        "constants": {"lambda": 0.0, "gamma": 1.0},
    })
    code, _, stderr = run(capsys, "curvature", path)
    assert code == 2
    assert "gamma" in stderr


def test_malformed_json_is_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"family": "walker3"', encoding="utf-8")
    code, _, stderr = run(capsys, "curvature", str(path))
    assert code == 2
    assert "JSON" in stderr


def test_missing_file_is_exit_two(capsys):
    code, _, stderr = run(capsys, "curvature", "no/such/file.json")
    assert code == 2


def test_bad_expression_is_exit_two(tmp_path, capsys):
    path = write_config(tmp_path, {
        "family": "walker3", "metric_function": "t + * y",
    })
    code, _, stderr = run(capsys, "curvature", path)
    assert code == 2


def test_a_superscript_digit_is_exit_two_with_its_offset(tmp_path, capsys):
    path = write_config(tmp_path, {
        "family": "custom", "chart": ["x", "y"],
        "metric": [["2\u00b2", "0"], ["0", "1"]], "signature": "++",
    })
    code, _, stderr = run(capsys, "curvature", path)
    assert code == 2
    assert stderr == ("config error: metric: unexpected character "
                      "'\u00b2' (at offset 1)\n")


def test_grid_count_below_two_is_exit_two(tmp_path, capsys):
    path = write_config(tmp_path, {
        "family": "walker3", "metric_function": "t",
        "grid": {"t": [-1.0, 1.0, 1]},
    })
    code, _, stderr = run(capsys, "curvature", path)
    assert code == 2
    assert "count" in stderr


def test_verify_requires_a_potential(tmp_path, capsys):
    path = write_config(tmp_path, {
        "family": "walker3", "metric_function": "t",
    })
    code, _, stderr = run(capsys, "verify", path)
    assert code == 2
    assert "potential" in stderr


def test_construct_rejects_an_explicit_potential(tmp_path, capsys):
    path = write_config(tmp_path, {
        "family": "walker4", "warping": "1", "potential": "y*t",
    })
    code, _, stderr = run(capsys, "construct", path)
    assert code == 2


def test_construct_rejects_families_without_constructions(tmp_path, capsys):
    path = write_config(tmp_path, {
        "family": "custom", "chart": ["x"], "metric": [["1"]],
        "signature": "+", "grid": {"x": [0.0, 1.0, 2]},
    })
    code, _, stderr = run(capsys, "construct", path)
    assert code == 2


def test_numeric_failure_is_exit_three(tmp_path, capsys):
    path = write_config(tmp_path, {
        "family": "custom", "chart": ["x"], "metric": [["x"]],
        "signature": "+", "grid": {"x": [-1.0, 1.0, 3]},
    })
    code, _, stderr = run(capsys, "curvature", path)
    assert code == 3
    assert "numeric error" in stderr


def test_grid_flag_overrides_the_sample_count(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, _, _ = run(
        capsys, "curvature", f"{CONFIGS}/flat_curvature.json",
        "--grid", "2", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 + 4


def test_tol_flag_tightens_verification(tmp_path, capsys):
    payload = {
        "family": "walker4", "warping": "1",
        "potential": "x*z + y*t + 0.5*t^2 + 1e-5*x^2",
        "constants": {"lambda": -1.0},
    }
    path = write_config(tmp_path, payload)
    code_loose, stdout_loose, _ = run(
        capsys, "verify", path, "--tol", "1.0", "--out",
        str(tmp_path / "loose.csv"),
    )
    assert code_loose == 0
    code_tight, stdout_tight, _ = run(
        capsys, "verify", path, "--tol", "1e-8", "--out",
        str(tmp_path / "tight.csv"),
    )
    assert code_tight == 1


def test_paper_literal_is_rejected_by_curvature_and_verify(capsys):
    for command, name in (("verify", "grw_gqy_verify"),
                          ("curvature", "sphere_curvature")):
        with pytest.raises(SystemExit) as exc:
            main([command, f"{CONFIGS}/{name}.json", "--paper-literal"])
        assert exc.value.code == 2
        assert "--paper-literal" in capsys.readouterr().err


def test_paper_literal_is_rejected_by_the_grw_construction(tmp_path, capsys):
    code, stdout, stderr = run(
        capsys, "construct", f"{CONFIGS}/grw_construct.json",
        "--paper-literal", "--out", str(tmp_path / "grw.csv"),
    )
    assert code == 2
    assert stdout == ""
    assert "--paper-literal" in stderr


def test_tol_flag_is_rejected_by_curvature(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["curvature", f"{CONFIGS}/flat_curvature.json", "--tol", "5"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("tolerance", 5.0),
                                        ("potential", "a")])
def test_curvature_rejects_tolerance_and_potential_keys(tmp_path, capsys,
                                                        key, value):
    cfg = json.loads((CONFIGS / "flat_curvature.json").read_text())
    cfg[key] = value
    code, stdout, stderr = run(capsys, "curvature", write_config(tmp_path, cfg))
    assert code == 2
    assert stdout == ""
    assert f"'{key}'" in stderr


def test_curvature_rejects_constants(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "flat_curvature.json").read_text())
    cfg["constants"] = {"lambda": 5.0, "mu": 2.0}
    code, stdout, stderr = run(capsys, "curvature", write_config(tmp_path, cfg))
    assert code == 2
    assert stdout == ""
    assert "'constants'" in stderr


FLAT_XYZ = {"type": "flat", "chart": ["x1", "x2", "x3"]}

# One runnable job per command and family, without constants (the grw
# construction requires alpha), and the constants each one reads.
JOBS = {
    ("verify", "custom"): {
        "chart": ["x", "y"], "metric": [["1", "0"], ["0", "1"]],
        "signature": "++", "potential": "x",
        "grid": {"x": [0.0, 1.0, 2], "y": [0.0, 1.0, 2]},
    },
    ("verify", "warped"): {
        "base": {"chart": ["r"], "metric": [["1"]], "signature": "+"},
        "fiber": {"type": "flat", "chart": ["x"]}, "warping": "r",
        "potential": "r", "grid": {"r": [1.0, 2.0, 2]},
    },
    ("verify", "grw"): {
        "warping": "t", "interval": [1.0, 2.0], "fiber": FLAT_XYZ,
        "potential": "-6*ln(t)",
    },
    ("verify", "static"): {
        "lapse": "exp(x2)", "fiber": {"type": "flat", "chart": ["x1", "x2"]},
        "potential": "x1",
    },
    ("verify", "walker3"): {"metric_function": "t", "potential": "x"},
    ("verify", "walker4"): {"warping": "1", "potential": "y*t"},
    ("construct", "grw"): {
        "warping": "t", "interval": [1.0, 2.0], "fiber": FLAT_XYZ,
        "constants": {"alpha": 6.0},
    },
    ("construct", "walker3"): {"eta": "exp(y)", "zeta": "0"},
    ("construct", "walker4"): {"warping": "1"},
}
READS = {
    ("verify", family): {"lambda", "mu"}
    for family in ("custom", "warped", "grw", "static", "walker3", "walker4")
}
READS["construct", "grw"] = {"lambda", "alpha", "t0"}
READS["construct", "walker3"] = {"lambda", "mu", "kappa"}
READS["construct", "walker4"] = {"lambda", "mu", "c0", "c1", "c2", "c3", "t0"}


@pytest.mark.parametrize("key", CONSTANT_KEYS)
@pytest.mark.parametrize("command, family", sorted(JOBS))
def test_a_constant_is_accepted_only_where_the_command_reads_it(
        tmp_path, capsys, command, family, key):
    cfg = {"family": family, **JOBS[command, family]}
    cfg["constants"] = {**cfg.get("constants", {}), key: 1.0}
    code, stdout, stderr = run(
        capsys, command, write_config(tmp_path, cfg), "--grid", "2",
        "--out", str(tmp_path / "report.csv"),
    )
    if key in READS[command, family]:
        assert code in (0, 1), stderr
        assert stderr == ""
    else:
        assert code == 2
        assert stdout == ""
        assert f"'constants.{key}'" in stderr


@pytest.mark.parametrize("warping, t0", [("t", -1.0), ("t*t - 0.25", 0.0),
                                         ("t", -2.0)])
def test_grw_construction_over_a_non_positive_warping_is_exit_three(
        tmp_path, capsys, warping, t0):
    path = write_config(tmp_path, {
        "family": "grw", "warping": warping, "interval": [1.0, 2.0],
        "fiber": FLAT_XYZ, "constants": {"alpha": 6.0, "t0": t0},
    })
    code, stdout, stderr = run(
        capsys, "construct", path, "--out", str(tmp_path / "grw.csv"),
    )
    assert code == 3
    assert stdout == ""
    assert stderr.startswith("numeric error: warping is not positive at ")
    assert "Traceback" not in stderr


# A GRW job whose fiber has non-constant scalar curvature, -2/(2 + u^2):
# alpha makes lambda 0 at u = 1 only, so the reduced system holds at
# the first fiber point and fails at the others.
CURVED_FIBER = {
    "family": "grw", "warping": "t", "interval": [1.0, 2.0],
    "fiber": {"type": "custom", "chart": ["u", "v"],
              "metric": [["1", "0"], ["0", "(2 + u^2)^2"]],
              "signature": "++"},
    "grid": {"t": [1.0, 2.0, 5], "u": [1.0, 2.0, 3], "v": [0.0, 1.0, 3]},
    "constants": {"alpha": 0.6666666666666666, "t0": 1.0},
}


def test_grw_construction_checks_every_fiber_point_its_fiber_reads(
        tmp_path, capsys):
    # verify FAILs this soliton off u = 1; so does construct, which names
    # the worst point by t and u, the coordinate the fiber metric reads.
    code, stdout, stderr = run(
        capsys, "construct", write_config(tmp_path, CURVED_FIBER),
        "--out", str(tmp_path / "curved.csv"))
    assert (code, stdout, stderr) == (
        1, "FAIL max_residual=6.666666666667e-01 at (1, 2)\n", "")
    # The rows come from the first fiber point: the CSV is the one
    # recorded when construct checked that point alone, and PASSed, but
    # for noise digits of r1 and r3 since the potential is a tree over
    # an Integral node.
    assert hashlib.sha256((tmp_path / "curved.csv").read_bytes()).hexdigest() \
        == "68ae22e706e5f7cdc3d965db6bb2d171eb61bf511423441de613ecabf01e2dc0"


def test_grw_construction_over_a_sphere_fiber_still_passes(tmp_path, capsys):
    # de Sitter space, -dt^2 + cosh(t)^2 g_S2, with a constant potential.
    path = write_config(tmp_path, {
        "family": "grw", "warping": "(exp(t) + exp(0 - t))/2",
        "interval": [1.0, 2.0], "fiber": {"type": "sphere"},
        "constants": {"alpha": 0.0, "t0": 1.0},
    })
    code, stdout, stderr = run(capsys, "construct", path,
                               "--out", str(tmp_path / "sphere.csv"))
    assert (code, stdout, stderr) == (
        0, "PASS lambda=6.000000000000e+00 class=shrinking\n", "")


@pytest.mark.parametrize("warping, func", [
    ("2 + sin(t*1e308*10)", "sin"),
    ("2 + sin(1e308*10)", "sin"),
    ("2 + cos(t*1e308*10)", "cos"),
])
def test_sin_or_cos_of_an_infinite_argument_is_exit_three(tmp_path, capsys,
                                                          warping, func):
    path = write_config(tmp_path, {
        "family": "grw", "warping": warping, "interval": [1.0, 2.0],
        "fiber": FLAT_XYZ, "constants": {"alpha": 6.0, "t0": 1.0},
    })
    code, stdout, stderr = run(
        capsys, "construct", path, "--out", str(tmp_path / "grw.csv"),
    )
    assert code == 3
    assert stdout == ""
    assert stderr == f"numeric error: {func} of an infinite argument\n"


def _static_verify(**changes):
    cfg = json.loads((CONFIGS / "static_verify.json").read_text())
    return {**cfg, **changes}


@pytest.mark.parametrize("cfg, flags, message", [
    (_static_verify(tolerance=float("nan")), [], "tolerance must be finite"),
    (_static_verify(), ["--tol", "nan"], "--tol must be finite"),
    (_static_verify(potential="x1 + 5*x2"), ["--tol", "inf"],
     "--tol must be finite"),
    (_static_verify(constants={"lambda": float("nan")}), [],
     "constants.lambda must be finite"),
    (_static_verify(grid={"x1": [-1.0, float("inf"), 3]}), [],
     "grid.x1[1] must be finite"),
    ({"family": "grw", "warping": "t", "interval": [1.0, float("inf")],
      "fiber": {"type": "flat", "chart": ["x"]}, "potential": "t"}, [],
     "interval[1] must be finite"),
    (_static_verify(fiber={"type": "sphere", "radius": float("-inf")},
                    potential="u"), [], "fiber.radius must be finite"),
])
def test_a_non_finite_number_is_exit_two(tmp_path, capsys, cfg, flags,
                                         message):
    out = tmp_path / "report.csv"
    code, stdout, stderr = run(capsys, "verify", write_config(tmp_path, cfg),
                               *flags, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value, message", [
    ("-1e-3", "tolerance must be positive"),
    ("-inf", "--tol must be finite"),
])
def test_a_negative_tol_value_reaches_the_tolerance_checks(tmp_path, capsys,
                                                          value, message):
    path = write_config(tmp_path, _static_verify())
    out = tmp_path / "report.csv"
    spaced = run(capsys, "verify", path, "--tol", value, "--out", str(out))
    joined = run(capsys, "verify", path, f"--tol={value}", "--out", str(out))
    assert spaced == joined == (2, "", f"config error: {message}\n")
    assert not out.exists()


def test_help_and_usage_errors_keep_their_text(capsys, monkeypatch):
    # Recorded at 80 columns from the parser as it was built on every
    # call; it is now built once, so each case runs twice in a row.
    monkeypatch.setenv("COLUMNS", "80")
    for case in json.loads(USAGE_TEXTS.read_text(encoding="utf-8")):
        for _ in range(2):
            with pytest.raises(SystemExit) as caught:
                main(case["argv"])
            captured = capsys.readouterr()
            assert (caught.value.code, captured.out, captured.err) == (
                case["exit"], case["stdout"], case["stderr"]), case["argv"]


@pytest.mark.parametrize("text, key", [
    ('{"family": "static", "lapse": "exp(x2)", "fiber": {"type": "flat", '
     '"chart": ["x1", "x2"]}, "potential": "x1", "potential": "x1 + 5*x2", '
     '"constants": {"lambda": -2.0}}', "potential"),
    ('{"family": "static", "lapse": "exp(x2)", "fiber": {"type": "flat", '
     '"chart": ["x1", "x2"]}, "potential": "x1", '
     '"constants": {"lambda": -2.0, "lambda": 3.0}}', "lambda"),
    ('{"family": "static", "lapse": "exp(x2)", "potential": "x1", "fiber": '
     '{"type": "flat", "chart": ["x1", "x2"], "type": "flat"}}', "type"),
], ids=["top-level", "in-constants", "in-fiber"])
def test_a_repeated_key_is_exit_two(tmp_path, capsys, text, key):
    path = tmp_path / "job.json"
    path.write_text(text, encoding="utf-8")
    code, stdout, stderr = run(capsys, "verify", str(path),
                               "--out", str(tmp_path / "report.csv"))
    assert code == 2
    assert stdout == ""
    assert stderr == f"config error: {path} repeats the key '{key}'\n"


def test_a_grw_construction_with_a_wrong_lambda_fails_at_its_worst_time(
        tmp_path, capsys):
    # The construction's constant is 0; with lambda = 1 the residuals
    # are r1 = -1, r2 = t and r3 = 0, so the worst time is t = 2.  The
    # digest pins the report's bytes.
    cfg = json.loads((CONFIGS / "grw_construct.json").read_text())
    cfg["constants"]["lambda"] = 1.0
    out = tmp_path / "grw.csv"
    code, stdout, stderr = run(capsys, "construct",
                               write_config(tmp_path, cfg), "--out", str(out))
    assert code == 1
    assert stdout == "FAIL max_residual=2.000000000000e+00 at (2)\n"
    assert stderr == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9080c8f51a7b1723265a3b5930da239d441b3b58c4f72b6e0010d69cbf071feb")


def test_a_static_curvature_job_over_a_sphere_fiber(tmp_path, capsys):
    out = tmp_path / "sphere.csv"
    path = write_config(tmp_path, {
        "family": "static", "lapse": "1",
        "fiber": {"type": "sphere", "radius": 2},
    })
    code, _, stderr = run(capsys, "curvature", path, "--out", str(out))
    assert code == 0, stderr
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1].split(",")[:4] == ["t", "u", "v", "tau"]
    # -dt^2 + g_S2(r): the scalar curvature is the sphere's, 2/r^2.
    taus = [float(line.split(",")[3]) for line in lines[2:]]
    assert len(taus) == 125
    assert all(abs(tau - 0.5) < 1e-10 for tau in taus)


def test_a_custom_fiber_reports_as_the_flat_fiber_it_spells_out(tmp_path,
                                                                 capsys):
    flat = tmp_path / "flat.csv"
    code, flat_stdout, _ = run(capsys, "verify",
                               f"{CONFIGS}/static_verify.json",
                               "--out", str(flat))
    assert code == 0
    custom = tmp_path / "custom.csv"
    path = write_config(tmp_path, _static_verify(
        fiber={"type": "custom", "chart": ["x1", "x2"],
               "metric": [["1", "0"], ["0", "1"]], "signature": "++"},
        grid={"x1": [-1, 1, 5], "x2": [-1, 1, 5]},
    ))
    code, stdout, stderr = run(capsys, "verify", path, "--out", str(custom))
    assert code == 0, stderr
    assert stdout == flat_stdout
    assert custom.read_bytes() == flat.read_bytes()


@pytest.mark.parametrize("fiber, message", [
    ({"type": "sphere", "radius": 0}, "fiber.radius must be positive"),
    ({"type": "sphere", "chart": ["u", "v", "w"]},
     "fiber.chart must name exactly two angles"),
    ({"type": "torus"}, "fiber.type must be flat, sphere or custom, not 'torus'"),
])
def test_a_bad_fiber_is_exit_two(tmp_path, capsys, fiber, message):
    out = tmp_path / "report.csv"
    path = write_config(tmp_path, _static_verify(fiber=fiber, potential="u"))
    code, stdout, stderr = run(capsys, "verify", path, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr == f"config error: {message}\n"
    assert not out.exists()


LONG_SUM = "+".join(["x"] * 5000)
DEEP_NESTING = "config error: an expression or a JSON value nests too deeply\n"


@pytest.mark.parametrize("changes", [
    {"potential": LONG_SUM},
    {"metric": [["1+" + LONG_SUM, "0"], ["0", "1"]],
     "grid": {"x": [1.0, 2.0, 2], "y": [0.0, 1.0, 2]}},
], ids=["potential", "metric-entry"])
def test_an_expression_nested_too_deeply_is_exit_two(tmp_path, capsys,
                                                     changes):
    cfg = {"family": "custom", **JOBS["verify", "custom"], **changes}
    out = tmp_path / "report.csv"
    code, stdout, stderr = run(capsys, "verify", write_config(tmp_path, cfg),
                               "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr == DEEP_NESTING
    assert not out.exists()


def test_a_config_nested_too_deeply_is_exit_two(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text('{"family": "custom", "chart": ' + "[" * 100000
                    + "]" * 100000 + "}", encoding="utf-8")
    code, stdout, stderr = run(capsys, "verify", str(path))
    assert code == 2
    assert stdout == ""
    assert stderr == DEEP_NESTING


@pytest.mark.parametrize("config, command", [
    ("static_verify", "verify"),
    ("grw_construct", "construct"),
    ("walker3_certified", "construct"),
    ("walker4_certified", "construct"),
])
@pytest.mark.parametrize("key", ["constants", "grid"])
def test_a_null_constants_or_grid_is_exit_two(config, command, key, tmp_path,
                                              capsys):
    # null is a value of the wrong type, not an absent key: without the
    # check, verify infers lambda and the constructs use their defaults.
    cfg = json.loads((CONFIGS / f"{config}.json").read_text(encoding="utf-8"))
    path = write_config(tmp_path, {**cfg, key: None})
    code, stdout, stderr = run(capsys, command, path,
                               "--out", str(tmp_path / "report.csv"))
    assert (code, stdout) == (2, "")
    assert stderr == f"config error: {key} must be an object\n"


@pytest.mark.parametrize("payload, message", [
    ({"chart": "x", "metric": [["1"]], "signature": "+"},
     "chart must be a non-empty list of strings"),
    ({"chart": ["x"], "metric": [["1"]], "signature": 1},
     "signature must be a string"),
    ({"chart": ["x"], "metric": [["1", "0"]], "signature": "+"},
     "metric must be a 1x1 array of rows"),
    ({"chart": ["x"], "metric": [[True]], "signature": "+"},
     "metric[0][0] must be a number or expression"),
    ({"chart": ["a", "a"], "metric": [[1, 0], [0, 1]], "signature": "++"},
     "metric: chart has repeated names: ('a', 'a')"),
])
def test_custom_metric_errors_name_their_top_level_key(payload, message,
                                                       tmp_path, capsys):
    path = write_config(tmp_path, {"family": "custom", **payload})
    code, _, stderr = run(capsys, "curvature", path)
    assert code == 2
    assert stderr == f"config error: {message}\n"


# -dt^2 + t^2 delta and phi = 6 ln t, t in [1, 2], no soliton (with
# lambda = 0 its residual is 12), in the chart t = 1e-5 u, x = 1e-5 X
# (so for y, z): every tensor entry is below the tolerance, and only the
# spread of the pointwise lambda samples fails the check.
SPREAD_ONLY = {
    "family": "custom", "chart": ["u", "X", "Y", "Z"],
    "metric": [["-1e-10", "0", "0", "0"], ["0", "1e-20*u^2", "0", "0"],
               ["0", "0", "1e-20*u^2", "0"], ["0", "0", "0", "1e-20*u^2"]],
    "signature": "-+++", "potential": "6*ln(1e-5*u)",
    "grid": {"u": [1e5, 2e5, 5], "X": [-1, 1, 3], "Y": [-1, 1, 3],
             "Z": [-1, 1, 3]},
}


@pytest.mark.parametrize("constants", [{}, {"lambda": 0.0}],
                         ids=["inferred", "given"])
def test_a_lambda_spread_alone_fails_the_verdict(tmp_path, capsys, constants):
    path = write_config(tmp_path, {**SPREAD_ONLY, "constants": constants})
    code, stdout, stderr = run(capsys, "verify", path, "--out",
                               str(tmp_path / "spread.csv"))
    assert code == 1
    assert stdout.startswith("FAIL max_residual=")
    residual = float(stdout.split("=")[1].split()[0])
    assert 0.0 < residual < DEFAULT_TOLERANCE
    assert stderr == ""
