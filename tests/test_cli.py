"""Command line behavior: exit codes, report format, determinism."""

import json
from pathlib import Path

import pytest

from solitonlab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
