"""Shipped configs: byte-identical output, also with numpy's SIMD
kernels off, the metric evaluated once per distinct metric point, and
constructs that evaluate their fields over arrays, never point by point
and never through generated code.

The references in bench/shipped_refs.json were recorded from the code
as first benchmarked; every refactor must reproduce them exactly, save
three constructs, whose sha256 and verdict lines are taken from MOVED
below until the benchmark's references are recorded again.  The two
walker4 profiles are now the exact 1/2 (c0 t + c1) I(t), where they
were a 33-knot interpolated table, so their f column moved (by at most
6.78e-4), and their #f= line prints that tree, integral(...) in place of
tpart(t).  The GRW potential is alpha * Integral(1/w), whose jet slope
is alpha * (1/w) where a hand-written one was alpha / w, so noise digits
of its r1 and r2 columns and of its verdict's lambda moved to 0.  Exit
codes are the recorded ones.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from solitonlab.cli import main

from conftest import count_calls, count_scalar_evaluations

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

MOVED = {
    ("construct", "configs/grw_construct.json"): {
        "stdout": "PASS lambda=0.000000000000e+00 class=steady\n",
        "csv_sha256":
            "2214a36185abab63574d5726e766dea4fc42edc200e240908c8e6e9be64cb85c"},
    ("construct", "configs/walker4_certified.json"): {"csv_sha256":
        "27373a0d21700bf3acf3608a82eb71da74cc3530bfc605eb91fec9f0d4008b3b"},
    ("construct", "configs/walker4_certified.json", "--paper-literal"): {
        "csv_sha256":
            "1555159e3135385885f6cc5bd1eb800ec75639fb143f6f97c686a6221aec37b6"},
}
REFS = [{**ref, **MOVED.get(tuple(ref["argv"]), {})}
        for ref in json.loads((ROOT / "bench" / "shipped_refs.json")
                              .read_text(encoding="utf-8"))]


@pytest.mark.parametrize(
    "ref", REFS,
    ids=["-".join(Path(arg).stem.lstrip("-") for arg in ref["argv"]) for ref in REFS],
)
def test_shipped_config_reproduces_its_reference(ref, tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.csv"
    code = main([*ref["argv"], "--out", str(out)])
    stdout = capsys.readouterr().out
    data = out.read_bytes() if out.exists() else b""
    assert code == ref["exit"]
    assert stdout == ref["stdout"]
    assert hashlib.sha256(data).hexdigest() == ref["csv_sha256"]


# Prints numpy's SIMD dispatch targets that are on: the CPU features
# above its baseline that it picks kernels for at run time.
ENABLED_TARGETS = """
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
print(" ".join(k for k in getattr(umath, "__cpu_dispatch__", [])
               if umath.__cpu_features__.get(k)))
"""


def _enabled_targets(env=None):
    return subprocess.run([sys.executable, "-c", ENABLED_TARGETS], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout.split()


# Runs the shipped configs as bench/shipped.py runs them, and the
# construct and verify benchmark jobs of tests/construct_refs.json and
# tests/verify_refs.json, and prints, per reference table, the runs or
# keys whose exit code, stdout or sha256 differ from the reference.
CHECK_TEST_REFS = f"""
import sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "tests")!r},
                {str(ROOT / "bench")!r}]
import shipped, test_shipped, test_construct_refs, test_verify_refs
got = shipped.run_cases()
print("shipped", len(got), len(test_shipped.REFS),
      [" ".join(ref["argv"]) for ref, run in zip(test_shipped.REFS, got)
       if ref != run])
for module in (test_construct_refs, test_verify_refs):
    got = module.record()
    print(module.REFS_PATH.name, len(got), len(module.REFS),
          sorted(key for key in module.REFS if got.get(key) != module.REFS[key]))
"""


def test_the_references_hold_with_numpy_at_its_baseline():
    # numpy's SIMD exp differs from libm's in the last bit at about one
    # argument in twenty on an AVX-512 machine; the references must not
    # depend on which kernels the machine gets.  The shipped configs run
    # no sin warping; the construct references do.
    targets = _enabled_targets()
    if not targets:
        pytest.skip("numpy dispatches to no SIMD target here")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    assert _enabled_targets(env) == []
    run = subprocess.run([sys.executable, "-c", CHECK_TEST_REFS], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.split("\n")[:3] == ["shipped 11 11 []",
                                           "construct_refs.json 32 32 []",
                                           "verify_refs.json 32 32 []"]


def test_verify_evaluates_the_metric_once_over_the_grid(tmp_path, capsys,
                                                        monkeypatch):
    # -dt^2 + t^2 g_flat3 reads t alone: 5 distinct metric points of 625.
    calls = count_calls(monkeypatch, "metrics", "metric_at")
    code = main(["verify", str(ROOT / "configs" / "grw_gqy_verify.json"),
                 "--out", str(tmp_path / "gqy.csv")])
    assert code == 0
    assert [np.shape(args[1]) for args in calls] == [(5, 4)]


def test_curvature_evaluates_the_metric_once_over_the_grid(tmp_path, capsys,
                                                           monkeypatch):
    # The round sphere reads the polar angle u alone.
    calls = count_calls(monkeypatch, "metrics", "metric_at")
    code = main(["curvature", str(ROOT / "configs" / "sphere_curvature.json"),
                 "--out", str(tmp_path / "sphere.csv")])
    assert code == 0
    assert [np.shape(args[1]) for args in calls] == [(5, 2)]


@pytest.mark.parametrize("argv, shape", [
    # -exp(x2)^2 dt^2 + g_flat2 reads x2 alone.
    (["verify", "static_verify.json"], (5, 3)),
    # The walker4 metric reads t only through its warping, here "1".
    (["construct", "walker4_certified.json"], (1, 4)),
    (["curvature", "flat_curvature.json"], (1, 2)),
])
def test_the_metric_is_evaluated_once_per_distinct_metric_point(
        argv, shape, tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, "metrics", "metric_at")
    code = main([argv[0], str(ROOT / "configs" / argv[1]),
                 "--out", str(tmp_path / "report.csv")])
    assert code == 0
    assert [np.shape(args[1]) for args in calls] == [shape]


def test_a_metric_that_reads_every_coordinate_is_evaluated_at_every_point(
        tmp_path, capsys, monkeypatch):
    job = workloads.first_jobs("curvature-deep", 401, 1)[0]
    config = workloads.write_job(job, tmp_path)
    calls = count_calls(monkeypatch, "metrics", "metric_at")
    code = main(job.argv(str(config), str(tmp_path / "deep.csv")))
    assert code == 0
    assert [np.shape(args[1]) for args in calls] == [(job.rows, 3)]


def test_grw_construct_assembles_its_product_metric_once(tmp_path, capsys,
                                                         monkeypatch):
    calls = count_calls(monkeypatch, "families", "assemble_warped_metric")
    code = main(["construct", str(ROOT / "configs" / "grw_construct.json"),
                 "--out", str(tmp_path / "grw.csv")])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("config", ["grw_construct.json",
                                    "walker4_certified.json"])
def test_a_construct_makes_as_many_scalar_evaluations_on_any_grid(
        config, tmp_path, capsys, monkeypatch):
    seen = []
    for grid in ("3", "5"):
        counts = count_scalar_evaluations(monkeypatch)
        code = main(["construct", str(ROOT / "configs" / config),
                     "--grid", grid, "--out", str(tmp_path / f"{grid}.csv")])
        monkeypatch.undo()
        assert code == 0
        assert (counts["exec"], counts["compile"]) == (0, 0)
        seen.append(counts["scalar"])
    assert seen[0] == seen[1]
