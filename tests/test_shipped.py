"""Shipped configs: byte-identical output, the metric evaluated once per
distinct metric point, and constructs that evaluate their fields over
arrays, never point by point and never through generated code.

The references in bench/shipped_refs.json were recorded from the code
as first benchmarked; every refactor must reproduce them exactly.
"""

import builtins
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from solitonlab import expressions, families
from solitonlab.cli import main

from conftest import count_calls

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

REFS = json.loads((ROOT / "bench" / "shipped_refs.json").read_text(encoding="utf-8"))


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


def _count_scalar_evaluations(monkeypatch):
    """From here on, count the calls of every compiled field's float
    function and every profile call on a one-element array, and the
    calls of the exec and compile builtins."""
    counts = {"scalar": 0, "exec": 0, "compile": 0}

    def counted(fn):
        def wrapper(*args):
            counts["scalar"] += 1
            return fn(*args)
        return wrapper

    def counted_profile(fn):
        def wrapper(xs):
            counts["scalar"] += len(xs) == 1
            return fn(xs)
        return wrapper

    compile_field = expressions._compile

    def compile_counted(root, chart):
        scalar, over_arrays = compile_field(root, chart)
        return counted(scalar), over_arrays

    external = families.external

    def external_counted(name, funcs, arg):
        return external(name, [counted_profile(f) for f in funcs], arg)

    monkeypatch.setattr(expressions, "_compile", compile_counted)
    monkeypatch.setattr(families, "external", external_counted)
    for name in ("exec", "compile"):
        original = getattr(builtins, name)

        def builtin(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(builtins, name, builtin)
    return counts


@pytest.mark.parametrize("config", ["grw_construct.json",
                                    "walker4_certified.json"])
def test_a_construct_makes_as_many_scalar_evaluations_on_any_grid(
        config, tmp_path, capsys, monkeypatch):
    seen = []
    for grid in ("3", "5"):
        counts = _count_scalar_evaluations(monkeypatch)
        code = main(["construct", str(ROOT / "configs" / config),
                     "--grid", grid, "--out", str(tmp_path / f"{grid}.csv")])
        monkeypatch.undo()
        assert code == 0
        assert (counts["exec"], counts["compile"]) == (0, 0)
        seen.append(counts["scalar"])
    assert seen[0] == seen[1]
