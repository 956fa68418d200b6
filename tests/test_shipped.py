"""Shipped configs: byte-identical output and one geometry pass per point.

The references in bench/shipped_refs.json were recorded from the code
as first benchmarked; every refactor must reproduce them exactly.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from solitonlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
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


def _count_calls(monkeypatch, module_name, func_name):
    """Wrap a solitonlab function wherever a solitonlab module binds it."""
    original = getattr(sys.modules[f"solitonlab.{module_name}"], func_name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if module is None or not (key == "solitonlab" or key.startswith("solitonlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


def test_verify_evaluates_the_metric_once_per_grid_point(tmp_path, capsys,
                                                         monkeypatch):
    calls = _count_calls(monkeypatch, "metrics", "metric_at")
    code = main(["verify", str(ROOT / "configs" / "grw_gqy_verify.json"),
                 "--out", str(tmp_path / "gqy.csv")])
    assert code == 0
    assert len(calls) == 5 ** 4


def test_grw_construct_assembles_its_product_metric_once(tmp_path, capsys,
                                                         monkeypatch):
    calls = _count_calls(monkeypatch, "families", "assemble_warped_metric")
    code = main(["construct", str(ROOT / "configs" / "grw_construct.json"),
                 "--out", str(tmp_path / "grw.csv")])
    assert code == 0
    assert len(calls) == 1
