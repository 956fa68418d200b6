"""Every demo runs to completion in-process."""

import contextlib
import io
import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_to_completion(path, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(str(path), run_name="__main__")
    assert stdout.getvalue()
