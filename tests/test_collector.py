"""cli.main pauses the cyclic garbage collector for a command.

A command runs with the collector off and main restores the state it
found, on a normal return and on an exception alike.  The pause is
free only because a run that ends in a verdict makes no reference
cycles: under gc.DEBUG_SAVEALL, a collection after each such run finds
nothing to free.
"""

import contextlib
import gc
import io
import json
import sys
from pathlib import Path

import pytest

from solitonlab import cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

REFS = json.loads((ROOT / "bench" / "shipped_refs.json").read_text(encoding="utf-8"))
CONFIG = str(ROOT / "configs" / "flat_curvature.json")


@contextlib.contextmanager
def collector(enabled):
    """The collector switched on or off for the block, then as before."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_a_command_runs_with_the_collector_paused(enabled, monkeypatch):
    seen = []

    def command(cfg, args):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setitem(cli._COMMANDS, "curvature", command)
    with collector(enabled):
        assert cli.main(["curvature", CONFIG]) == 0
        assert gc.isenabled() is enabled
    assert seen == [False]


@pytest.mark.parametrize("enabled", [True, False])
def test_the_collector_state_comes_back_when_a_command_raises(enabled,
                                                               monkeypatch):
    def command(cfg, args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "curvature", command)
    with collector(enabled):
        with pytest.raises(RuntimeError, match="boom"):
            cli.main(["curvature", CONFIG])
        assert gc.isenabled() is enabled


def _runs(tmp_path):
    """Every shipped run and the first block of each benchmark workload
    at seed 401, as (name, argv)."""
    out = str(tmp_path / "report.csv")
    runs = [(" ".join(ref["argv"]), [*ref["argv"], "--out", out]) for ref in REFS]
    for workload in sorted(workloads.WORKLOADS):
        for job in workloads.first_jobs(workload, 401, workloads.BLOCK):
            config = workloads.write_job(job, tmp_path)
            runs.append((job.name, job.argv(str(config), out)))
    return runs


def test_a_run_that_ends_in_a_verdict_leaves_no_cycles(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    runs = _runs(tmp_path)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for name, argv in runs:
            gc.garbage.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            gc.collect()
            assert code in (0, 1), name
            assert gc.garbage == [], name
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
