"""The first block of every benchmark workload, checked by its oracles.

Each workload's first eight jobs at seed 401 run through cli.main and
their exit codes, verdict lines and CSV reports go to the benchmark's
own output oracles (closed forms, or a finite-difference curvature
evaluated with Python's math for the deep formulas).  The benchmark
files are only read; this puts the deep curvature formulas under the
test suite.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from solitonlab.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_first_block_of_each_workload_passes_its_oracles(workload, tmp_path):
    jobs = workloads.first_jobs(workload, 401, workloads.BLOCK)
    for job in jobs:
        config = workloads.write_job(job, tmp_path)
        out = tmp_path / f"{job.name}.csv"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(job.argv(str(config), str(out)))
        report = out.read_text(encoding="utf-8") if out.exists() else ""
        assert oracles.check_job(job, code, stdout.getvalue(), report) == [], job.name
