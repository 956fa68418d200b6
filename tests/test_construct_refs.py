"""The first 16 construct-quad benchmark jobs at seeds 1 and 401 against
recorded references.

tests/construct_refs.json holds, for each job, the exit code and the
sha256 of its stdout and of its CSV report, recorded before the
quadratures of a construct were batched; the CSVs of the walker4 jobs
were recorded again when their profile became the exact
1/2 (c0 t + c1) I(t), and every job again when both potentials became
trees over an Integral node (the walker4 #f= line, and the noise digits
of the GRW jobs' r1-r3 and verdict lambda).  The shipped references never
run a sin warping or a narrow GRW interval, so these pin the integrals
of both constructions, bit for bit.  The benchmark files are only read.

Record them again, from the repository root, with

    PYTHONPATH=src python tests/test_construct_refs.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from solitonlab.cli import main

from bench import workloads


REFS_PATH = Path(__file__).resolve().parent / "construct_refs.json"
SEEDS = (1, 401)
COUNT = 16


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_job(job, directory: Path) -> dict:
    """The exit code and the sha256 of the stdout and the CSV of one job."""
    config = workloads.write_job(job, directory)
    out = directory / f"{job.name}.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(job.argv(str(config), str(out)))
    report = out.read_bytes() if out.exists() else b""
    return {"exit": code, "stdout_sha256": _sha(stdout.getvalue().encode()),
            "csv_sha256": _sha(report)}


def _jobs():
    return [(seed, job) for seed in SEEDS
            for job in workloads.first_jobs("construct-quad", seed, COUNT)]


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {f"{seed}/{job.name}": run_job(job, Path(tmp))
                for seed, job in _jobs()}


REFS = json.loads(REFS_PATH.read_text(encoding="utf-8")) \
    if REFS_PATH.exists() else {}


def test_the_references_cover_every_job():
    assert sorted(REFS) == sorted(f"{seed}/{job.name}" for seed, job in _jobs())


@pytest.mark.parametrize("seed", SEEDS)
def test_construct_jobs_reproduce_their_references(seed, tmp_path):
    jobs = workloads.first_jobs("construct-quad", seed, COUNT)
    got = {f"{seed}/{job.name}": run_job(job, tmp_path) for job in jobs}
    assert got == {key: REFS[key] for key in got}


if __name__ == "__main__":
    REFS_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
