"""The first 16 curvature-deep benchmark jobs at seeds 1 and 401 against
recorded references.

tests/curvature_refs.json holds, for each job, the exit code and the
sha256 of its stdout and of its CSV report.  These jobs run the jet
walk over large random formulas on 3d metrics, six of each eight
sharing a subtree, so they pin the walk, curvature_from and the CSV
writer on trees no shipped config reaches.  The benchmark files are
only read.

Record them again, from the repository root, with

    PYTHONPATH=src python tests/test_curvature_refs.py
"""

import json
import tempfile
from pathlib import Path

import pytest

from test_construct_refs import run_job

from bench import workloads


REFS_PATH = Path(__file__).resolve().parent / "curvature_refs.json"
SEEDS = (1, 401)
COUNT = 16


def _jobs():
    return [(seed, job) for seed in SEEDS
            for job in workloads.first_jobs("curvature-deep", seed, COUNT)]


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {f"{seed}/{job.name}": run_job(job, Path(tmp))
                for seed, job in _jobs()}


REFS = json.loads(REFS_PATH.read_text(encoding="utf-8")) \
    if REFS_PATH.exists() else {}


def test_the_references_cover_every_job():
    assert sorted(REFS) == sorted(f"{seed}/{job.name}" for seed, job in _jobs())


@pytest.mark.parametrize("seed", SEEDS)
def test_curvature_jobs_reproduce_their_references(seed, tmp_path):
    jobs = workloads.first_jobs("curvature-deep", seed, COUNT)
    got = {f"{seed}/{job.name}": run_job(job, tmp_path) for job in jobs}
    assert got == {key: REFS[key] for key in got}


if __name__ == "__main__":
    REFS_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
