"""Self-tests of the benchmark itself (not of solitonlab).

    python3 bench/selftest.py

Checks that job generation is a pure function of the seed, that every
oracle accepts real output and rejects a corrupted report, that the
tracer's self-time arithmetic is right on a synthetic span tree and
that it restores every patched function, and that the `-X importtime`
parser splits the import time as documented.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import unittest  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_work" / f"selftest-{os.getpid()}"


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


def run_job(job, name: str):
    from solitonlab.cli import main

    config = workloads.write_job(job, SCRATCH / name)
    out = SCRATCH / name / "report.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(job.argv(str(config), str(out)))
    return code, stdout.getvalue(), out.read_text(encoding="utf-8")


def corrupt(csv_text: str, column: str, row: int, delta: float) -> str:
    lines = csv_text.splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[start].split(",").index(column)
    data = lines[start + 1:]
    cells = data[row].split(",")
    cells[col] = "%.12e" % (float(cells[col]) + delta)
    data[row] = ",".join(cells)
    return "\n".join(lines[:start + 1] + data) + "\n"


class JobGeneration(unittest.TestCase):
    def test_same_seed_gives_identical_job_files(self):
        def files(workload, seed, name):
            return [workloads.write_job(job, SCRATCH / name / workload)
                    .read_bytes()
                    for job in workloads.first_jobs(workload, seed, 16)]

        for workload in workloads.WORKLOADS:
            first = files(workload, 7, "gen-a")
            self.assertEqual(first, files(workload, 7, "gen-b"), workload)
            self.assertNotEqual(first, files(workload, 8, "gen-c"), workload)
            self.assertEqual(len(set(first)), len(first), workload)

    def test_deep_formulas_have_a_fixed_size(self):
        import random
        from solitonlab import parse_expression

        sizes = {tracer.tree_stats(parse_expression(
            workloads.deep_formula(random.Random(s), 3), "xyz").root)[0]
            for s in range(20)}
        self.assertEqual(len(sizes), 1)


class Oracles(unittest.TestCase):
    """One job of every kind: the real report passes, a report with one
    value moved slightly fails."""

    CORRUPTIONS = {
        "cosmo_verify": ("tau", -1, 1e-6),
        "static_verify": ("lambda_point", 3, 1e-6),
        "walker4_construct": ("f", 5, 1e-6),
        "grw_construct": ("potential", 50, 1e-6),
        "deep_curvature": ("tau", 0, 1e-6),
    }

    def test_each_oracle_accepts_real_output_and_rejects_corruption(self):
        seen = {}
        for workload in workloads.WORKLOADS:
            for job in workloads.first_jobs(workload, 3, workloads.BLOCK):
                seen.setdefault(job.kind + str(job.expect_exit), job)
        self.assertEqual(len(seen), 8)  # five kinds, three with FAIL jobs
        for key, job in seen.items():
            with self.subTest(key):
                code, stdout, text = run_job(job, key)
                self.assertEqual(oracles.check_job(job, code, stdout, text), [])
                column, row, delta = self.CORRUPTIONS[job.kind]
                bad = corrupt(text, column, row, delta)
                self.assertNotEqual(oracles.check_job(job, code, stdout, bad), [])
                self.assertNotEqual(
                    oracles.check_job(job, 1 - job.expect_exit, stdout, text), [])

    def test_finite_difference_curvature_of_round_spheres(self):
        for radius in (1.0, 2.0):
            r2 = radius * radius
            comps = [[oracles.compile_component(str(r2), "uv"),
                      oracles.compile_component("0", "uv")],
                     [oracles.compile_component("0", "uv"),
                      oracles.compile_component(f"{r2}*sin(u)*sin(u)", "uv")]]
            scalar, _ = oracles.fd_curvature(comps, (1.1, 0.4))
            self.assertTrue(math.isclose(scalar, 2.0 / r2, rel_tol=1e-7))


class Tracing(unittest.TestCase):
    def test_self_time_on_a_synthetic_span_tree(self):
        spans = [
            ["job", -1, 0, 0.0, 10.0],
            ["a", 0, 0, 1.0, 4.0],
            ["b", 0, 0, 5.0, 9.0],
            ["b", 2, 0, 6.0, 7.5],
            ["c", 3, 0, 6.5, 7.0],
        ]
        self.assertEqual(tracer.self_times(spans), [3.0, 3.0, 2.5, 1.0, 0.5])
        agg = tracer.aggregate(spans)
        self.assertEqual(agg["b"], {"calls": 2, "s": 4.0, "self_s": 3.5})
        self.assertEqual(agg["job"]["s"], 10.0)
        self.assertEqual(sum(e["self_s"] for e in agg.values()), 10.0)

    def test_tracer_patches_every_binding_and_restores_them(self):
        import solitonlab
        from solitonlab import metrics, soliton

        original = metrics.metric_at
        t = tracer.Tracer()
        t.install(tracer.TARGETS + tracer.families_targets())
        try:
            self.assertIsNot(soliton.metric_at, original)
            self.assertIs(soliton.metric_at, metrics.metric_at)
            flat = solitonlab.flat_metric(("a", "b"))
            solitonlab.curvature_at(flat, (0.1, 0.2))
        finally:
            t.uninstall()
        self.assertEqual(t.installed_wrappers(), [])
        self.assertIs(soliton.metric_at, original)
        self.assertIs(solitonlab.metric_at, original)
        self.assertEqual([(s[0], s[1]) for s in t.spans], [
            ("metrics.metric_at", -1),
            ("autodiff.eval_jet2", 0),
            ("autodiff.eval_jet2", 0),
            ("autodiff.eval_jet2", 0),
            ("curvature.curvature_from", -1),
        ])
        self.assertEqual(t.counts["autodiff.const_jets"], 3)


class ImportTime(unittest.TestCase):
    LOG = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:       500 |        500 |     numpy.core",
        "import time:      1000 |       1500 |   numpy",
        "import time:       200 |        200 |         numpy.linalg",
        "import time:      3000 |       3200 |       scipy.special",
        "import time:       800 |       4000 |     scipy.interpolate",
        "import time:       300 |       4300 |   solitonlab.families",
        "import time:       700 |       6500 | solitonlab",
    ])

    def test_split_of_the_import_log(self):
        split = run.parse_importtime(self.LOG)
        self.assertAlmostEqual(split["setup.numpy_import_s"], 1500e-6)
        self.assertAlmostEqual(split["setup.scipy_import_s"], 4000e-6)
        self.assertAlmostEqual(split["setup.solitonlab_import_s"], 1000e-6)


if __name__ == "__main__":
    unittest.main()
