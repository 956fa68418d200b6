"""soliton-lab benchmark: time to verdict, set-up time and per-layer costs.

Run from the repository root:

    python3 bench/run.py --workload verify-mixed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One run is one process and one closed loop: it times fresh
interpreters importing `solitonlab.cli` (set-up), then takes jobs from
the workload's seeded stream and calls `solitonlab.cli.main` on each,
in-process and one at a time, for `--seconds` (and at least MIN_JOBS
jobs).  Right after each timed call, outside the timed region, an
independent oracle (oracles.py) checks the job's exit code, verdict
line and CSV report, and a reference kernel is timed to scale the job
time to a reference machine speed (see REFERENCE_KERNEL_S).  Set-up
imports are scaled by a reference process in the same way.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs fresh
blocks of jobs alternately untraced and traced (tracer.py) and prints
the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A full
record, with the environment, goes to .bench_work/results/.  See
NOTES.md for what each metric means.
"""

import os

# Pin BLAS/OpenMP pools to one thread before anything can load numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_JOBS = 110           # so that p90 has at least ten jobs beyond it
HARD_CAP_S = 120.0       # stop starting jobs after this, whatever else
SETUP_RUNS = 7           # fresh-interpreter imports per run (median)
IMPORTTIME_RUNS = 3      # -X importtime imports per traced run (median)
SUBPROCESS_TIMEOUT_S = 60

# Shared virtual machines change speed by 20-30% within seconds as
# neighbours load the host.  Ten runs of raw job times spread by about
# that much, whatever the run length.  So a fixed reference kernel,
# which never calls solitonlab, is timed before the first job and right
# after every job, outside the timed region.  Each job time is scaled
# by REFERENCE_KERNEL_S / (the slower of the two kernels around it):
# seconds at the reference speed.  Taking the slower one charges a
# slow-down that overlaps either end of the job to the machine, not to
# the job.  The median of that slower kernel on a 2-vCPU Xeon VM is
# REFERENCE_KERNEL_S.
# A 3 ms kernel samples too little of a one-second import, so set-up
# times are scaled the same way by a reference process instead: a fresh
# interpreter that imports numpy alone, timed right after each set-up
# import.  Its median on the same VM is REFERENCE_IMPORT_S.  The run's
# record also keeps the raw times.
REFERENCE_KERNEL_S = 2.85e-3
REFERENCE_IMPORT_S = 0.225
_KERNEL_VECTOR = np.arange(3.0)
_KERNEL_MATRIX = np.ones((3, 3)) + np.eye(3)
_KERNEL_METRIC = np.ones((4, 4)) + 3.0 * np.eye(4)
_KERNEL_TENSOR = np.ones((4, 4, 4))

END_TO_END = [
    ("setup_s", "s"),
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("cli.main.self_s", "s"),
    ("expressions.parse_expression.calls", "count"),
    ("expressions.parse_expression.s", "s"),
    ("expressions.evaluate.calls", "count"),
    ("expressions.evaluate.s", "s"),
    ("autodiff.eval_jet2.calls", "count"),
    ("autodiff.eval_jet2.s", "s"),
    ("autodiff.nodes_walked", "count"),
    ("autodiff.const_jets", "count"),
    ("metrics.metric_at.calls", "count"),
    ("metrics.metric_at.self_s", "s"),
    ("metrics.metric_at_per_point", "ratio"),
    ("curvature.curvature_from.calls", "count"),
    ("curvature.curvature_from.self_s", "s"),
    ("curvature.covariant_hessian.calls", "count"),
    ("soliton.infer_lambda.self_s", "s"),
    ("soliton.residual_report.self_s", "s"),
    ("soliton.gqy_residual.calls", "count"),
    ("families.self_s", "s"),
    ("families.assemble_warped_metric.calls", "count"),
    ("quadrature.adaptive_simpson.calls", "count"),
    ("quadrature.adaptive_simpson.self_s", "s"),
    ("quadrature.integrand_evals", "count"),
    ("grids.points", "count"),
    ("setup.scipy_import_s", "s"),
    ("setup.numpy_import_s", "s"),
    ("setup.solitonlab_import_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


# ---------------------------------------------------------------------
# Environment and set-up
# ---------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(argv: list) -> subprocess.CompletedProcess:
    done = subprocess.run(argv, cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{argv} failed:\n{done.stderr}")
    return done


def kernel_seconds() -> float:
    """Time of one reference kernel: the jobs' mix of interpreter
    arithmetic, small numpy calls and 4x4 linear algebra.  The collector
    is paused so that garbage a job left behind is not charged here."""
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0.0
        for i in range(40):
            g = _KERNEL_METRIC + 0.01 * i
            total += float(np.linalg.det(g)) + float(np.linalg.inv(g)[0, 0])
            total += float(np.linalg.eigvalsh(g)[0])
            total += float(np.einsum("kl,ijl->kij", g, _KERNEL_TENSOR)[0, 0, 0])
            total += float(np.outer(_KERNEL_VECTOR, _KERNEL_VECTOR).sum())
            total += float((_KERNEL_MATRIX @ _KERNEL_VECTOR)[0])
            for j in range(100):
                total += (j * 0.5) % 7.0
        return time.perf_counter() - start
    finally:
        gc.enable()


def _wall(argv: list) -> float:
    start = time.perf_counter()
    _spawn(argv)
    return time.perf_counter() - start


def measure_setup(runs: int) -> tuple:
    """Wall times of fresh interpreters importing solitonlab.cli, and of
    the reference process right after each, after one discarded pair
    that leaves the bytecode caches warm."""
    argv = [sys.executable, "-c", "import solitonlab.cli"]
    reference = [sys.executable, "-c", "import numpy"]
    _spawn(argv)
    _spawn(reference)
    samples, references = [], []
    for _ in range(runs):
        samples.append(_wall(argv))
        references.append(_wall(reference))
    return samples, references


def at_reference_speed(times: list, kernels: list) -> list:
    """Job i is scaled by the slower of kernels[i] (before it) and
    kernels[i + 1] (after it)."""
    return [t * REFERENCE_KERNEL_S / max(before, after)
            for t, before, after in zip(times, kernels, kernels[1:])]


def parse_importtime(text: str) -> dict:
    """Seconds spent importing scipy, numpy and solitonlab's own modules
    (solitonlab's total minus the first two) from `-X importtime`."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        entries.append((depth, raw.strip(), int(parts[1])))
    libraries = {"scipy": 0, "numpy": 0}
    package = 0
    path: list = []
    # The log is in post-order; reversed, every module follows its parent.
    for depth, name, cumulative in reversed(entries):
        del path[depth:]
        top = name.split(".")[0]
        outside = not any(a.split(".")[0] in libraries for a in path)
        if top in libraries and outside:
            libraries[top] += cumulative
        if depth == 0 and top == "solitonlab":
            package += cumulative
        path.append(name)
    return {
        "setup.scipy_import_s": libraries["scipy"] / 1e6,
        "setup.numpy_import_s": libraries["numpy"] / 1e6,
        "setup.solitonlab_import_s":
            (package - libraries["scipy"] - libraries["numpy"]) / 1e6,
    }


def measure_importtime(runs: int) -> dict:
    argv = [sys.executable, "-X", "importtime", "-c", "import solitonlab.cli"]
    _spawn(argv)
    samples = [parse_importtime(_spawn(argv).stderr) for _ in range(runs)]
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}


def environment() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
        "thread_pins": {var: os.environ[var] for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def import_cli():
    sys.path.insert(0, str(SRC))
    import solitonlab.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's src/")
    return cli


# ---------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------

class Runner:
    """Runs jobs through cli.main one at a time and checks each output
    with its oracle right after the timed call."""

    def __init__(self, cli, oracles, work: Path) -> None:
        self.cli = cli
        self.oracles = oracles
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.kernels = [kernel_seconds()]  # before the first job, then after each

    def run(self, job) -> float:
        config = workloads.write_job(job, self.work / "jobs")
        out = self.work / "out" / f"{job.name}.csv"
        out.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            out.unlink()
        argv = job.argv(str(config), str(out))
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed job, not a dead benchmark
            code = "crash"
            self.problems.append(f"{job.name}: "
                                 + traceback.format_exc().splitlines()[-1])
        elapsed = time.perf_counter() - start
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        found = self.oracles.check_job(job, code, stdout.getvalue(), text)
        self.attempted += 1
        if found:
            self.failed += 1
            self.problems.append(f"{job.name}: {found[0]}")
        self.kernels.append(kernel_seconds())
        return elapsed


def run_end_to_end(workload: str, seed: int, seconds: float, work: Path):
    import oracles
    setup_raw, setup_refs = measure_setup(SETUP_RUNS)
    setup = [t * REFERENCE_IMPORT_S / r for t, r in zip(setup_raw, setup_refs)]
    runner = Runner(import_cli(), oracles, work)
    stream = workloads.job_stream(workload, seed)
    times, rows = [], 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= seconds
                                     and len(times) >= MIN_JOBS):
            break
        job = next(stream)
        times.append(runner.run(job))
        rows += job.rows
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = at_reference_speed(times, runner.kernels)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "job_s.p50": (statistics.median(scaled), len(times)),
        "job_s.p90": (statistics.quantiles(scaled, n=10)[8], len(times)),
        "rows_per_s": (rows / sum(scaled), len(times)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    extra = {
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "job_s.p50": statistics.median(times),
            "job_s.p90": statistics.quantiles(times, n=10)[8],
            "rows_per_s": rows / sum(times),
        },
        "kernel_s.median": statistics.median(runner.kernels),
        "reference_import_s.median": statistics.median(setup_refs),
        "job_seconds_total": sum(times), "rows": rows,
        "samples": {"setup_s": setup_raw, "reference_import_s": setup_refs,
                    "job_s": times, "kernel_s": runner.kernels},
    }
    return metrics, END_TO_END, runner, extra


def layer_metrics(agg: dict, counts) -> dict:
    def field(name, key):
        return agg.get(name, {}).get(key, 0.0 if key != "calls" else 0)

    points = counts["grids.points"]
    out = {
        "cli.main.self_s": field("cli.main", "self_s"),
        "expressions.parse_expression.calls":
            field("expressions.parse_expression", "calls"),
        "expressions.parse_expression.s":
            field("expressions.parse_expression", "s"),
        "expressions.evaluate.calls": field("expressions.evaluate", "calls"),
        "expressions.evaluate.s": field("expressions.evaluate", "s"),
        "autodiff.eval_jet2.calls": field("autodiff.eval_jet2", "calls"),
        "autodiff.eval_jet2.s": field("autodiff.eval_jet2", "s"),
        "autodiff.nodes_walked": counts["autodiff.nodes_walked"],
        "autodiff.const_jets": counts["autodiff.const_jets"],
        "metrics.metric_at.calls": field("metrics.metric_at", "calls"),
        "metrics.metric_at.self_s": field("metrics.metric_at", "self_s"),
        "metrics.metric_at_per_point":
            field("metrics.metric_at", "calls") / points if points else 0.0,
        "curvature.curvature_from.calls":
            field("curvature.curvature_from", "calls"),
        "curvature.curvature_from.self_s":
            field("curvature.curvature_from", "self_s"),
        "curvature.covariant_hessian.calls":
            field("curvature.covariant_hessian", "calls"),
        "soliton.infer_lambda.self_s": field("soliton.infer_lambda", "self_s"),
        "soliton.residual_report.self_s":
            field("soliton.residual_report", "self_s"),
        "soliton.gqy_residual.calls": field("soliton.gqy_residual", "calls"),
        "families.self_s": sum(entry["self_s"] for name, entry in agg.items()
                               if name.startswith("families.")),
        "families.assemble_warped_metric.calls":
            field("families.assemble_warped_metric", "calls"),
        "quadrature.adaptive_simpson.calls":
            field("quadrature.adaptive_simpson", "calls"),
        "quadrature.adaptive_simpson.self_s":
            field("quadrature.adaptive_simpson", "self_s"),
        "quadrature.integrand_evals": counts["quadrature.integrand_evals"],
        "grids.points": points,
    }
    return out


COUNT_METRICS = [name for name, unit in PER_LAYER
                 if unit in ("count", "ratio") and not name.startswith("trace.")]


def run_traced(workload: str, seed: int, seconds: float, work: Path):
    """Alternate untraced and traced passes, each over a fresh block of
    the stream: untraced on blocks 0, 2, 4, ..., traced on blocks 1, 3,
    5, ....  Counts come from the first traced pass (block 1), times are
    medians over traced passes."""
    import oracles
    import tracer as tracing
    imports = measure_importtime(IMPORTTIME_RUNS)
    runner = Runner(import_cli(), oracles, work)
    stream = workloads.job_stream(workload, seed)
    tracer = tracing.Tracer()
    targets = tracing.TARGETS + tracing.families_targets()
    plain, traced, passes = [], [], []
    first_spans = first_jobs = None
    start = time.perf_counter()
    while True:
        plain.extend(runner.run(next(stream)) for _ in range(workloads.BLOCK))
        jobs = [next(stream) for _ in range(workloads.BLOCK)]
        tracer.install(targets)
        try:
            for index, job in enumerate(jobs):
                tracer.job = index
                record = tracer.open("job")
                try:
                    traced.append(runner.run(job))
                finally:
                    tracer.close(record)
        finally:
            tracer.uninstall()
        passes.append(layer_metrics(tracing.aggregate(tracer.spans),
                                    tracer.counts))
        if first_spans is None:
            first_spans, first_jobs = tracer.spans, jobs
        tracer.reset()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= HARD_CAP_S:
            break
    left = tracer.installed_wrappers()
    if left:
        runner.problems.append(f"wrappers left installed: {left}")
    metrics = {}
    for name, _unit in PER_LAYER:
        if name in imports:
            metrics[name] = (imports[name], IMPORTTIME_RUNS)
        elif name == "trace.overhead_ratio":
            metrics[name] = (statistics.median(traced)
                             / statistics.median(plain), len(traced))
        elif name in COUNT_METRICS:
            metrics[name] = (passes[0][name], 1)
        else:
            metrics[name] = (statistics.median(p[name] for p in passes),
                             len(passes))
    spans_path = WORK / "traces" / f"{workload}-seed{seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for i, (name, parent, job, t0, t1) in enumerate(first_spans):
            handle.write(json.dumps([i, parent, first_jobs[job].name if job >= 0
                                     else None, name, t0, t1]) + "\n")
    extra = {"passes": len(passes), "jobs_per_pass": workloads.BLOCK,
             "untraced_job_s.p50": statistics.median(plain),
             "traced_job_s.p50": statistics.median(traced),
             "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, PER_LAYER, runner, extra


# ---------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------

def run_one(args) -> int:
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = run_traced if args.trace else run_end_to_end
        metrics, spec, runner, extra = run(args.workload, args.seed,
                                           args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, problems = (runner.attempted, runner.failed,
                                   runner.problems)
    units = dict(spec)
    for name, _ in spec:
        value, samples = metrics[name]
        print(f"{args.workload:15s} {name:40s} {value:14.6g} {units[name]:7s}"
              f" (n={samples})")
    print(f"{args.workload:15s} {'jobs_failed_ratio':40s} "
          f"{failed / attempted:14.6g} ratio   "
          f"({failed}/{attempted})")
    if "raw" in extra:
        print(f"{args.workload:15s} {'(raw wall-clock setup_s)':40s} "
              f"{extra['raw']['setup_s']:14.6g} s       "
              f"(reference import "
              f"{extra['reference_import_s.median'] * 1e3:.3g} ms)")
        print(f"{args.workload:15s} {'(raw wall-clock job_s.p50)':40s} "
              f"{extra['raw']['job_s.p50']:14.6g} s       "
              f"(kernel {extra['kernel_s.median'] * 1e3:.3g} ms)")
    for problem in problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "metrics": {name: {"value": metrics[name][0], "unit": unit,
                           "samples": metrics[name][1]}
                    for name, unit in spec},
        "attempted": attempted, "failed": failed, "correct": correct,
        "jobs_failed_ratio": failed / attempted,
        "problems": problems, **extra,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in spec},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, then the shipped-config check."""
    status = 0
    summary = []
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: benchmark exited {done.returncode}")
            status = 1
            continue
        summary.extend(lines[:-1])
        if not json.loads(lines[-1])["correct"]:
            status = 1
    print("\n".join(summary))
    shipped = subprocess.run([sys.executable, str(BENCH / "shipped.py")],
                             cwd=ROOT, capture_output=True, text=True)
    lines = shipped.stdout.strip().splitlines()
    print("\n".join(line for line in lines
                    if line.startswith("DIFF") or line is lines[-1]))
    sys.stderr.write(shipped.stderr)
    return status or shipped.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "solitonlab" / "__init__.py").is_file():
        print(f"cannot find the package sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
