"""Reference check of the shipped configs.

Runs the nine configs in configs/ once each, plus the two
`--paper-literal` constructions, through `solitonlab.cli.main`, and
compares the exit code, the verdict line (all of stdout) and the
sha256 of the CSV report with shipped_refs.json.  Any byte difference
fails the check.

    python3 bench/shipped.py    # exit 1 on any difference

The references were recorded from the code as first benchmarked; see
NOTES.md for the one place where they disagree with the ROADMAP.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "shipped_refs.json"

CASES = [
    ("curvature", "flat_curvature", []),
    ("curvature", "sphere_curvature", []),
    ("curvature", "walker3_ricci_flat_curvature", []),
    ("verify", "grw_gqy_verify", []),
    ("verify", "static_verify", []),
    ("verify", "walker4_verify_fail", []),
    ("construct", "grw_construct", []),
    ("construct", "walker3_certified", []),
    ("construct", "walker4_certified", []),
    ("construct", "walker3_certified", ["--paper-literal"]),
    ("construct", "walker4_certified", ["--paper-literal"]),
]


def run_cases() -> list:
    sys.path.insert(0, str(ROOT / "src"))
    from solitonlab.cli import main

    out_dir = ROOT / ".bench_work" / f"shipped-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for command, name, flags in CASES:
            out = out_dir / "report.csv"
            with contextlib.suppress(FileNotFoundError):
                out.unlink()
            argv = [command, f"configs/{name}.json", *flags]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv, "--out", str(out)])
            data = out.read_bytes() if out.exists() else b""
            results.append({
                "argv": argv,
                "exit": code,
                "stdout": stdout.getvalue(),
                "csv_sha256": hashlib.sha256(data).hexdigest(),
            })
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return results


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    if not (ROOT / "src" / "solitonlab").is_dir() or not (ROOT / "configs").is_dir():
        print("run from a checkout with src/ and configs/", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    results = run_cases()
    refs = json.loads(REFS.read_text(encoding="utf-8"))
    bad = 0
    for want, got in zip(refs, results):
        label = " ".join(want["argv"])
        diffs = [key for key in ("argv", "exit", "stdout", "csv_sha256")
                 if want[key] != got[key]]
        bad += bool(diffs)
        status = "ok  " if not diffs else "DIFF"
        print(f"{status} {label}: exit {got['exit']} "
              f"{got['stdout'].strip() or '(no verdict)'}"
              + (f"  [differs in {', '.join(diffs)}]" if diffs else ""))
    if len(refs) != len(results):
        bad += 1
        print(f"DIFF {len(refs)} references for {len(results)} cases")
    print(f"shipped-config check: {len(results) - bad}/{len(results)} "
          f"match the references")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
