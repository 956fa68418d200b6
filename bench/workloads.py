"""Seeded job generators for the three benchmark workloads.

A workload is an endless seeded stream of CLI jobs, drawn in blocks of
eight with a fixed mix of job kinds.  No two jobs of a stream share
their config, so a cache kept across `cli.main` calls gains nothing a
fresh `soliton-lab` process would not.  Each job is a JSON config plus
the argv tail that `soliton-lab` receives, and carries the facts its
output oracle needs (family, expected verdict, constants, grid).  The
program under test only ever sees the written config file.

Why the block mixes are 6:2 rather than 1:1: the two job kinds of a
workload take clearly different times (for example a 64-point 3d
verify against a 108-point 4d verify).  With an even split the median
job would fall exactly on the gap between the two clusters, where it
jumps with every stray slow job.  With six of one kind and two of the
other, the median sits at the 67th percentile of the larger group and
the 90th percentile at the 60th percentile of the smaller one (or both
inside the larger group, at its 33rd and 87th percentiles, if a later
change makes the smaller group the cheaper one), so neither reported
percentile can land on a cluster boundary.

This module uses only the standard library, so it can be imported
before numpy has its thread settings pinned.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = ["Job", "WORKLOADS", "BLOCK", "job_stream", "first_jobs", "write_job"]

BLOCK = 8


@dataclass
class Job:
    """One CLI invocation and what its output must satisfy."""

    name: str
    command: str
    config: dict
    flags: list[str]
    kind: str
    expect_exit: int
    rows: int
    facts: dict = field(default_factory=dict)

    def argv(self, config_path: str, out_path: str) -> list[str]:
        return [self.command, config_path, "--out", out_path, *self.flags]


def _r(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


def _box(rng: random.Random, lo: float, hi: float, min_width: float,
         count: int) -> list:
    a = _r(rng, lo, hi - min_width)
    b = _r(rng, a + min_width, hi)
    return [a, b, count]


# ---------------------------------------------------------------------
# verify-mixed: the two shipped verify families
# ---------------------------------------------------------------------

# Slots of one block: 6 static (3d, 64 points) and 2 cosmological
# (4d, 108 points); one job in four has a wrong potential and must FAIL.
_VERIFY_SLOTS = [
    ("static", True), ("cosmo", True), ("static", True), ("static", False),
    ("static", True), ("cosmo", False), ("static", True), ("static", True),
]


def _cosmo_job(rng: random.Random, name: str, good: bool) -> Job:
    t = _box(rng, 0.5, 2.5, 0.4, 4)
    grid = {"t": t}
    for axis in ("x1", "x2", "x3"):
        grid[axis] = _box(rng, -2.0, 2.0, 0.5, 3)
    k = 6.0 if good else _r(rng, 4.0, 5.5, 2)
    config = {
        "family": "grw",
        "warping": "t",
        "interval": [t[0], t[1]],
        "fiber": {"type": "flat", "chart": ["x1", "x2", "x3"]},
        "potential": f"-{k!r}*ln(t)",
        "constants": {"lambda": 0.0, "mu": 1.0 / 3.0},
        "grid": grid,
    }
    return Job(name, "verify", config, [], "cosmo_verify",
               0 if good else 1, 4 * 3 * 3 * 3,
               {"k": k, "mu": 1.0 / 3.0, "lam": 0.0, "good": good,
                "grid": grid, "chart": ["t", "x1", "x2", "x3"]})


def _static_job(rng: random.Random, name: str, good: bool) -> Job:
    grid = {
        "t": _box(rng, -2.0, 2.0, 0.5, 4),
        "x1": _box(rng, -1.5, 1.5, 0.5, 4),
        "x2": _box(rng, -1.5, 1.5, 0.5, 4),
    }
    c = 0.0 if good else _r(rng, 0.2, 0.6, 3)
    potential = "x1" if good else f"x1 + {c!r}*x2"
    config = {
        "family": "static",
        "lapse": "exp(x2)",
        "fiber": {"type": "flat", "chart": ["x1", "x2"]},
        "potential": potential,
        "constants": {"lambda": -2.0},
        "grid": grid,
    }
    return Job(name, "verify", config, [], "static_verify",
               0 if good else 1, 4 * 4 * 4,
               {"c": c, "lam": -2.0, "good": good, "grid": grid,
                "chart": ["t", "x1", "x2"]})


def _verify_block(rng: random.Random, block: int) -> list[Job]:
    jobs = []
    for slot, (family, good) in enumerate(_VERIFY_SLOTS):
        name = f"verify-{block:04d}-{slot}"
        make = _cosmo_job if family == "cosmo" else _static_job
        jobs.append(make(rng, name, good))
    return jobs


# ---------------------------------------------------------------------
# construct-quad: walker4 quadrature tables and grw t-sweeps
# ---------------------------------------------------------------------

# 6 grw and 2 walker4 per block; one walker4 runs paper-literal and
# must FAIL.  The walker4 jobs are the costlier kind, so job_s.p90 sits
# in their cluster, where the quadrature tables take most of the time.
_CONSTRUCT_SLOTS = [
    "grw", "walker4", "grw", "grw",
    "grw", "walker4_literal", "grw", "grw",
]

GRW_SAMPLES = 100


# The quadrature work of a construct job grows with the distance from
# t0 to the sample times and with the curvature of the integrand, so
# these ranges are kept narrow: seeds change the values, not the amount
# of work.

def _walker4_job(rng: random.Random, name: str, literal: bool) -> Job:
    a = _r(rng, 0.95, 1.05)
    b = _r(rng, 0.28, 0.32)
    c0 = _r(rng, 0.9, 1.1) * rng.choice((-1.0, 1.0))
    consts = {
        "c0": c0,
        "c1": _r(rng, -1.5, 1.5),
        "c2": _r(rng, -1.5, 1.5),
        "c3": _r(rng, -1.5, 1.5),
        "t0": _r(rng, -0.05, 0.05),
    }
    config = {
        "family": "walker4",
        "warping": f"{a!r} + {b!r}*sin(t)",
        "constants": consts,
    }
    flags = ["--grid", "3"] + (["--paper-literal"] if literal else [])
    return Job(name, "construct", config, flags, "walker4_construct",
               1 if literal else 0, 3 ** 4,
               {"a": a, "b": b, **consts, "literal": literal})


def _grw_job(rng: random.Random, name: str) -> Job:
    lo = _r(rng, 0.8, 1.0)
    hi = round(lo + _r(rng, 0.9, 1.1), 3)
    t0 = _r(rng, lo + 0.4 * (hi - lo), lo + 0.6 * (hi - lo))
    config = {
        "family": "grw",
        "warping": "t",
        "interval": [lo, hi],
        "fiber": {"type": "flat", "chart": ["x1", "x2", "x3"]},
        "constants": {"alpha": 6.0, "t0": t0},
        "grid": {"t": [lo, hi, GRW_SAMPLES]},
    }
    return Job(name, "construct", config, [], "grw_construct", 0,
               GRW_SAMPLES, {"lo": lo, "hi": hi, "t0": t0, "alpha": 6.0})


def _construct_block(rng: random.Random, block: int) -> list[Job]:
    jobs = []
    for slot, kind in enumerate(_CONSTRUCT_SLOTS):
        name = f"construct-{block:04d}-{slot}"
        if kind == "grw":
            jobs.append(_grw_job(rng, name))
        else:
            jobs.append(_walker4_job(rng, name, kind == "walker4_literal"))
    return jobs


# ---------------------------------------------------------------------
# curvature-deep: large random component formulas
# ---------------------------------------------------------------------

DEEP_CHART = ("x", "y", "z")
DEEP_DEPTH = 3
# 6 of 8 jobs build every component from one shared subtree and sample
# 27 points; the other 2 share nothing and sample 36 points, so the two
# kinds form separate time clusters even before a cache tells them apart.
_SHARED_SLOTS = [True, False, True, True, True, False, True, True]
DEEP_GRIDS = {True: (3, 3, 3), False: (4, 3, 3)}

_OPS = ("+", "-", "*")
_WRAPS = ("sin", "cos", "expsin", "div")


def _leaf(rng: random.Random) -> str:
    return f"{_r(rng, 0.3, 0.9)!r}*{rng.choice(DEEP_CHART)}"


def _wrap(kind: str, inner: str, rng: random.Random) -> str:
    if kind == "sin":
        return f"sin({inner})"
    if kind == "cos":
        return f"cos({inner})"
    if kind == "expsin":
        return f"exp(0.5*sin({inner}))"
    return f"({inner})/(2 + sin({_leaf(rng)}))"


def _balanced(rng: random.Random, items: tuple, count: int) -> list:
    """``count`` items cycling through ``items``, shuffled: the multiset
    (hence the node count of the tree) is the same for every seed."""
    out = [items[i % len(items)] for i in range(count)]
    rng.shuffle(out)
    return out


def deep_formula(rng: random.Random, depth: int) -> str:
    """A full binary tree of ``depth`` levels: every inner node is
    ``wrap(left) op wrap(right)`` and every leaf ``c*var``.  Every wrap
    is bounded, so values and derivatives stay moderate at any point."""
    ops = _balanced(rng, _OPS, 2 ** depth - 1)
    wraps = _balanced(rng, _WRAPS, 2 ** (depth + 1) - 2)

    def build(level: int) -> str:
        if level == 0:
            return _leaf(rng)
        left = _wrap(wraps.pop(), build(level - 1), rng)
        right = _wrap(wraps.pop(), build(level - 1), rng)
        return f"({left} {ops.pop()} {right})"

    return build(depth)


def _deep_job(rng: random.Random, name: str, shared: bool) -> Job:
    n = len(DEEP_CHART)
    common = deep_formula(rng, DEEP_DEPTH - 1)
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            first = common if shared else deep_formula(rng, DEEP_DEPTH - 1)
            second = deep_formula(rng, DEEP_DEPTH - 1)
            op = rng.choice(_OPS)
            inner = (f"{_wrap('expsin', first, rng)} {op} "
                     f"{_wrap('div', second, rng)}")
            if i == j:
                rows[i][j] = f"3 + 0.3*sin({inner})"
            else:
                rows[i][j] = rows[j][i] = f"0.3*sin({inner})"
    counts = DEEP_GRIDS[shared]
    grid = {
        axis: _box(rng, -1.5, 1.5, 0.6, count)
        for axis, count in zip(DEEP_CHART, counts)
    }
    config = {
        "family": "custom",
        "chart": list(DEEP_CHART),
        "metric": rows,
        "signature": "+++",
        "grid": grid,
    }
    points = counts[0] * counts[1] * counts[2]
    return Job(name, "curvature", config, [], "deep_curvature", 0, points,
               {"shared": shared, "grid": grid, "chart": list(DEEP_CHART),
                "metric": rows})


def _curvature_block(rng: random.Random, block: int) -> list[Job]:
    return [
        _deep_job(rng, f"curvature-{block:04d}-{slot}", shared)
        for slot, shared in enumerate(_SHARED_SLOTS)
    ]


WORKLOADS = {
    "verify-mixed": _verify_block,
    "construct-quad": _construct_block,
    "curvature-deep": _curvature_block,
}


def job_stream(workload: str, seed: int) -> Iterator[Job]:
    """The endless job sequence of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise KeyError(workload)
    rng = random.Random(f"{workload}:{seed}")
    for block in itertools.count():
        yield from WORKLOADS[workload](rng, block)


def first_jobs(workload: str, seed: int, count: int) -> list[Job]:
    return list(itertools.islice(job_stream(workload, seed), count))


def write_job(job: Job, directory: Path) -> Path:
    """Write the job's config file and return its path."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{job.name}.json"
    path.write_text(json.dumps(job.config, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
