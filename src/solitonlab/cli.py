"""Command line front end: curvature tables, soliton verification, and
explicit constructions, driven by JSON job files.

The pipeline has four stages:

  1. Argument handling.  Three subcommands (curvature, verify,
     construct) share the flags --out and --grid; verify and construct
     also take --tol, and construct alone takes --paper-literal, for
     the walker3 and walker4 families.
  2. Strict config reading.  Every key is checked by name and type;
     unknown, misplaced or repeated keys and non-finite numbers fail
     the run with exit code 2 and a message naming the offending
     field.  Nothing is silently ignored.
  3. Family assembly.  The "family" key selects one entry of the
     family table (custom, warped, grw, static, walker3, walker4).  An
     entry holds the family's assembler, which reads its keys into a
     job (metric, chart, default sampling grid, spec), and its
     construction, if it has one (grw, walker3, walker4), with the
     constants that construction reads.  verify reads only lambda and
     mu; any other constant fails the run.
  4. Output.  Reports are CSV with a fixed schema line, a header row,
     and %.12e floats in lexicographic grid order, so identical jobs
     produce byte-identical files.  A report is computed and formatted
     once per distinct point of the coordinates its fields read
     (grids.distinct_points, _emit_csv).  Every check ends in a
     LambdaEstimate and a ResidualReport over all the grid points, from
     which _verdict forms one PASS/FAIL line.  The line goes to stdout
     before a report written there and after one written to --out, so
     a report that cannot be written prints no verdict.

Exit codes: 0 verified or completed, 1 a residual or constancy check
failed, 2 bad configuration or arguments, 3 a numeric failure such as
a singular metric or a quadrature breakdown.  Exits 2 and 3 print one
line to stderr, and exits 0 and 1 print nothing there: a command runs
with numpy's floating-point warnings off, since a value past the float
range either fails an expression's domain check or shows in the
verdict and the report as inf or nan, and with the cyclic garbage
collector paused, since a run makes no reference cycles but those of
an exception on the way to an error exit, which the collector frees
once main restores its previous state.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import re
import sys
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .curvature import curvature_from
from .errors import (
    ConfigError,
    ExpressionSyntaxError,
    SolitonLabError,
    UnknownVariableError,
    _Record,
)
from .expressions import ScalarField, parse_expression
from .families import (
    GRWSpec,
    StaticSpec,
    WALKER3_CHART,
    WALKER4_CHART,
    Walker3Construction,
    Walker3Spec,
    Walker4Spec,
    WarpedProductSpec,
    assemble_warped_metric,
    grw_potential_field,
    grw_samples,
    walker3_construct,
    walker3_metric,
    walker4_construct,
    walker4_metric,
)
from .grids import distinct_points, grid_axes, mesh_points
from .metrics import MetricField, flat_metric, metric_at, sphere_metric
from .soliton import LambdaEstimate, ResidualReport, classify, point_geometry

__all__ = ["main"]

DEFAULT_TOLERANCE = 1e-8
DEFAULT_COUNT = 5

CONSTANT_KEYS = ("lambda", "mu", "alpha", "kappa", "c0", "c1", "c2", "c3", "t0")

Range = tuple[float, float, int]


# =====================================================================
# Stage 2: strict config reading
# =====================================================================

def _load_config(path: str) -> dict:
    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path} repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a JSON object")
    return raw


def _reject_unknown(obj: Mapping[str, Any], path: str) -> None:
    if obj:
        name = sorted(obj)[0]
        where = f"{path}.{name}" if path else name
        raise ConfigError(f"unknown key {where!r}")


def _take(obj: dict, key: str, path: str, required: bool = False,
          default: Any = None) -> Any:
    if key in obj:
        return obj.pop(key)
    if required:
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"missing required key {where!r}")
    return default


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite")
    return float(value)


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string")
    return value


def _as_chart(value: Any, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not value or not all(
        isinstance(v, str) for v in value
    ):
        raise ConfigError(f"{where} must be a non-empty list of strings")
    return tuple(value)


def _parse_field(source: Any, chart: tuple[str, ...], where: str) -> ScalarField:
    text = _as_str(source, where)
    try:
        return parse_expression(text, chart)
    except (ExpressionSyntaxError, UnknownVariableError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _take_field(cfg: dict, key: str, chart: tuple[str, ...]) -> ScalarField:
    return _parse_field(_take(cfg, key, "", required=True), chart, key)


def _metric_from_config(obj: Any, path: str) -> MetricField:
    """The metric of the keys chart, metric and signature of ``obj``,
    whose errors name each key under ``path`` ("" at the top level)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    obj = dict(obj)
    prefix = f"{path}." if path else ""
    chart = _as_chart(_take(obj, "chart", path, required=True), f"{prefix}chart")
    rows = _take(obj, "metric", path, required=True)
    signature = _as_str(
        _take(obj, "signature", path, required=True), f"{prefix}signature"
    )
    _reject_unknown(obj, path)
    n = len(chart)
    if not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise ConfigError(f"{prefix}metric must be a {n}x{n} array of rows")
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if isinstance(cell, bool) or not isinstance(cell, (int, float, str)):
                raise ConfigError(
                    f"{prefix}metric[{i}][{j}] must be a number or expression"
                )
    try:
        return MetricField.from_rows(chart, rows, signature)
    except (ExpressionSyntaxError, UnknownVariableError, ValueError) as exc:
        raise ConfigError(f"{prefix}metric: {exc}") from exc


def _sample(names: Sequence[str], ranges: Mapping[str, Range]) -> tuple:
    """grid_axes over ``names``, each axis sampled once, and the points
    they mesh.  A count is not capped up front: a grid that numpy refuses
    to allocate is a ConfigError that names its counts, and an axis with
    a sample that is not finite (a range past the float range) one that
    names the axis."""
    try:
        axes = grid_axes(names, ranges)
        for name, axis in zip(names, axes):
            if np.count_nonzero(np.isfinite(axis)) != axis.size:
                raise ConfigError(
                    f"grid.{name}: the range samples a non-finite value")
        return axes, mesh_points(axes)
    except (ValueError, MemoryError) as exc:
        counts = " x ".join(str(ranges[name][2]) for name in names)
        raise ConfigError(
            f"cannot sample a grid of {counts} points: {exc}") from exc


def _unit_ranges(names: Sequence[str]) -> dict[str, Range]:
    return {name: (-1.0, 1.0, DEFAULT_COUNT) for name in names}


def _fiber_from_config(cfg: dict) -> tuple[MetricField, dict[str, Range]]:
    """The required fiber's metric plus its default sampling ranges."""
    path = "fiber"
    obj = _take(cfg, path, "", required=True)
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    obj = dict(obj)
    kind = _as_str(_take(obj, "type", path, required=True), f"{path}.type")
    if kind == "flat":
        chart = _as_chart(
            _take(obj, "chart", path, required=True), f"{path}.chart"
        )
        _reject_unknown(obj, path)
        return flat_metric(chart), _unit_ranges(chart)
    if kind == "sphere":
        radius = _as_number(_take(obj, "radius", path, default=1.0),
                            f"{path}.radius")
        chart_raw = _take(obj, "chart", path, default=["u", "v"])
        chart = _as_chart(chart_raw, f"{path}.chart")
        _reject_unknown(obj, path)
        if radius <= 0.0:
            raise ConfigError(f"{path}.radius must be positive")
        if len(chart) != 2:
            raise ConfigError(f"{path}.chart must name exactly two angles")
        metric = sphere_metric(radius, chart)
        defaults = {
            chart[0]: (0.5, 2.6, DEFAULT_COUNT),
            chart[1]: (0.0, 3.0, DEFAULT_COUNT),
        }
        return metric, defaults
    if kind == "custom":
        metric = _metric_from_config(obj, path)
        return metric, {}
    raise ConfigError(f"{path}.type must be flat, sphere or custom, not {kind!r}")


def _constants_from_config(obj: Any, path: str) -> dict[str, float]:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    obj = dict(obj)
    out: dict[str, float] = {}
    for key in CONSTANT_KEYS:
        if key in obj:
            out[key] = _as_number(obj.pop(key), f"{path}.{key}")
    _reject_unknown(obj, path)
    return out


def _ranges_from_config(obj: Any, chart: tuple[str, ...],
                        defaults: dict[str, Range],
                        override_count: int | None) -> dict[str, Range]:
    """Each chart coordinate's range: its grid entry, else the family
    default; --grid replaces every count."""
    if not isinstance(obj, dict):
        raise ConfigError("grid must be an object")
    given: dict[str, Range] = {}
    for name, spec in obj.items():
        if name not in chart:
            raise ConfigError(f"grid.{name} does not name a chart coordinate")
        where = f"grid.{name}"
        if not isinstance(spec, list) or len(spec) != 3:
            raise ConfigError(f"{where} must be [min, max, count]")
        lo = _as_number(spec[0], f"{where}[0]")
        hi = _as_number(spec[1], f"{where}[1]")
        count = _as_int(spec[2], f"{where}[2]")
        if not lo < hi:
            raise ConfigError(f"{where}: min must be below max")
        if count < 2:
            raise ConfigError(f"{where}: count must be at least 2")
        given[name] = (lo, hi, count)
    ranges: dict[str, Range] = {}
    for name in chart:
        if name in given:
            ranges[name] = given[name]
        elif name in defaults:
            ranges[name] = defaults[name]
        else:
            raise ConfigError(
                f"grid.{name} is required (this family has no default range)"
            )
    if override_count is not None:
        if override_count < 2:
            raise ConfigError("--grid must be at least 2")
        ranges = {k: (lo, hi, override_count) for k, (lo, hi, count) in ranges.items()}
    return ranges


# =====================================================================
# Stage 3: family assembly
# =====================================================================

class _Job:
    """A validated job; the family's assembler fills in the metric (None
    where the construction derives it), chart, default ranges and spec."""

    __slots__ = ("family", "command", "constants", "tolerance",
                 "potential_src", "metric", "chart", "defaults", "spec",
                 "ranges")

    def __init__(self, family: _Family, command: str,
                 constants: dict[str, float], tolerance: float,
                 potential_src: str | None, metric: MetricField | None = None,
                 chart: tuple[str, ...] = (),
                 defaults: dict[str, Range] | None = None, spec: Any = None,
                 ranges: dict[str, Range] | None = None) -> None:
        self.family = family
        self.command = command
        self.constants = constants
        self.tolerance = tolerance
        self.potential_src = potential_src
        self.metric = metric
        self.chart = chart
        self.defaults = {} if defaults is None else defaults
        self.spec = spec
        self.ranges = {} if ranges is None else ranges

    _fields = __slots__
    __repr__ = _Record.__repr__


class _Family(NamedTuple):
    """A family's assembler, which reads its keys into a job, and its
    construction (None if it has none) with the constants it reads."""

    assemble: Callable[[dict, _Job], None]
    construct: Callable[[_Job, argparse.Namespace], int] | None = None
    construct_reads: tuple[str, ...] = ()


VERIFY_READS = ("lambda", "mu")
WALKER4_CONSTANTS = ("c0", "c1", "c2", "c3", "t0")


def _build_job(cfg: dict, command: str, tol_flag: float | None,
               grid_flag: int | None) -> _Job:
    cfg = dict(cfg)
    name = _as_str(_take(cfg, "family", "", required=True), "family")
    constants = _constants_from_config(cfg.get("constants", {}), "constants")
    if command == "curvature":
        for key in ("tolerance", "potential", "constants"):
            if key in cfg:
                raise ConfigError(
                    f"curvature checks no potential; remove {key!r}"
                )
    cfg.pop("constants", None)
    tolerance = _as_number(
        _take(cfg, "tolerance", "", default=DEFAULT_TOLERANCE), "tolerance"
    )
    if tol_flag is not None:
        tolerance = _as_number(tol_flag, "--tol")
    if tolerance <= 0.0:
        raise ConfigError("tolerance must be positive")
    potential_src = _take(cfg, "potential", "")
    if potential_src is not None:
        potential_src = _as_str(potential_src, "potential")
    if command == "construct" and potential_src is not None:
        raise ConfigError("construct derives the potential; remove 'potential'")
    grid_raw = _take(cfg, "grid", "", default={})

    if name not in _FAMILIES:
        raise ConfigError(
            f"family must be one of {', '.join(sorted(_FAMILIES))}, not {name!r}"
        )
    family = _FAMILIES[name]
    if command == "construct" and family.construct is None:
        raise ConfigError(f"family {name!r} has no construction")
    reads = family.construct_reads if command == "construct" else VERIFY_READS
    for key in constants:
        if key not in reads:
            raise ConfigError(
                f"{command} on family {name!r} does not read 'constants.{key}'"
            )
    job = _Job(family, command, constants, tolerance, potential_src)
    try:
        family.assemble(cfg, job)
    except (ExpressionSyntaxError, UnknownVariableError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    _reject_unknown(cfg, "")
    if job.metric is not None:
        job.chart = job.metric.chart
    job.ranges = _ranges_from_config(grid_raw, job.chart, job.defaults,
                                     grid_flag)
    return job


def _assemble_custom(cfg: dict, job: _Job) -> None:
    job.metric = _metric_from_config(
        {
            "chart": _take(cfg, "chart", "", required=True),
            "metric": _take(cfg, "metric", "", required=True),
            "signature": _take(cfg, "signature", "", required=True),
        },
        "",
    )


def _assemble_warped(cfg: dict, job: _Job) -> None:
    base = _metric_from_config(_take(cfg, "base", "", required=True), "base")
    fiber, job.defaults = _fiber_from_config(cfg)
    warping = _take_field(cfg, "warping", base.chart)
    job.spec = WarpedProductSpec(base, fiber, warping)
    job.metric = assemble_warped_metric(job.spec)


def _assemble_grw(cfg: dict, job: _Job) -> None:
    time_var = _as_str(_take(cfg, "time_var", "", default="t"), "time_var")
    interval_raw = _take(cfg, "interval", "", required=True)
    if not isinstance(interval_raw, list) or len(interval_raw) != 2:
        raise ConfigError("interval must be [min, max]")
    lo = _as_number(interval_raw[0], "interval[0]")
    hi = _as_number(interval_raw[1], "interval[1]")
    if not lo < hi:
        raise ConfigError("interval: min must be below max")
    fiber, fiber_defaults = _fiber_from_config(cfg)
    warping = _take_field(cfg, "warping", (time_var,))
    job.spec = GRWSpec(warping, fiber, (lo, hi))
    job.metric = assemble_warped_metric(job.spec)
    job.defaults = {time_var: (lo, hi, DEFAULT_COUNT), **fiber_defaults}


def _assemble_static(cfg: dict, job: _Job) -> None:
    time_var = _as_str(_take(cfg, "time_var", "", default="t"), "time_var")
    fiber, fiber_defaults = _fiber_from_config(cfg)
    lapse = _take_field(cfg, "lapse", fiber.chart)
    job.spec = StaticSpec(lapse, fiber, time_var)
    job.metric = assemble_warped_metric(job.spec)
    job.defaults = {**_unit_ranges((time_var,)), **fiber_defaults}


def _assemble_walker3(cfg: dict, job: _Job) -> None:
    job.defaults = _unit_ranges(WALKER3_CHART)
    if job.command == "construct":
        if "metric_function" in cfg:
            raise ConfigError(
                "construct derives the metric function; remove 'metric_function'"
            )
        eta = _take_field(cfg, "eta", ("y",))
        zeta = _take_field(cfg, "zeta", ("x", "y"))
        job.spec = Walker3Construction(
            job.constants.get("kappa", 0.0), eta, zeta
        )
        job.chart = WALKER3_CHART
        return
    q = _take_field(cfg, "metric_function", WALKER3_CHART)
    job.spec = Walker3Spec(q)
    job.metric = walker3_metric(job.spec)


def _assemble_walker4(cfg: dict, job: _Job) -> None:
    warping = _take_field(cfg, "warping", ("t",))
    coupling = {key: value for key, value in job.constants.items()
                if key in WALKER4_CONSTANTS}
    job.spec = Walker4Spec(warping, **coupling)
    job.metric = walker4_metric(job.spec)
    job.defaults = _unit_ranges(WALKER4_CHART)


def _construct_walker3(job: _Job, args: argparse.Namespace) -> int:
    y_lo, y_hi, y_count = job.ranges["y"]
    (check,), _ = _sample(("y",), {"y": (y_lo, y_hi, max(y_count, 9))})
    f, q = walker3_construct(
        job.spec, paper_literal=args.paper_literal, check_points=check
    )
    comments = [f"#f={f}", f"#metric_function={q}"]
    return _check_grid(job, args.out, walker3_metric(Walker3Spec(q)), f,
                       comments, {"f": f, "metric_function": q},
                       ["residual_max"])


def _construct_walker4(job: _Job, args: argparse.Namespace) -> int:
    spec = job.spec
    f = walker4_construct(spec, paper_literal=args.paper_literal)
    comments = [
        f"#f={f}",
        f"#tprofile_slope=0.5*(({spec.warping})*({spec.c0:.12g}*t"
        f"+{spec.c1:.12g})+{spec.c0:.12g}*I(t))",
    ]
    return _check_grid(job, args.out, job.metric, f, comments, {"f": f},
                       ["residual_max"])


def _construct_grw(job: _Job, args: argparse.Namespace) -> int:
    """Check the reduced system r1-r3 at the grid's times, at every
    fiber point of the grid that differs in the coordinates the fiber
    metric reads, the others pinned at their first grid value: one
    point for a flat fiber.  The system equals the soliton equation
    only where the fiber's scalar curvature is constant, so the verdict
    takes the worst of all of them and names it by t and those
    coordinates.  Lambda and the CSV rows come from the first fiber
    point."""
    if args.paper_literal:
        raise ConfigError("--paper-literal has no variant for family 'grw'")
    spec = job.spec
    if "alpha" not in job.constants:
        raise ConfigError("missing required key 'constants.alpha'")
    alpha = job.constants["alpha"]
    t0 = job.constants.get("t0", spec.interval[0])
    time_var = spec.time_var
    chart, read = spec.fiber.chart, list(spec.fiber.read_axes)
    ranges = {name: (*job.ranges[name][:2], 1) for name in chart}
    ranges.update((chart[k], job.ranges[chart[k]]) for k in read)
    _, fiber_points = _sample(chart, ranges)
    (t_samples,), _ = _sample((time_var,), {time_var: job.ranges[time_var]})
    potential = grw_potential_field(spec, alpha, t0)
    samples = grw_samples(spec, job.metric, potential, t_samples, fiber_points)
    count = len(t_samples)
    estimate = LambdaEstimate.of(samples.lambda_map()[:count])
    lam = job.constants.get("lambda", estimate.value)
    residual = samples.residual(lam)
    points = np.column_stack([
        np.tile(t_samples, len(fiber_points)),
        np.repeat(fiber_points[:, read], count, axis=0),
    ])
    report = ResidualReport.of(points, residual, job.tolerance)
    cells = np.column_stack([potential.at_points(t_samples[:, None]),
                             residual[:count]])
    comments = [
        f"#potential_slope=({_fmt(alpha)})/({spec.warping})",
        f"#t0={_fmt(t0)}",
    ]
    header = [time_var, "potential", "r1", "r2", "r3"]
    code, verdict = _verdict(lam, estimate, report, job.tolerance)
    _emit_csv(args.out, comments, header, [t_samples], cells, verdict=verdict)
    return code


_FAMILIES = {
    "custom": _Family(_assemble_custom),
    "warped": _Family(_assemble_warped),
    "grw": _Family(_assemble_grw, _construct_grw, ("lambda", "alpha", "t0")),
    "static": _Family(_assemble_static),
    "walker3": _Family(_assemble_walker3, _construct_walker3,
                       VERIFY_READS + ("kappa",)),
    "walker4": _Family(_assemble_walker4, _construct_walker4,
                       VERIFY_READS + WALKER4_CONSTANTS),
}


# =====================================================================
# Stage 4: output
# =====================================================================

def _fmt(value: float) -> str:
    return "%.12e" % float(value)


def _emit_csv(out_path: str | None, comments: Sequence[str],
              header: Sequence[str], axes: Sequence[np.ndarray],
              cells: np.ndarray, of: np.ndarray | None = None,
              verdict: str = "") -> None:
    """One row per point of the grid over ``axes``, first axis slowest:
    its coordinates, then the row of ``cells`` that ``of`` picks (None:
    row by row).  Each axis value and row of cells is formatted once.
    ``verdict`` goes to stdout before a report written there, and after
    a report written to ``out_path``, so a report that cannot be
    written prints no verdict."""
    row_format = ",".join(["%.12e"] * cells.shape[1])
    rows = [row_format % tuple(row) for row in cells.tolist()]
    picked = rows if of is None else map(rows.__getitem__, of.tolist())
    *outer, inner = [["%.12e," % value for value in axis.tolist()]
                     for axis in axes]
    points = [""]
    for values in outer:
        points = [point + value for point in points for value in values]
    lines = ["#schema=1", *comments, ",".join(header)]
    lines += [f"{point}{value}{row}" for (point, value), row
              in zip(itertools.product(points, inner), picked)]
    lines.append("")
    text = "\n".join(lines)
    if out_path is None:
        sys.stdout.write(verdict + text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    sys.stdout.write(verdict)


def _cmd_curvature(cfg: dict, args: argparse.Namespace) -> int:
    """Write the scalar curvature and the upper triangle of Ricci at
    every grid point.  The metric and its curvature are computed and
    formatted once per distinct metric point."""
    job = _build_job(cfg, "curvature", None, args.grid)
    chart = job.chart
    axes, pts = _sample(chart, job.ranges)
    n = len(chart)
    header = list(chart) + ["tau"] + [
        f"ricci_{chart[i]}_{chart[j]}" for i in range(n) for j in range(i, n)
    ]
    groups = distinct_points(pts, job.metric.read_axes)
    curv = groups.run(lambda q: curvature_from(metric_at(job.metric, q)))
    upper = np.triu_indices(n)
    cells = np.column_stack([curv.scalar, curv.ricci[:, upper[0], upper[1]]])
    _emit_csv(args.out, [], header, axes, cells, groups.of)
    return 0


def _verdict(lam: float, estimate: LambdaEstimate, report: ResidualReport,
             tolerance: float) -> tuple[int, str]:
    """The exit code and the PASS/FAIL line."""
    if report.passed and estimate.spread <= tolerance:
        return 0, f"PASS lambda={_fmt(lam)} class={classify(lam, tolerance)}\n"
    point = ", ".join("%.6g" % c for c in report.worst_point.tolist())
    return 1, f"FAIL max_residual={_fmt(report.max_abs)} at ({point})\n"


def _check_grid(job: _Job, out: str | None, metric: MetricField,
                potential: ScalarField, comments: Sequence[str],
                fields: Mapping[str, ScalarField],
                columns: Sequence[str]) -> int:
    """Check the soliton equation on the job's grid, print the verdict
    and write one row per point: the point, ``fields`` evaluated there,
    then ``columns`` (residual_max, tau, lap_potential, lambda_point).
    All but the verdict's mean and worst point run once per distinct
    point of the coordinates the metric, the potential or a field reads."""
    axes, pts = _sample(job.chart, job.ranges)
    reads = potential.root.reads.union(*(fn.root.reads for fn in fields.values()))
    union = {*metric.read_axes, *map(job.chart.index, reads)}
    groups = distinct_points(pts, sorted(union))
    geometry = groups.run(lambda q: point_geometry(metric, potential, q))
    mu = job.constants.get("mu", 0.0)
    samples = geometry.lambda_estimate(mu).samples
    estimate = LambdaEstimate.of(groups.gather(samples))
    lam = job.constants.get("lambda", estimate.value)
    residual_max = geometry.residual_report(lam, mu, job.tolerance).per_point
    report = ResidualReport.of(pts, groups.gather(residual_max), job.tolerance)
    computed = {
        "residual_max": residual_max,
        "tau": geometry.scal,
        "lap_potential": geometry.lap,
        "lambda_point": samples,
    }
    cells = np.column_stack(
        [fn.at_points(groups.points) for fn in fields.values()]
        + [computed[name] for name in columns]
    )
    header = list(job.chart) + list(fields) + list(columns)
    code, verdict = _verdict(lam, estimate, report, job.tolerance)
    _emit_csv(out, comments, header, axes, cells, groups.of, verdict=verdict)
    return code


def _cmd_verify(cfg: dict, args: argparse.Namespace) -> int:
    job = _build_job(cfg, "verify", args.tol, args.grid)
    if job.potential_src is None:
        raise ConfigError("missing required key 'potential'")
    potential = _parse_field(job.potential_src, job.chart, "potential")
    return _check_grid(job, args.out, job.metric, potential, [], {},
                       ["residual_max", "tau", "lap_potential", "lambda_point"])


def _cmd_construct(cfg: dict, args: argparse.Namespace) -> int:
    job = _build_job(cfg, "construct", args.tol, args.grid)
    return job.family.construct(job, args)


# =====================================================================
# Stage 1: argument handling
# =====================================================================

_COMMANDS = {
    "curvature": _cmd_curvature,
    "verify": _cmd_verify,
    "construct": _cmd_construct,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every
    main call."""
    # argparse reads a value that starts with '-' as an option unless
    # it matches this (by default only plain decimals such as -1 or
    # -.5), so `--tol -1e-3` or `--tol -inf` would stop with "expected
    # one argument" before the tolerance checks.  Any negative number
    # float() reads is a value here.
    negative_number = re.compile(
        r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$",
        re.IGNORECASE,
    )
    parser = argparse.ArgumentParser(
        prog="soliton-lab",
        description=(
            "Curvature tables, soliton verification and explicit "
            "constructions on coordinate charts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "curvature": "tabulate scalar and Ricci curvature over a grid",
        "verify": "check a potential against the soliton equation",
        "construct": "build a family's explicit potential and verify it",
    }
    for name, text in descriptions.items():
        cmd = sub.add_parser(name, help=text)
        cmd._negative_number_matcher = negative_number
        cmd.add_argument("config", help="path to a JSON job file")
        cmd.add_argument("--out", help="write the CSV report to this path")
        if name != "curvature":
            cmd.add_argument("--tol", type=float,
                             help="override the config tolerance")
        cmd.add_argument("--grid", type=int,
                         help="override the per-axis sample count")
        if name == "construct":
            cmd.add_argument("--paper-literal", action="store_true",
                             dest="paper_literal",
                             help="use the uncorrected walker3 or walker4 "
                                  "construction (expected to fail verification)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args.config)
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolitonLabError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("config error: an expression or a JSON value nests too deeply",
              file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
