"""Command line front end: curvature tables, soliton verification, and
explicit constructions, driven by JSON job files.

The pipeline has four stages:

  1. Argument handling.  Three subcommands (curvature, verify,
     construct) share the flags --out, --tol and --grid; construct
     alone takes --paper-literal, for the walker3 and walker4 families.
  2. Strict config reading.  Every key is checked by name and type;
     unknown or misplaced keys fail the run with exit code 2 and a
     message naming the offending field.  Nothing is silently ignored.
  3. Family assembly.  The "family" key selects one of custom, warped,
     grw, static, walker3 or walker4; each family knows its default
     sampling grid and how to build its metric (and, for construct,
     its potential).
  4. Output.  Reports are CSV with a fixed schema line, a header row,
     and %.12e floats in lexicographic grid order, so identical jobs
     produce byte-identical files.  Verification prints a single
     PASS/FAIL line on stdout.

Exit codes: 0 verified or completed, 1 a residual or constancy check
failed, 2 bad configuration or arguments, 3 a numeric failure such as
a singular metric or a quadrature breakdown.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Mapping, Sequence

import numpy as np

from .curvature import curvature_from
from .errors import (
    ConfigError,
    ExpressionSyntaxError,
    SolitonLabError,
    UnknownVariableError,
)
from .expressions import ScalarField, parse_expression
from .families import (
    GRWSpec,
    StaticSpec,
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
from .grids import grid_points
from .metrics import MetricField, flat_metric, metric_at, sphere_metric
from .soliton import LambdaEstimate, PointGeometry, classify, point_geometry

__all__ = ["main"]

DEFAULT_TOLERANCE = 1e-8
DEFAULT_COUNT = 5

CONSTANT_KEYS = ("lambda", "mu", "alpha", "kappa", "c0", "c1", "c2", "c3", "t0")

Range = tuple[float, float, int]


# =====================================================================
# Stage 2: strict config reading
# =====================================================================

def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
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


def _metric_from_config(obj: Any, path: str) -> MetricField:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    obj = dict(obj)
    chart = _as_chart(_take(obj, "chart", path, required=True), f"{path}.chart")
    rows = _take(obj, "metric", path, required=True)
    signature = _as_str(
        _take(obj, "signature", path, required=True), f"{path}.signature"
    )
    _reject_unknown(obj, path)
    n = len(chart)
    if not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise ConfigError(f"{path}.metric must be a {n}x{n} array of rows")
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if isinstance(cell, bool) or not isinstance(cell, (int, float, str)):
                raise ConfigError(
                    f"{path}.metric[{i}][{j}] must be a number or expression"
                )
    try:
        return MetricField.from_rows(chart, rows, signature)
    except (ExpressionSyntaxError, UnknownVariableError, ValueError) as exc:
        raise ConfigError(f"{path}.metric: {exc}") from exc


def _fiber_from_config(obj: Any, path: str) -> tuple[MetricField, dict[str, Range]]:
    """Fiber metric plus its default sampling ranges."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    obj = dict(obj)
    kind = _as_str(_take(obj, "type", path, required=True), f"{path}.type")
    if kind == "flat":
        chart = _as_chart(
            _take(obj, "chart", path, required=True), f"{path}.chart"
        )
        _reject_unknown(obj, path)
        metric = flat_metric(chart)
        defaults = {name: (-1.0, 1.0, DEFAULT_COUNT) for name in chart}
        return metric, defaults
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
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    obj = dict(obj)
    out: dict[str, float] = {}
    for key in CONSTANT_KEYS:
        if key in obj:
            out[key] = _as_number(obj.pop(key), f"{path}.{key}")
    _reject_unknown(obj, path)
    return out


def _grid_from_config(obj: Any, path: str,
                      chart: tuple[str, ...]) -> dict[str, Range]:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    out: dict[str, Range] = {}
    for name, spec in obj.items():
        if name not in chart:
            raise ConfigError(f"{path}.{name} does not name a chart coordinate")
        where = f"{path}.{name}"
        if not isinstance(spec, list) or len(spec) != 3:
            raise ConfigError(f"{where} must be [min, max, count]")
        lo = _as_number(spec[0], f"{where}[0]")
        hi = _as_number(spec[1], f"{where}[1]")
        count = _as_int(spec[2], f"{where}[2]")
        if not lo < hi:
            raise ConfigError(f"{where}: min must be below max")
        if count < 2:
            raise ConfigError(f"{where}: count must be at least 2")
        out[name] = (lo, hi, count)
    return out


def _resolve_ranges(chart: tuple[str, ...], cfg_grid: dict[str, Range],
                    defaults: dict[str, Range],
                    override_count: int | None) -> dict[str, Range]:
    ranges: dict[str, Range] = {}
    for name in chart:
        if name in cfg_grid:
            ranges[name] = cfg_grid[name]
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

@dataclass
class _Job:
    family: str
    command: str
    metric: MetricField | None
    defaults: dict[str, Range]
    constants: dict[str, float]
    grid_cfg: dict[str, Range]
    tolerance: float
    potential_src: str | None
    extras: dict = dataclass_field(default_factory=dict)


def _build_job(cfg: dict, command: str, tol_flag: float | None) -> _Job:
    cfg = dict(cfg)
    family = _as_str(_take(cfg, "family", "", required=True), "family")
    tolerance = _as_number(
        _take(cfg, "tolerance", "", default=DEFAULT_TOLERANCE), "tolerance"
    )
    if tol_flag is not None:
        tolerance = tol_flag
    if tolerance <= 0.0:
        raise ConfigError("tolerance must be positive")
    constants = _constants_from_config(_take(cfg, "constants", ""), "constants")
    potential_src = _take(cfg, "potential", "")
    if potential_src is not None:
        potential_src = _as_str(potential_src, "potential")
    if command == "construct" and potential_src is not None:
        raise ConfigError("construct derives the potential; remove 'potential'")
    grid_raw = _take(cfg, "grid", "")

    builders = {
        "custom": _assemble_custom,
        "warped": _assemble_warped,
        "grw": _assemble_grw,
        "static": _assemble_static,
        "walker3": _assemble_walker3,
        "walker4": _assemble_walker4,
    }
    if family not in builders:
        raise ConfigError(
            f"family must be one of {', '.join(sorted(builders))}, not {family!r}"
        )
    job = _Job(family, command, None, {}, constants, {}, tolerance,
               potential_src)
    try:
        builders[family](cfg, job)
    except ConfigError:
        raise
    except (ExpressionSyntaxError, UnknownVariableError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    _reject_unknown(cfg, "")
    chart = job.metric.chart if job.metric is not None else job.extras["chart"]
    job.grid_cfg = _grid_from_config(grid_raw, "grid", chart)
    return job


def _assemble_custom(cfg: dict, job: _Job) -> None:
    if job.command == "construct":
        raise ConfigError("family 'custom' has no construction")
    job.metric = _metric_from_config(
        {
            "chart": _take(cfg, "chart", "", required=True),
            "metric": _take(cfg, "metric", "", required=True),
            "signature": _take(cfg, "signature", "", required=True),
        },
        "",
    )


def _assemble_warped(cfg: dict, job: _Job) -> None:
    if job.command == "construct":
        raise ConfigError("family 'warped' has no construction")
    base = _metric_from_config(_take(cfg, "base", "", required=True), "base")
    fiber, fiber_defaults = _fiber_from_config(
        _take(cfg, "fiber", "", required=True), "fiber"
    )
    warping = _parse_field(
        _take(cfg, "warping", "", required=True), base.chart, "warping"
    )
    spec = WarpedProductSpec(base, fiber, warping)
    job.metric = assemble_warped_metric(spec)
    job.defaults = dict(fiber_defaults)
    job.extras["spec"] = spec


def _assemble_grw(cfg: dict, job: _Job) -> None:
    time_var = _as_str(_take(cfg, "time_var", "", default="t"), "time_var")
    interval_raw = _take(cfg, "interval", "", required=True)
    if not isinstance(interval_raw, list) or len(interval_raw) != 2:
        raise ConfigError("interval must be [min, max]")
    lo = _as_number(interval_raw[0], "interval[0]")
    hi = _as_number(interval_raw[1], "interval[1]")
    if not lo < hi:
        raise ConfigError("interval: min must be below max")
    fiber, fiber_defaults = _fiber_from_config(
        _take(cfg, "fiber", "", required=True), "fiber"
    )
    warping = _parse_field(
        _take(cfg, "warping", "", required=True), (time_var,), "warping"
    )
    spec = GRWSpec(warping, fiber, (lo, hi))
    job.metric = assemble_warped_metric(spec)
    job.defaults = {time_var: (lo, hi, DEFAULT_COUNT), **fiber_defaults}
    job.extras["spec"] = spec


def _assemble_static(cfg: dict, job: _Job) -> None:
    if job.command == "construct":
        raise ConfigError("family 'static' has no construction")
    time_var = _as_str(_take(cfg, "time_var", "", default="t"), "time_var")
    fiber, fiber_defaults = _fiber_from_config(
        _take(cfg, "fiber", "", required=True), "fiber"
    )
    lapse = _parse_field(
        _take(cfg, "lapse", "", required=True), fiber.chart, "lapse"
    )
    spec = StaticSpec(lapse, fiber, time_var)
    job.metric = assemble_warped_metric(spec)
    job.defaults = {time_var: (-1.0, 1.0, DEFAULT_COUNT), **fiber_defaults}
    job.extras["spec"] = spec


WALKER_DEFAULTS3 = {name: (-1.0, 1.0, DEFAULT_COUNT) for name in ("t", "x", "y")}
WALKER_DEFAULTS4 = {
    name: (-1.0, 1.0, DEFAULT_COUNT) for name in ("x", "y", "z", "t")
}


def _assemble_walker3(cfg: dict, job: _Job) -> None:
    job.defaults = dict(WALKER_DEFAULTS3)
    if job.command == "construct":
        if "metric_function" in cfg:
            raise ConfigError(
                "construct derives the metric function; remove 'metric_function'"
            )
        eta = _parse_field(
            _take(cfg, "eta", "", required=True), ("y",), "eta"
        )
        zeta = _parse_field(
            _take(cfg, "zeta", "", required=True), ("x", "y"), "zeta"
        )
        job.extras["construction"] = Walker3Construction(
            job.constants.get("kappa", 0.0), eta, zeta
        )
        job.extras["chart"] = ("t", "x", "y")
        return
    q = _parse_field(
        _take(cfg, "metric_function", "", required=True),
        ("t", "x", "y"),
        "metric_function",
    )
    spec = Walker3Spec(q)
    job.metric = walker3_metric(spec)
    job.extras["spec"] = spec


def _assemble_walker4(cfg: dict, job: _Job) -> None:
    warping = _parse_field(
        _take(cfg, "warping", "", required=True), ("t",), "warping"
    )
    c = job.constants
    spec = Walker4Spec(
        warping,
        c.get("c0", 0.0),
        c.get("c1", 0.0),
        c.get("c2", 0.0),
        c.get("c3", 0.0),
        c.get("t0", 0.0),
    )
    job.metric = walker4_metric(spec)
    job.defaults = dict(WALKER_DEFAULTS4)
    job.extras["spec"] = spec


# =====================================================================
# Stage 4: output
# =====================================================================

def _fmt(value: float) -> str:
    return "%.12e" % float(value)


def _fmt_point(point: Sequence[float]) -> str:
    return "(" + ", ".join("%.6g" % float(c) for c in point) + ")"


def _emit_csv(out_path: str | None, comments: Sequence[str],
              header: Sequence[str], rows: Sequence[Sequence[float]]) -> None:
    lines = ["#schema=1"]
    lines.extend(comments)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc}") from exc


def _cmd_curvature(cfg: dict, args: argparse.Namespace) -> int:
    job = _build_job(cfg, "curvature", args.tol)
    chart = job.metric.chart
    ranges = _resolve_ranges(chart, job.grid_cfg, job.defaults, args.grid)
    pts = grid_points(chart, ranges)
    n = len(chart)
    header = list(chart) + ["tau"] + [
        f"ricci_{chart[i]}_{chart[j]}" for i in range(n) for j in range(i, n)
    ]
    rows = []
    for p in pts:
        curv = curvature_from(metric_at(job.metric, p))
        row = list(p) + [curv.scalar]
        row.extend(curv.ricci[i, j] for i in range(n) for j in range(i, n))
        rows.append(row)
    _emit_csv(args.out, [], header, rows)
    return 0


def _verdict(lam: float, spread: float, worst: float,
             worst_point: Sequence[float], tolerance: float) -> int:
    """Print the PASS/FAIL line and return the exit code."""
    passed = worst <= tolerance and spread <= tolerance
    if passed:
        print(f"PASS lambda={_fmt(lam)} class={classify(lam, tolerance)}")
    else:
        print(f"FAIL max_residual={_fmt(worst)} at {_fmt_point(worst_point)}")
    return 0 if passed else 1


def _check(job: _Job,
           geometry: PointGeometry) -> tuple[LambdaEstimate, np.ndarray, int]:
    """Check the soliton equation with the job's constants and print the
    verdict.  Returns the lambda estimate, the largest residual entry
    at each point, and the exit code."""
    mu = job.constants.get("mu", 0.0)
    estimate = geometry.lambda_estimate(mu)
    lam = job.constants.get("lambda", estimate.value)
    report = geometry.residual_report(lam, mu, job.tolerance)
    code = _verdict(lam, estimate.spread, report.max_abs, report.worst_point,
                    job.tolerance)
    return estimate, np.abs(report.residual_grids).max(axis=(1, 2)), code


def _cmd_verify(cfg: dict, args: argparse.Namespace) -> int:
    job = _build_job(cfg, "verify", args.tol)
    if job.potential_src is None:
        raise ConfigError("missing required key 'potential'")
    chart = job.metric.chart
    potential = _parse_field(job.potential_src, chart, "potential")
    ranges = _resolve_ranges(chart, job.grid_cfg, job.defaults, args.grid)
    pts = grid_points(chart, ranges)
    geometry = point_geometry(job.metric, potential, pts)
    estimate, residual_max, code = _check(job, geometry)
    rows = [
        list(p) + [residual_max[i], geometry.scal[i], geometry.lap[i],
                   estimate.samples[i]]
        for i, p in enumerate(pts)
    ]
    header = list(chart) + ["residual_max", "tau", "lap_potential", "lambda_point"]
    _emit_csv(args.out, [], header, rows)
    return code


def _construct_walker3(job: _Job, args: argparse.Namespace) -> int:
    construction = job.extras["construction"]
    chart = ("t", "x", "y")
    ranges = _resolve_ranges(chart, job.grid_cfg, job.defaults, args.grid)
    y_lo, y_hi, y_count = ranges["y"]
    check = np.linspace(y_lo, y_hi, max(y_count, 9))
    f, q = walker3_construct(
        construction, paper_literal=args.paper_literal, check_points=check
    )
    metric = walker3_metric(Walker3Spec(q))
    pts = grid_points(chart, ranges)
    comments = [f"#f={f}", f"#metric_function={q}"]
    _, residual_max, code = _check(job, point_geometry(metric, f, pts))
    rows = [list(p) + [f(p), q(p), residual_max[i]] for i, p in enumerate(pts)]
    header = list(chart) + ["f", "metric_function", "residual_max"]
    _emit_csv(args.out, comments, header, rows)
    return code


def _construct_walker4(job: _Job, args: argparse.Namespace) -> int:
    spec = job.extras["spec"]
    chart = ("x", "y", "z", "t")
    ranges = _resolve_ranges(chart, job.grid_cfg, job.defaults, args.grid)
    t_lo, t_hi, _ = ranges["t"]
    interval = (min(t_lo, spec.t0) - 0.5, max(t_hi, spec.t0) + 0.5)
    f, profile = walker4_construct(
        spec, paper_literal=args.paper_literal, interval=interval
    )
    pts = grid_points(chart, ranges)
    comments = [
        f"#f={f}",
        f"#tprofile_slope=0.5*(({spec.warping})*({spec.c0:.12g}*t"
        f"+{spec.c1:.12g})+{spec.c0:.12g}*I(t))",
    ]
    _, residual_max, code = _check(job, point_geometry(job.metric, f, pts))
    rows = [list(p) + [f(p), residual_max[i]] for i, p in enumerate(pts)]
    header = list(chart) + ["f", "residual_max"]
    _emit_csv(args.out, comments, header, rows)
    return code


def _construct_grw(job: _Job, args: argparse.Namespace) -> int:
    spec = job.extras["spec"]
    if "alpha" not in job.constants:
        raise ConfigError("missing required key 'constants.alpha'")
    alpha = job.constants["alpha"]
    t0 = job.constants.get("t0", spec.interval[0])
    chart = job.metric.chart
    ranges = _resolve_ranges(chart, job.grid_cfg, job.defaults, args.grid)
    time_var = spec.time_var
    t_lo, t_hi, t_count = ranges[time_var]
    potential = grw_potential_field(spec, alpha, t0)
    fiber_names = [name for name in chart if name != time_var]
    fiber_point = [ranges[name][0] for name in fiber_names]
    t_samples = np.linspace(t_lo, t_hi, t_count)
    samples = grw_samples(spec, job.metric, potential, t_samples, fiber_point)
    lam_values = np.array([sample.lambda_map() for sample in samples])
    lam_hat = float(lam_values.mean())
    lam = job.constants.get("lambda", lam_hat)
    spread = float(np.max(np.abs(lam_values - lam_hat)))
    rows = []
    worst = 0.0
    worst_t = t_samples[0]
    for t, sample in zip(t_samples, samples):
        r1, r2, r3 = sample.residual(lam)
        size = max(abs(r1), abs(r2), abs(r3))
        if size > worst:
            worst, worst_t = size, t
        rows.append([t, potential((t,)), r1, r2, r3])
    comments = [
        f"#potential_slope=({_fmt(alpha)})/({spec.warping})",
        f"#t0={_fmt(t0)}",
    ]
    header = [time_var, "potential", "r1", "r2", "r3"]
    code = _verdict(lam, spread, worst, [worst_t], job.tolerance)
    _emit_csv(args.out, comments, header, rows)
    return code


def _cmd_construct(cfg: dict, args: argparse.Namespace) -> int:
    job = _build_job(cfg, "construct", args.tol)
    if job.family == "walker3":
        return _construct_walker3(job, args)
    if job.family == "walker4":
        return _construct_walker4(job, args)
    if job.family == "grw":
        if args.paper_literal:
            raise ConfigError("--paper-literal has no variant for family 'grw'")
        return _construct_grw(job, args)
    raise ConfigError(f"family {job.family!r} has no construction")


# =====================================================================
# Stage 1: argument handling
# =====================================================================

_COMMANDS = {
    "curvature": _cmd_curvature,
    "verify": _cmd_verify,
    "construct": _cmd_construct,
}


def _build_parser() -> argparse.ArgumentParser:
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
        cmd.add_argument("config", help="path to a JSON job file")
        cmd.add_argument("--out", help="write the CSV report to this path")
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
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolitonLabError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
