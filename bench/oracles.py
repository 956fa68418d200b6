"""Output oracles for benchmark jobs, run outside the timed region.

Each oracle reads the exit code, the verdict line and the CSV report of
one job and returns a list of problems (empty when the output is
right).  The expected values are closed forms worked out by hand for
the job's family, or, for the deep curvature jobs, a finite-difference
curvature of the job's own formulas evaluated by Python's `math`.  No
oracle calls into solitonlab: none shares code with `eval_jet2`, the
einsum curvature pipeline or the CLI's formatting.

Closed forms used (k, c, c0.. are the job's seeded constants):

* cosmological verify, g = -dt^2 + t^2 g_flat3, phi = -k ln t, mu = 1/3:
  tau = 6/t^2, Lap phi = 2k/t^2, |grad phi|^2 = -k^2/t^2, so
  lambda_point = 6/t^2 - (2k + mu k^2) / (4 t^2)  (0 when k = 6).
* static verify, g = -exp(2 x2) dt^2 + dx1^2 + dx2^2, phi = x1 + c x2:
  tau = -2, Lap phi = c, lambda_point = -2 - c/3  (c = 0 passes).
* walker4 construct, w = a + b sin t: lambda = -c0 (the paper-literal
  variant leaves a residual of at least |c0|), and
  f - x (c0 z + c2) - y (c0 u + c1) - c3 z = tpart(t), with u = t
  (u = z for the paper-literal variant) and tpart the integral from t0
  of (w (c0 t + c1) + c0 I) / 2, I the integral of w from t0.
* grw construct, w = t, alpha = 6: potential = 6 ln(t / t0), every
  system residual and lambda vanish.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence

import numpy as np

__all__ = ["check_job", "parse_csv", "fd_curvature", "compile_component"]

TOL = 1e-8  # the CLI's default tolerance; benchmark jobs do not override it


def parse_csv(text: str) -> tuple[list[str], list[str], list[list[float]]]:
    """Comment lines (after the schema line), header and float rows."""
    lines = text.splitlines()
    if not lines or lines[0] != "#schema=1":
        raise ValueError("report does not start with '#schema=1'")
    body = lines[1:]
    comments = []
    while body and body[0].startswith("#"):
        comments.append(body.pop(0))
    if not body:
        raise ValueError("report has no header")
    header = body[0].split(",")
    rows = []
    for number, line in enumerate(body[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row {number} has {len(cells)} cells")
        rows.append([float(cell) for cell in cells])
    return comments, header, rows


def _grid(chart: Sequence[str], grid: dict) -> list[tuple[float, ...]]:
    axes = [np.linspace(grid[name][0], grid[name][1], grid[name][2])
            for name in chart]
    mesh = np.meshgrid(*axes, indexing="ij")
    return [tuple(row) for row in np.stack([m.ravel() for m in mesh], -1)]


def _close(a: float, b: float, rel: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= rel * (scale + abs(b))


def _check_points(rows, points, problems: list[str]) -> None:
    if len(rows) != len(points):
        problems.append(f"{len(rows)} rows, expected {len(points)}")
        return
    for row, point in zip(rows, points):
        for got, want in zip(row, point):
            if not _close(got, want, 1e-11):
                problems.append(f"grid coordinate {got!r} != {want!r}")
                return


def _check_verdict(stdout: str, exit_code: int, expect_exit: int,
                   residuals: Sequence[float], points: Sequence[Sequence[float]],
                   pass_check: Callable[[float, str], str | None],
                   problems: list[str]) -> None:
    """PASS lines go through ``pass_check(lambda, class)``; FAIL lines
    must name the largest residual of the report and a point where it
    occurs."""
    if exit_code != expect_exit:
        problems.append(f"exit code {exit_code}, expected {expect_exit}")
    lines = stdout.splitlines()
    if len(lines) != 1:
        problems.append(f"expected one verdict line, got {len(lines)}")
        return
    line = lines[0]
    if expect_exit == 0:
        parts = line.split(" ")
        if (len(parts) != 3 or parts[0] != "PASS"
                or not parts[1].startswith("lambda=")
                or not parts[2].startswith("class=")):
            problems.append(f"bad PASS line {line!r}")
            return
        complaint = pass_check(float(parts[1][len("lambda="):]),
                               parts[2][len("class="):])
        if complaint:
            problems.append(complaint)
        if max(residuals) > TOL:
            problems.append(f"PASS with residual {max(residuals):.3e}")
        return
    worst = max(residuals)
    head = f"FAIL max_residual={'%.12e' % worst} at ("
    if not line.startswith(head) or not line.endswith(")"):
        problems.append(f"FAIL line {line!r} does not report {worst:.12e}")
        return
    named = line[len(head):-1]
    spots = {", ".join("%.6g" % c for c in p)
             for p, r in zip(points, residuals) if r == worst}
    if named not in spots:
        problems.append(f"FAIL line names ({named}), not a worst point")
    if worst <= TOL:
        problems.append("FAIL with every residual inside the tolerance")


def _classify(lam: float) -> str:
    if lam > TOL:
        return "shrinking"
    if lam < -TOL:
        return "expanding"
    return "steady"


def _expect_lambda(want: float) -> Callable[[float, str], str | None]:
    def check(lam: float, cls: str) -> str | None:
        if abs(lam - want) > TOL or cls != _classify(want):
            return f"PASS lambda={lam!r} class={cls}, expected {want!r}"
        return None
    return check


# ---------------------------------------------------------------------
# verify-mixed
# ---------------------------------------------------------------------

def _check_verify(job, exit_code, stdout, csv_text) -> list[str]:
    problems: list[str] = []
    f = job.facts
    chart = f["chart"]
    _, header, rows = parse_csv(csv_text)
    want = chart + ["residual_max", "tau", "lap_potential", "lambda_point"]
    if header != want:
        return [f"header {header} != {want}"]
    points = _grid(chart, f["grid"])
    _check_points(rows, points, problems)
    n = len(chart)
    for row in rows:
        coords = row[:n]
        residual, tau, lap, lam_point = row[n:]
        if job.kind == "cosmo_verify":
            t = coords[0]
            k, mu = f["k"], f["mu"]
            tau_w = 6.0 / t ** 2
            lap_w = 2.0 * k / t ** 2
            lam_w = tau_w - (2.0 * k + mu * k * k) / (4.0 * t * t)
            scale = tau_w
        else:
            c = f["c"]
            tau_w, lap_w, lam_w, scale = -2.0, c, -2.0 - c / 3.0, 2.0
        if not _close(tau, tau_w, 1e-10, scale):
            problems.append(f"tau {tau!r} != {tau_w!r} at {coords}")
        if not _close(lap, lap_w, 1e-10, scale):
            problems.append(f"lap_potential {lap!r} != {lap_w!r} at {coords}")
        if abs(lam_point - lam_w) > TOL:
            problems.append(f"lambda_point {lam_point!r} != {lam_w!r} at {coords}")
        if problems:
            break
    residuals = [row[n] for row in rows]
    _check_verdict(stdout, exit_code, job.expect_exit, residuals,
                   [row[:n] for row in rows], _expect_lambda(f["lam"]),
                   problems)
    return problems


# ---------------------------------------------------------------------
# construct-quad
# ---------------------------------------------------------------------

def walker4_tpart(f: dict, t: float) -> float:
    """Closed-form time profile of the walker4 construction."""
    a, b, c0, c1, t0 = f["a"], f["b"], f["c0"], f["c1"], f["t0"]

    def antiderivative(u: float) -> float:
        w_line = a * (c0 * u * u / 2.0 + c1 * u) + b * (
            -(c0 * u + c1) * math.cos(u) + c0 * math.sin(u))
        running = a * (u - t0) ** 2 / 2.0 - b * (math.sin(u) - u * math.cos(t0))
        return 0.5 * (w_line + c0 * running)

    return antiderivative(t) - antiderivative(t0)


def _check_walker4(job, exit_code, stdout, csv_text) -> list[str]:
    problems: list[str] = []
    f = job.facts
    comments, header, rows = parse_csv(csv_text)
    if header != ["x", "y", "z", "t", "f", "residual_max"]:
        return [f"header {header}"]
    if (len(comments) != 2 or not comments[0].startswith("#f=")
            or not comments[1].startswith("#tprofile_slope=")):
        problems.append(f"comments {comments}")
    chart = ["x", "y", "z", "t"]
    points = _grid(chart, {name: [-1.0, 1.0, 3] for name in chart})
    _check_points(rows, points, problems)
    c0, c1, c2, c3 = f["c0"], f["c1"], f["c2"], f["c3"]
    seen: dict[float, float] = {}
    for x, y, z, t, value, _ in rows:
        u = z if f["literal"] else t
        profile = value - (x * (c0 * z + c2) + y * (c0 * u + c1) + c3 * z)
        first = seen.setdefault(t, profile)
        # Rows sharing t share the profile value exactly (up to the CSV's
        # 13 digits).  Against the closed form the CLI's interpolated
        # quadrature table (33 knots, monotone cubic) is off by up to
        # about 1e-4, hence the looser bound.
        if (not _close(profile, first, 1e-10, 1.0 + abs(value))
                or not _close(profile, walker4_tpart(f, t), 1e-3)):
            problems.append(f"f {value!r} at {(x, y, z, t)}: profile "
                            f"{profile!r} != {walker4_tpart(f, t)!r}")
            break
    residuals = [row[5] for row in rows]
    if f["literal"]:
        # The literal potential's yz hessian entry is c0 where the
        # equation needs 0 (g_yz = 0), so no report can show less.
        worst = max(residuals)
        if worst < abs(c0) * (1.0 - 1e-9):
            problems.append(f"literal residual {worst!r} < |c0| = {abs(c0)!r}")
    _check_verdict(stdout, exit_code, job.expect_exit, residuals,
                   [row[:4] for row in rows], _expect_lambda(-c0), problems)
    return problems


def _check_grw(job, exit_code, stdout, csv_text) -> list[str]:
    problems: list[str] = []
    f = job.facts
    comments, header, rows = parse_csv(csv_text)
    if header != ["t", "potential", "r1", "r2", "r3"]:
        return [f"header {header}"]
    if (len(comments) != 2 or not comments[0].startswith("#potential_slope=")
            or not comments[1].startswith("#t0=")):
        problems.append(f"comments {comments}")
    samples = np.linspace(f["lo"], f["hi"], job.rows)
    _check_points([row[:1] for row in rows], [(s,) for s in samples], problems)
    for t, potential, r1, r2, r3 in rows:
        want = f["alpha"] * math.log(t / f["t0"])
        if abs(potential - want) > 1e-8:
            problems.append(f"potential {potential!r} != {want!r} at t={t!r}")
            break
        if max(abs(r1), abs(r2), abs(r3)) > TOL:
            problems.append(f"system residual above tolerance at t={t!r}")
            break
    residuals = [max(abs(r) for r in row[2:]) for row in rows]
    _check_verdict(stdout, exit_code, job.expect_exit, residuals,
                   [row[:1] for row in rows], _expect_lambda(0.0), problems)
    return problems


# ---------------------------------------------------------------------
# curvature-deep: finite-difference curvature of the job's formulas
# ---------------------------------------------------------------------

_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
         "ln": math.log, "sqrt": math.sqrt, "__builtins__": {}}


def compile_component(source: str, chart: Sequence[str]) -> Callable:
    """A Python function of a point for one component formula.  The
    formulas the benchmark generates are valid Python once ``^`` is
    excluded, so Python itself is the independent evaluator."""
    if "^" in source:
        raise ValueError("power syntax is not supported by the oracle")
    code = compile(source, "<component>", "eval")
    names = tuple(chart)

    def value(point: Sequence[float]) -> float:
        env = dict(_MATH)
        env.update(zip(names, point))
        return float(eval(code, env))

    return value


# Weights of the fourth-order central first-derivative stencil.
_D1 = {-2: 1.0, -1: -8.0, 1: 8.0, 2: -1.0}
# Fourth-order central second-derivative stencil.
_D2 = {-2: -1.0, -1: 16.0, 0: -30.0, 1: 16.0, 2: -1.0}


def fd_curvature(components: Sequence[Sequence[Callable]],
                 point: Sequence[float], h: float = 1e-3,
                 ) -> tuple[float, np.ndarray]:
    """Scalar curvature and Ricci tensor at ``point`` from fourth-order
    central differences of plain metric values, assembled with explicit
    loops in the package's conventions (round unit 2-sphere: +2)."""
    n = len(point)
    p = np.asarray(point, dtype=float)
    cache: dict[tuple, np.ndarray] = {}

    def g_at(steps: tuple) -> np.ndarray:
        if steps not in cache:
            q = p + h * np.asarray(steps, dtype=float)
            g = np.empty((n, n))
            for i in range(n):
                for j in range(i, n):
                    g[i, j] = g[j, i] = components[i][j](q)
            cache[steps] = g
        return cache[steps]

    def step(axis: int, size: int, other: int = 0, other_size: int = 0):
        s = [0] * n
        s[axis] += size
        s[other] += other_size
        return tuple(s)

    g = g_at(tuple([0] * n))
    dg = np.zeros((n, n, n))        # dg[a, i, j] = d_a g_ij
    d2g = np.zeros((n, n, n, n))    # d2g[a, b, i, j] = d_a d_b g_ij
    for a in range(n):
        dg[a] = sum(w * g_at(step(a, s)) for s, w in _D1.items()) / (12 * h)
        d2g[a, a] = sum(w * g_at(step(a, s)) for s, w in _D2.items()) / (12 * h * h)
        for b in range(a + 1, n):
            mixed = sum(wa * wb * g_at(step(a, sa, b, sb))
                        for sa, wa in _D1.items() for sb, wb in _D1.items())
            d2g[a, b] = d2g[b, a] = mixed / (144 * h * h)
    ginv = np.linalg.inv(g)
    dginv = [-(ginv @ dg[m] @ ginv) for m in range(n)]
    gam = np.zeros((n, n, n))       # gam[k, i, j] = Gamma^k_ij
    dgam = np.zeros((n, n, n, n))   # dgam[m, k, i, j] = d_m Gamma^k_ij
    for k in range(n):
        for i in range(n):
            for j in range(n):
                total = 0.0
                for l in range(n):
                    t_ijl = dg[i, j, l] + dg[j, i, l] - dg[l, i, j]
                    total += ginv[k, l] * t_ijl
                    for m in range(n):
                        dt = d2g[m, i, j, l] + d2g[m, j, i, l] - d2g[m, l, i, j]
                        dgam[m, k, i, j] += 0.5 * (dginv[m][k, l] * t_ijl
                                                   + ginv[k, l] * dt)
                gam[k, i, j] = 0.5 * total
    ricci = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            total = 0.0
            for i in range(n):
                total += dgam[i, i, j, k] - dgam[k, i, i, j]
                for m in range(n):
                    total += gam[i, i, m] * gam[m, j, k] - gam[i, k, m] * gam[m, i, j]
            ricci[j, k] = total
    scalar = float(sum(ginv[j, k] * ricci[j, k]
                       for j in range(n) for k in range(n)))
    return scalar, ricci


FD_ROWS = 4      # rows checked per deep curvature report
# Relative to 1 + the largest |Ricci| entry at the point; the stencil's
# own error on these metrics stays below 1e-9.
FD_REL = 1e-7


def _check_deep(job, exit_code, stdout, csv_text) -> list[str]:
    problems: list[str] = []
    f = job.facts
    chart = f["chart"]
    n = len(chart)
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if stdout:
        problems.append("curvature printed a verdict")
    _, header, rows = parse_csv(csv_text)
    want = chart + ["tau"] + [f"ricci_{chart[i]}_{chart[j]}"
                              for i in range(n) for j in range(i, n)]
    if header != want:
        return problems + [f"header {header}"]
    points = _grid(chart, f["grid"])
    _check_points(rows, points, problems)
    if problems:
        return problems
    comps = [[compile_component(f["metric"][i][j], chart) for j in range(n)]
             for i in range(n)]
    pick = random.Random(job.name)
    sample = sorted({0, len(rows) - 1, *pick.sample(range(len(rows)), FD_ROWS - 2)})
    for index in sample:
        row = rows[index]
        scalar, ricci = fd_curvature(comps, row[:n])
        upper = [ricci[i, j] for i in range(n) for j in range(i, n)]
        scale = 1.0 + max(abs(v) for v in upper)
        got = row[n:]
        for got_v, want_v in zip(got, [scalar] + upper):
            if abs(got_v - want_v) > FD_REL * scale:
                problems.append(f"row {index}: {got_v!r} != finite-difference "
                                f"{want_v!r}")
                return problems
    return problems


_CHECKS = {
    "cosmo_verify": _check_verify,
    "static_verify": _check_verify,
    "walker4_construct": _check_walker4,
    "grw_construct": _check_grw,
    "deep_curvature": _check_deep,
}


def check_job(job, exit_code: int, stdout: str, csv_text: str) -> list[str]:
    """Problems with one job's output; an empty list means correct."""
    try:
        return _CHECKS[job.kind](job, exit_code, stdout, csv_text)
    except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        return [f"unreadable output: {exc!r}"]
