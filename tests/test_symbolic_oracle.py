"""The tensor residual of shipped configs, computed by sympy.

An oracle that shares no code with solitonlab: each config's metric is
built from its family's line element, with its formulas read from the
config text by sympy (``^`` turned into ``**``); the Christoffel
symbols, the Ricci tensor, the scalar curvature and the residual
Hess(phi) - (scal - lambda) g - mu dphi (x) dphi are derived
symbolically.  At every row of the CSV that ``verify`` writes, the
largest |entry| of that residual must match the row's residual_max
within a relative bound of 1e-12.

Each family's reduced system is checked the same way: on seeded
formulas in the family's ansatz that are not solutions, sympy derives
the covariant hessian, the scalar curvature and the tensor residual
from the line element, and the combinations of entries each reduced
equation stands for must match the package's residuals at seeded
points, within the same relative bound.  Both sides read the same
formula texts; the sympy side evaluates with 30 digits.

ROADMAP item 16: the GRW construct certifies the potential 6 ln t on
the warping t, which the full equation rejects with residual 12; the
construct's PASS, and the GRW reduced system's fiber equation and
lambda-free identity, are checked against the symbolic residual as
expected failures until that item lands.
"""

import csv
import functools
import json
import random
from pathlib import Path

import pytest

from solitonlab import MetricField, parse_expression
from solitonlab.cli import DEFAULT_TOLERANCE, main
from solitonlab.families import (
    GRWSpec,
    StaticSpec,
    Walker3Spec,
    Walker4Spec,
    assemble_warped_metric,
    grw_samples,
)

from conftest import static_system_residual
from jet_oracles import walker3_pde_residual, walker4_pde_residual

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# |symbolic - CSV| <= BOUND * max(1, |CSV|) at every row.
BOUND = 1e-12
FUNCTIONS = {"exp": sympy.exp, "ln": sympy.log, "sin": sympy.sin,
             "cos": sympy.cos, "sqrt": sympy.sqrt}
WALKER4_CHART = ("x", "y", "z", "t")


def _formula(text, symbols):
    return sympy.sympify(str(text).replace("^", "**"),
                         locals={**FUNCTIONS, **symbols})


def _line_element(cfg):
    """The chart's symbols, in the CSV's column order, and the metric."""
    family = cfg["family"]
    if family == "walker4":
        names = WALKER4_CHART
    else:
        assert cfg["fiber"]["type"] == "flat"
        names = ("t", *cfg["fiber"]["chart"])
    symbols = _symbols(names)
    fiber = len(names) - 1
    if family == "grw":
        w = _formula(cfg["warping"], symbols)
        g = sympy.diag(-1, *[w ** 2] * fiber)
    elif family == "static":
        lapse = _formula(cfg["lapse"], symbols)
        g = sympy.diag(-lapse ** 2, *[1] * fiber)
    else:
        w = _formula(cfg["warping"], symbols)
        g = sympy.Matrix([[0, 0, 1, 0], [0, 0, 0, 1],
                          [1, 0, 0, 0], [0, 1, 0, w]])
    return symbols, g


def _christoffel(xs, g, g_inv):
    """gamma[k][i][j] = Gamma^k_ij of g, symbolically."""
    n = len(xs)
    return [[[sum(g_inv[k, m] * (sympy.diff(g[j, m], xs[i])
                                 + sympy.diff(g[i, m], xs[j])
                                 - sympy.diff(g[i, j], xs[m]))
                  for m in range(n)) / 2
              for j in range(n)] for i in range(n)] for k in range(n)]


def _scalar(xs, g_inv, gamma):
    """The scalar curvature of the metric of gamma, symbolically."""
    n = len(xs)
    ricci = sympy.Matrix(n, n, lambda i, j: sum(
        sympy.diff(gamma[k][i][j], xs[k]) - sympy.diff(gamma[k][i][k], xs[j])
        + sum(gamma[k][k][m] * gamma[m][i][j]
              - gamma[k][j][m] * gamma[m][i][k] for m in range(n))
        for k in range(n)))
    return sum(g_inv[i, j] * ricci[i, j] for i in range(n) for j in range(n))


def _hessian(xs, gamma, phi):
    """The covariant hessian of phi, symbolically."""
    n = len(xs)
    return sympy.Matrix(n, n, lambda i, j: sympy.diff(phi, xs[i], xs[j])
                        - sum(gamma[k][i][j] * sympy.diff(phi, xs[k])
                              for k in range(n)))


def _residual(xs, g, phi, lam, mu):
    """Hess(phi) - (scal - lam) g - mu dphi (x) dphi, symbolically."""
    n = len(xs)
    g_inv = g.inv()
    gamma = _christoffel(xs, g, g_inv)
    dphi = [sympy.diff(phi, x) for x in xs]
    return (_hessian(xs, gamma, phi) - (_scalar(xs, g_inv, gamma) - lam) * g
            - mu * sympy.Matrix(n, n, lambda i, j: dphi[i] * dphi[j]))


def _largest_entry(symbols, residual):
    entries = sympy.lambdify(list(symbols.values()), list(residual),
                             modules="math")
    return lambda *point: max(abs(float(e)) for e in entries(*point))


def _rows(path):
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _verify(cfg, tmp_path, capsys):
    """Run verify on the config: exit code, verdict line, CSV rows."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "report.csv"
    code = main(["verify", str(path), "--out", str(out)])
    return code, capsys.readouterr().out, _rows(out)


def _check_rows(cfg, rows):
    """The largest gap between the symbolic residual and residual_max."""
    symbols, g = _line_element(cfg)
    constants = cfg.get("constants", {})
    phi = _formula(cfg["potential"], symbols)
    largest = _largest_entry(symbols, _residual(
        list(symbols.values()), g, phi, constants.get("lambda", 0.0),
        constants.get("mu", 0.0)))
    worst = 0.0
    for row in rows:
        expected = float(row["residual_max"])
        got = largest(*(float(row[name]) for name in symbols))
        assert abs(got - expected) <= BOUND * max(1.0, abs(expected)), row
        worst = max(worst, got)
    return worst


@pytest.mark.parametrize("name, code, verdict", [
    ("grw_gqy_verify", 0, "PASS"),
    ("static_verify", 0, "PASS"),
    ("walker4_verify_fail", 1, "FAIL max_residual=1.000000000000e+00"),
])
def test_the_csv_residual_is_the_symbolic_one(name, code, verdict, tmp_path,
                                              capsys):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    got_code, stdout, rows = _verify(cfg, tmp_path, capsys)
    assert (got_code, stdout.startswith(verdict)) == (code, True)
    assert len(rows) == {"static_verify": 125}.get(name, 625)
    _check_rows(cfg, rows)


def test_the_potential_the_grw_construct_builds_fails_the_equation(
        tmp_path, capsys):
    # ROADMAP item 16: 6 ln t on the warping t, the potential that
    # configs/grw_construct.json builds, with lambda 0.
    cfg = json.loads((CONFIGS / "grw_construct.json").read_text(
        encoding="utf-8"))
    cfg["potential"] = "6*ln(t)"
    cfg["constants"] = {"lambda": 0.0}
    code, stdout, rows = _verify(cfg, tmp_path, capsys)
    assert code == 1
    assert stdout.startswith("FAIL max_residual=1.200000000000e+01")
    assert _check_rows(cfg, rows) == pytest.approx(12.0, rel=BOUND)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: the GRW construct's "
                   "fiber equation has the wrong sign, so it certifies a "
                   "potential the full equation rejects")
def test_the_grw_construct_s_verdict_is_the_symbolic_one(tmp_path, capsys):
    out = tmp_path / "construct.csv"
    assert main(["construct", str(CONFIGS / "grw_construct.json"),
                 "--out", str(out)]) == 0
    verdict = capsys.readouterr().out
    lam = float(verdict.split("lambda=")[1].split()[0])
    comments = dict(line[1:].strip().split("=", 1)
                    for line in out.read_text(encoding="utf-8").splitlines()
                    if line.startswith("#"))
    cfg = json.loads((CONFIGS / "grw_construct.json").read_text(
        encoding="utf-8"))
    symbols, g = _line_element(cfg)
    t = symbols["t"]
    s = sympy.Symbol("s", real=True)
    slope = _formula(comments["potential_slope"], {"t": s})
    phi = sympy.integrate(slope, (s, float(comments["t0"]), t))
    largest = _largest_entry(symbols, _residual(
        list(symbols.values()), g, phi, lam, 0.0))
    # The fiber is flat: the residual of a potential of t alone does not
    # depend on where on the fiber it is read.
    worst = max(largest(float(row["t"]), 0.0, 0.0, 0.0) for row in _rows(out))
    expected = "PASS" if worst <= DEFAULT_TOLERANCE else "FAIL"
    assert verdict.split()[0] == expected


# ---------------------------------------------------------------------
# The reduced systems, derived from each family's ansatz
# ---------------------------------------------------------------------

ITEM16 = pytest.mark.xfail(strict=True, raises=AssertionError,
                           reason="ROADMAP item 16: the GRW reduced system's "
                           "fiber equation has the wrong sign")


def _texts(rng, *templates):
    """Each template with its ``{}`` filled by seeded coefficients in
    [0.3, 1.5], written with two decimals, so that both sides read the
    same floats."""
    return [template.format(*(f"{rng.uniform(0.3, 1.5):.2f}"
                              for _ in range(template.count("{}"))))
            for template in templates]


def _fiber_rows(rng, a, b):
    """A curved Riemannian fiber on (a, b): the diagonal stays above 1.5
    and the off-diagonal entry below 1 for |a|, |b| < 0.8."""
    d1, d2, off = _texts(rng, f"3 + {{}}*sin({{}}*{a})",
                         f"3 + {{}}*cos({{}}*{b})", f"{{}}*{a}*{b}")
    return [[d1, off], [off, d2]]


def _matrix(rows, symbols):
    return sympy.Matrix([[_formula(text, symbols) for text in row]
                         for row in rows])


def _symbols(names):
    return {name: sympy.Symbol(name, real=True) for name in names}


def _points(rng, count, *ranges):
    return [tuple(rng.uniform(lo, hi) for lo, hi in ranges)
            for _ in range(count)]


def _exact(symbols, derived, points):
    """The derived expressions at each point, with 30 digits."""
    with mpmath.workdps(30):
        entries = sympy.lambdify(list(symbols.values()), derived,
                                 modules="mpmath", cse=True)
        return [[float(value) for value in entries(*map(mpmath.mpf, point))]
                for point in points]


def _static_case(rng):
    """static_system_residual's r1, r2 and r3 on -lapse^2 dt^2 + g_F,
    against the tensor residual R: r1 = -R_tt / lapse, r2 is R's fiber
    block and r3 = tr_{g_F} R_F + s R_tt / lapse^2."""
    chart = ("x1", "x2")
    rows = _fiber_rows(rng, *chart)
    lapse, phi = _texts(rng, "2 + {}*sin({}*x1 - {}*x2)",
                        "{}*x1^2 - {}*exp({}*x2) + {}*x1*x2")
    lam = round(rng.uniform(-2.0, 2.0), 2)
    points = _points(rng, 3, (-0.8, 0.8), (-0.8, 0.8))
    spec = StaticSpec(parse_expression(lapse, chart),
                      MetricField.from_rows(chart, rows, "++"))
    potential = parse_expression(phi, chart)
    reduced = []
    for point in points:
        r1, r2, r3 = static_system_residual(spec, potential, lam, point)
        reduced.append([r1, *r2.ravel(), r3])
    symbols = _symbols(("t", *chart))
    xs = list(symbols.values())
    n, fiber = _formula(lapse, symbols), _matrix(rows, symbols)
    fiber_inv = fiber.adjugate() / fiber.det()
    g, g_inv = sympy.diag(-n ** 2, fiber), sympy.diag(-1 / n ** 2, fiber_inv)
    gamma = _christoffel(xs, g, g_inv)
    res = (_hessian(xs, gamma, _formula(phi, symbols))
           - (_scalar(xs, g_inv, gamma) - lam) * g)
    block = res[1:, 1:]
    derived = [-res[0, 0] / n, *block,
               sum(fiber_inv[i, j] * block[i, j]
                   for i in range(2) for j in range(2))
               + 2 * res[0, 0] / n ** 2]
    return reduced, _exact(symbols, derived, [(0.0, *p) for p in points])


@functools.cache
def _grw_case():
    """grw_samples' residual, r1, r2 and r3, on -dt^2 + w(t)^2 g_F with
    phi = phi(t), against the tensor residual R: R_tt is
    phi'' + (scal - lam), and R_xx = -w g_F,xx (w' phi' + (scal - lam) w),
    so the fiber equation is w' phi' + (scal - lam) w and the lambda-free
    identity w R_tt minus it, w phi'' - w' phi'."""
    rng = random.Random("grw:19")
    rows = _fiber_rows(rng, "x", "y")
    warping, phi = _texts(rng, "{} + {}*t^2", "{}*t^3 - {}*sin({}*t)")
    lam = round(rng.uniform(-2.0, 2.0), 2)
    points = _points(rng, 3, (0.5, 2.0), (-0.8, 0.8), (-0.8, 0.8))
    spec = GRWSpec(parse_expression(warping, ("t",)),
                   MetricField.from_rows(("x", "y"), rows, "++"), (0.5, 2.0))
    potential = parse_expression(phi, ("t",))
    metric = assemble_warped_metric(spec)
    reduced = [grw_samples(spec, metric, potential, [t], [(x, y)])
               .residual(lam)[0].tolist() for t, x, y in points]
    symbols = _symbols(("t", "x", "y"))
    xs = list(symbols.values())
    w, fiber = _formula(warping, symbols), _matrix(rows, symbols)
    g = sympy.diag(-1, w ** 2 * fiber)
    g_inv = sympy.diag(-1, fiber.adjugate() / (w ** 2 * fiber.det()))
    gamma = _christoffel(xs, g, g_inv)
    res = (_hessian(xs, gamma, _formula(phi, symbols))
           - (_scalar(xs, g_inv, gamma) - lam) * g)
    fiber_equation = -res[1, 1] / (w * fiber[0, 0])
    derived = [res[0, 0], fiber_equation, w * res[0, 0] - fiber_equation]
    return reduced, _exact(symbols, derived, points)


def _walker3_case(rng):
    """walker3_pde_residual on 2 dt dy + dx^2 + q dy^2, against the
    covariant hessian H: H_tt, H_tx, H_xy, H_xx - H_ty and
    H_yy - q H_xx."""
    chart = ("t", "x", "y")
    q_text, f = _texts(rng, "{}*t*x + {}*sin(y) - {}*x^2*y",
                       "{}*t^2 + {}*t*x + {}*x*y - {}*cos(t*y) + {}*exp({}*x)")
    points = _points(rng, 3, (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
    spec = Walker3Spec(parse_expression(q_text, chart))
    potential = parse_expression(f, chart)
    reduced = [list(walker3_pde_residual(spec, potential, point))
               for point in points]
    symbols = _symbols(chart)
    xs = list(symbols.values())
    q = _formula(q_text, symbols)
    g = sympy.Matrix([[0, 0, 1], [0, 1, 0], [1, 0, q]])
    h = _hessian(xs, _christoffel(xs, g, g.inv()), _formula(f, symbols))
    derived = [h[0, 0], h[0, 1], h[1, 2], h[1, 1] - h[0, 2],
               h[2, 2] - q * h[1, 1]]
    return reduced, _exact(symbols, derived, points)


def _walker4_case(rng):
    """walker4_pde_residual on 2 dx dz + 2 dy dt + w(t) dt^2, against
    the traceless part of the covariant hessian, H - (Lap / 4) g: the
    seven entries g does not reach, the xz and yt couplings and the tt
    balance."""
    chart = WALKER4_CHART
    w, f = _texts(rng, "1.5 + {}*sin(t)",
                  "{}*x*z + {}*x*y + {}*y^2 - {}*sin(t)*x + {}*exp({}*t)*y"
                  " + {}*z*t + {}*x^2 + {}*z^2*y")
    points = _points(rng, 3, *[(-1.0, 1.0)] * 4)
    spec = Walker4Spec(parse_expression(w, ("t",)))
    potential = parse_expression(f, chart)
    reduced = [list(walker4_pde_residual(spec, potential, point))
               for point in points]
    symbols = _symbols(chart)
    xs = list(symbols.values())
    g = sympy.Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0],
                      [0, 1, 0, _formula(w, symbols)]])
    g_inv = g.inv()
    h = _hessian(xs, _christoffel(xs, g, g_inv), _formula(f, symbols))
    lap = sum(g_inv[i, j] * h[i, j] for i in range(4) for j in range(4))
    traceless = h - lap / 4 * g
    derived = [traceless[i, j] for i, j in (
        (0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (0, 3), (2, 3), (0, 2),
        (1, 3), (3, 3))]
    return reduced, _exact(symbols, derived, points)


def _assert_matches(reduced, derived):
    """Every derived entry is far from zero at some point, and the
    package's matches it within the bound at every point."""
    for entry in zip(*derived):
        assert max(map(abs, entry)) > 1e-3
    for got_row, want_row in zip(reduced, derived, strict=True):
        for got, want in zip(got_row, want_row, strict=True):
            assert abs(got - want) <= BOUND * max(1.0, abs(want)), (
                got_row, want_row)


@pytest.mark.parametrize("case", [_static_case, _walker3_case, _walker4_case],
                         ids=["static", "walker3", "walker4"])
def test_a_reduced_system_is_derived_from_its_ansatz(case):
    rng = random.Random(f"{case.__name__}:19")
    for _ in range(2):
        _assert_matches(*case(rng))


@pytest.mark.parametrize("entry", [
    0, pytest.param(1, marks=ITEM16), pytest.param(2, marks=ITEM16)],
    ids=["r1", "r2", "r3"])
def test_the_grw_reduced_system_is_derived_from_its_ansatz(entry):
    reduced, derived = _grw_case()
    _assert_matches([[row[entry]] for row in reduced],
                    [[row[entry]] for row in derived])
