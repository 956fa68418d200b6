"""The tensor residual of shipped configs, computed by sympy.

An oracle that shares no code with solitonlab: each config's metric is
built from its family's line element, with its formulas read from the
config text by sympy (``^`` turned into ``**``); the Christoffel
symbols, the Ricci tensor, the scalar curvature and the residual
Hess(phi) - (scal - lambda) g - mu dphi (x) dphi are derived
symbolically.  At every row of the CSV that ``verify`` writes, the
largest |entry| of that residual must match the row's residual_max
within a relative bound of 1e-12.

ROADMAP item 16: the GRW construct certifies the potential 6 ln t on
the warping t, which the full equation rejects with residual 12; the
construct's PASS is checked against the symbolic residual as an
expected failure until that item lands.
"""

import csv
import json
from pathlib import Path

import pytest

from solitonlab.cli import DEFAULT_TOLERANCE, main

sympy = pytest.importorskip("sympy")

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
    symbols = {name: sympy.Symbol(name, real=True) for name in names}
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


def _residual(xs, g, phi, lam, mu):
    """Hess(phi) - (scal - lam) g - mu dphi (x) dphi, symbolically."""
    n = len(xs)
    g_inv = g.inv()
    gamma = [[[sum(g_inv[k, m] * (sympy.diff(g[j, m], xs[i])
                                  + sympy.diff(g[i, m], xs[j])
                                  - sympy.diff(g[i, j], xs[m]))
                   for m in range(n)) / 2
               for j in range(n)] for i in range(n)] for k in range(n)]
    ricci = sympy.Matrix(n, n, lambda i, j: sum(
        sympy.diff(gamma[k][i][j], xs[k]) - sympy.diff(gamma[k][i][k], xs[j])
        + sum(gamma[k][k][m] * gamma[m][i][j]
              - gamma[k][j][m] * gamma[m][i][k] for m in range(n))
        for k in range(n)))
    scal = sum(g_inv[i, j] * ricci[i, j] for i in range(n) for j in range(n))
    dphi = [sympy.diff(phi, x) for x in xs]
    hess = sympy.Matrix(n, n, lambda i, j: sympy.diff(phi, xs[i], xs[j])
                        - sum(gamma[k][i][j] * dphi[k] for k in range(n)))
    return hess - (scal - lam) * g - mu * sympy.Matrix(
        n, n, lambda i, j: dphi[i] * dphi[j])


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
