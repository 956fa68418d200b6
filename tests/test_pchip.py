"""The walker4 profile's PCHIP against scipy's PchipInterpolator.

scipy is the oracle only: no solitonlab module imports it, and this
module is skipped where it is not installed.  Agreement is bit for bit,
compared on the float64 bytes of every evaluation.
"""

from pathlib import Path

import numpy as np
import pytest

from solitonlab.cli import main
from solitonlab.families import _pchip

from conftest import count_calls

interpolate = pytest.importorskip("scipy.interpolate")

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _probes(x, rng):
    """Every knot, both ends, points just inside and outside them, and
    random points over the table and a little beyond it."""
    span = x[-1] - x[0]
    edges = [x[0] - 0.1 * span, np.nextafter(x[0], -np.inf),
             np.nextafter(x[0], np.inf), np.nextafter(x[-1], -np.inf),
             np.nextafter(x[-1], np.inf), x[-1] + 0.1 * span]
    mids = 0.5 * (x[1:] + x[:-1])
    inside = rng.uniform(x[0], x[-1], 40)
    return np.concatenate([x, edges, mids, inside])


def _assert_bit_identical(x, y, rng):
    ours = _pchip(x, y)
    oracle = interpolate.PchipInterpolator(x, y)
    t = _probes(np.asarray(x, dtype=float), rng)
    got = np.array([ours(float(v)) for v in t])
    want = oracle(t)
    assert got.tobytes() == want.tobytes(), (
        f"first mismatch at t={t[np.flatnonzero(got != want)[0]]!r}"
    )


def _table(rng, kind, n):
    if rng.random() < 0.5:
        x = np.linspace(rng.uniform(-3, 0), rng.uniform(0.5, 3), n)
    else:
        x = np.cumsum(rng.uniform(0.01, 1.0, n)) + rng.uniform(-3, 0)
    if kind == "walk":
        y = np.cumsum(rng.normal(size=n))
    elif kind == "sin":
        y = np.sin(2.0 * x) + 0.3 * x
    elif kind == "flat":
        y = np.round(rng.normal(size=n))
    else:
        y = np.cumsum(rng.uniform(0.0, 1.0, n))
    return x, y


@pytest.mark.parametrize("seed, kind",
                         enumerate(["walk", "sin", "flat", "monotone"]))
def test_random_tables_match_the_oracle(seed, kind):
    rng = np.random.default_rng(20 + seed)
    for _ in range(40):
        n = int(rng.integers(2, 41))
        x, y = _table(rng, kind, n)
        _assert_bit_identical(x, y, rng)


def test_two_knots_are_the_secant_line():
    rng = np.random.default_rng(1)
    _assert_bit_identical([0.0, 2.0], [1.0, -3.0], rng)
    assert _pchip([0.0, 2.0], [1.0, -3.0])(1.0) == -1.0


def test_uneven_flat_and_sign_changing_tables():
    rng = np.random.default_rng(2)
    x = np.array([-2.0, -1.9, -0.5, 0.0, 0.05, 1.0, 3.0])
    for y in ([0.0, 1.0, 1.0, -2.0, 3.0, 3.0, 0.0],   # flat runs, sign flips
              [5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0],    # constant
              [0.0, 1e-3, 10.0, 10.0, 11.0, -4.0, -4.5],
              [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0]):  # alternating
        _assert_bit_identical(x, y, rng)
    # Three knots exercise both end rules on the same middle slope.
    _assert_bit_identical([0.0, 0.1, 2.0], [0.0, 1.0, -5.0], rng)
    _assert_bit_identical([0.0, 1.9, 2.0], [0.0, 0.1, 3.0], rng)


def test_signed_zero_at_a_knot():
    # Every power-sum term is -0.0 here; the oracle's sum starts at +0.0.
    x, y = [0.0, 2.0, 4.0], [-0.0, 1.0, -3.0]
    got = np.array([_pchip(x, y)(-0.0)])
    want = interpolate.PchipInterpolator(x, y)([-0.0])
    assert got.tobytes() == want.tobytes()


def test_walker4_certified_profile_table(monkeypatch, tmp_path, capsys):
    calls = count_calls(monkeypatch, "families", "_pchip")
    code = main(["construct", str(CONFIGS / "walker4_certified.json"),
                 "--out", str(tmp_path / "w4.csv")])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == 1
    grid, table = calls[0]
    assert len(grid) == 33
    _assert_bit_identical(grid, table, np.random.default_rng(3))


@pytest.mark.parametrize("knots, values", [
    ([0.0], [1.0]),                              # fewer than 2 knots
    ([], []),
    ([0.0, 1.0, 2.0], [1.0, 2.0]),               # one value per knot
    ([0.0, 1.0, 2.0], [1.0, np.nan, 2.0]),       # finite values
    ([0.0, np.inf, 2.0], [1.0, 1.5, 2.0]),       # finite knots
    ([0.0, 1.0, 1.0], [1.0, 1.5, 2.0]),          # strictly increasing
    ([0.0, 2.0, 1.0], [1.0, 1.5, 2.0]),
])
def test_bad_tables_raise_value_error_as_the_oracle_does(knots, values):
    with pytest.raises(ValueError):
        _pchip(knots, values)
    with pytest.raises(ValueError):
        interpolate.PchipInterpolator(knots, values)
