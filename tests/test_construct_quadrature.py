"""The batched quadratures of the GRW potential and the walker4 profile.

A construct integrates its quadratures together, in batches
(quadrature._simpson_batch), and never one adaptive_simpson call at a
time.  A batch that fails keeps the values before its failure and
reports the loop's own error, so every value has the bits, and every
error the text, of the one-at-a-time loop: the values are checked here
against that loop, written out with adaptive_simpson, and the errors
against the messages the loop gives on four configs that fail inside a
quadrature.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from solitonlab import (
    GRWSpec,
    NonPositiveWarpingError,
    Walker4Spec,
    adaptive_simpson,
    families,
    flat_metric,
    grw_potential_field,
    parse_expression,
    quadrature,
    walker4_construct,
)
from solitonlab.cli import main
from solitonlab.families import PROFILE_KNOTS, QUADRATURE_TOL

from conftest import count_calls, count_scalar_evaluations

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
WALKER4 = {"c0": 1, "c1": 1, "c2": 1, "c3": 1, "t0": 0}
FAILURES = [
    # a warping too large for the tolerance: the profile table's batch
    # runs away until it meets the recursion's own stall
    ({"family": "walker4", "warping": "1e8 + sin(t)", "constants": WALKER4},
     ["--grid", "3"],
     "adaptive quadrature stalled on [-0.1422960605937078, "
     "-0.14229606059507205] (residual 6.776e-21)"),
    # a warping that dips below zero between the checked samples
    ({"family": "grw", "warping": "(t - 1.55)^2 - 0.000001",
      "interval": [1, 2], "fiber": {"type": "flat", "chart": ["x"]},
      "constants": {"alpha": 6, "t0": 1}},
     [], "warping is not positive at [1.55078125]"),
    # a base point where the warping is negative
    ({"family": "grw", "warping": "t - 0.7", "interval": [1, 2],
      "fiber": {"type": "flat", "chart": ["x"]},
      "constants": {"alpha": 6, "t0": 0.5}},
     [], "warping is not positive at [0.5]"),
    # a warping outside its domain on the profile table
    ({"family": "walker4", "warping": "ln(t + 1.2)", "constants": WALKER4},
     [], "ln of a non-positive argument"),
]


def _construct(tmp_path, capsys, config, flags):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["construct", str(path), "--out", str(tmp_path / "out.csv"),
                 *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("config, flags, message", FAILURES,
                         ids=["stall", "dip", "base-point", "domain"])
def test_a_failing_quadrature_gives_the_error_of_the_loop(
        config, flags, message, tmp_path, capsys):
    assert _construct(tmp_path, capsys, config, flags) \
        == (3, "", f"numeric error: {message}\n")


def test_a_runaway_batch_stays_small(tmp_path, capsys, monkeypatch):
    # A walker4 table whose batch, and the running integrals nested in
    # it, run away until a stall: each outermost batch call traced as it
    # fails.  Its blocks fill up: some integrand call takes the quarter
    # points of a whole block, and none more than the three points of
    # each interval in a block of roots.  The stall case of FAILURES
    # runs away the same way, but tracing every allocation of its 14
    # million integrand evaluations makes it about ten times as slow.
    batch = families._simpson_batch
    peaks, sizes, depth = [], [], []

    def sized(fn):
        def over(xs):
            sizes.append(xs.size)
            return fn(xs)
        return over

    def traced(fn, *args, **kwargs):
        if not depth:
            tracemalloc.start()
        depth.append(None)
        try:
            return batch(sized(fn), *args, **kwargs)
        finally:
            depth.pop()
            if not depth:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

    monkeypatch.setattr(families, "_simpson_batch", traced)
    config = {"family": "walker4", "warping": "1e12 + sin(t)",
              "constants": WALKER4}
    code, _, err = _construct(tmp_path, capsys, config, ["--grid", "3"])
    assert (code, err) == (3, "numeric error: adaptive quadrature stalled on "
                           "[-0.2331239244139059, -0.23312392441433225] "
                           "(residual 5.551e-17)\n")
    assert 2 * quadrature.BLOCK in sizes
    assert max(sizes) <= 3 * quadrature.BLOCK
    assert len(peaks) == 1
    assert peaks[0] < 2_000_000


def _grw(warping="t", interval=(0.9, 1.9)):
    return GRWSpec(parse_expression(warping, ("t",)), flat_metric(("x",)),
                   interval)


def _value(potential):
    """The potential's profile value at one time, through the array
    contract of profiles: a one-element array."""
    profile = potential.root.funcs[0]
    return lambda tv: float(profile(np.array([tv]))[0])


def _grw_loop(spec, alpha, t0, tv):
    """The potential as one quadrature per time, written out."""
    w = spec.warping.compiled
    return alpha * adaptive_simpson(lambda u: 1.0 / w(u), t0, tv,
                                    tol=QUADRATURE_TOL)


def test_the_grw_potential_integrates_its_times_in_one_batch(monkeypatch):
    spec = _grw()
    times = np.linspace(0.9, 1.9, 40)
    value = _value(grw_potential_field(spec, 6.0, 1.37, times=times))
    batches = count_calls(monkeypatch, "quadrature", "_simpson_batch")
    loops = count_calls(monkeypatch, "quadrature", "adaptive_simpson")
    got = [value(tv) for tv in times[::-1].tolist()]
    assert (len(batches), len(loops)) == (1, 0)
    monkeypatch.undo()
    expected = [_grw_loop(spec, 6.0, 1.37, tv) for tv in times[::-1].tolist()]
    assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_grw_values_are_kept_as_lru_cache_keeps_them(monkeypatch):
    # 0.0 and -0.0 are one key, taken by the first time asked for.
    spec = _grw("t + 2", (-1.0, 1.0))
    for times, ends in ((None, "[[-0.0]]"),
                        ([0.0, -0.0, 0.5], "[[-0.0, 0.5]]")):
        value = _value(grw_potential_field(spec, 6.0, 0.75, times=times))
        batches = count_calls(monkeypatch, "quadrature", "_simpson_batch")
        loops = count_calls(monkeypatch, "quadrature", "adaptive_simpson")
        first = value(-0.0)
        assert value(0.0) == first
        assert repr([list(args[2]) for args in batches]) == ends
        assert loops == []
        monkeypatch.undo()
        assert first == _grw_loop(spec, 6.0, 0.75, -0.0)


def test_a_failed_grw_batch_keeps_the_times_before_its_failure(monkeypatch):
    # The warping is negative from t = 0.7 on; only later times fail.
    spec = _grw("0.7 - t", (0.0, 0.5))
    value = _value(grw_potential_field(spec, 2.0, 0.0, times=[0.2, 0.9]))
    batches = count_calls(monkeypatch, "quadrature", "_simpson_batch")
    loops = count_calls(monkeypatch, "quadrature", "adaptive_simpson")
    assert value(0.2) == _grw_loop(spec, 2.0, 0.0, 0.2)
    with pytest.raises(NonPositiveWarpingError,
                       match=r"^warping is not positive at \[0\.9\]$"):
        value(0.9)
    assert [list(args[2]) for args in batches] == [[0.2, 0.9], [0.9]]
    assert loops == []


def _walker4_table(spec, interval):
    """The profile table as a loop of adaptive_simpson calls, written out."""
    w = spec.warping.compiled
    c0, c1, t0 = spec.c0, spec.c1, spec.t0

    def slope(tv):
        running = adaptive_simpson(w, t0, tv, tol=QUADRATURE_TOL)
        return 0.5 * (w(tv) * (c0 * tv + c1) + c0 * running)

    grid = np.linspace(*interval, PROFILE_KNOTS)
    table = np.empty_like(grid)
    table[0] = adaptive_simpson(slope, t0, grid[0], tol=QUADRATURE_TOL)
    for i in range(1, len(grid)):
        table[i] = table[i - 1] + adaptive_simpson(
            slope, grid[i - 1], grid[i], tol=QUADRATURE_TOL)
    return grid, table, slope


@pytest.mark.parametrize("warping, t0", [("1.02 + 0.3*sin(t)", 0.01),
                                         ("exp(t/3)", -0.0)])
def test_the_walker4_table_is_the_loop_of_quadratures(warping, t0,
                                                      monkeypatch):
    spec = Walker4Spec(parse_expression(warping, ("t",)), c0=-0.95, c1=0.4,
                       c2=1.0, c3=0.2, t0=t0)
    loops = count_calls(monkeypatch, "quadrature", "adaptive_simpson")
    _, profile = walker4_construct(spec, interval=(-1.5, 1.5))
    assert loops == []
    # The jets' slope reads the running integrals the batches left.
    slopes = [profile.deriv(tv) for tv in profile.knots.tolist()]
    assert loops == []
    monkeypatch.undo()
    grid, table, slope = _walker4_table(spec, (-1.5, 1.5))
    assert profile.knots.tobytes() == grid.tobytes()
    assert profile.values.tobytes() == table.tobytes()
    assert np.array(slopes).tobytes() \
        == np.array([slope(tv) for tv in grid.tolist()]).tobytes()


def test_a_construct_runs_its_quadratures_as_batches(tmp_path, capsys,
                                                     monkeypatch):
    loops = count_calls(monkeypatch, "quadrature", "adaptive_simpson")
    for name in ("grw_construct", "walker4_certified"):
        code = main(["construct", str(CONFIGS / f"{name}.json"),
                     "--out", str(tmp_path / f"{name}.csv")])
        assert code == 0
    assert loops == []


def test_a_fast_growing_warping_stays_on_arrays(tmp_path, capsys,
                                                monkeypatch):
    # exp(3*t) over the walker4 table outgrows any bound on a level's
    # width relative to its input; the batch walks it block by block.
    # The CSV was recorded from the code that integrated it one
    # adaptive_simpson call at a time.
    config = {"family": "walker4", "warping": "exp(3*t)",
              "constants": WALKER4}
    loops = count_calls(monkeypatch, "quadrature", "adaptive_simpson")
    counts = count_scalar_evaluations(monkeypatch)
    code, out, err = _construct(tmp_path, capsys, config, ["--grid", "3"])
    assert (code, out, err) == (
        0, "PASS lambda=-1.000000000000e+00 class=expanding\n", "")
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() \
        == "de04063dda89d1bdc520c906f3b62edde0ee1e9cfdcb0ca124ea35bc4c63a655"
    assert (loops, counts["scalar"]) == ([], 0)
