"""The batched quadratures of the GRW potential and the walker4 profile.

A construct integrates its quadratures together, in batches
(quadrature._simpson_batch), and never one adaptive_simpson call at a
time.  A batch that fails keeps the values before its failure and
reports the loop's own error, so every value has the bits, and every
error the text, of the one-at-a-time loop: the values are checked here
against that loop, written out with adaptive_simpson, and the errors
against the messages the loop gives on four configs that fail inside a
quadrature.  One benchmark walker4 job and one GRW job are checked
against the work, array calls and levels, recorded before their
quadrature was made cheaper.
"""

import hashlib
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from solitonlab import (
    GRWSpec,
    NonPositiveWarpingError,
    Walker4Spec,
    adaptive_simpson,
    cli,
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

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

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


def _profile(potential):
    """The potential's profile value, a function of an array of times."""
    return potential.root.funcs[0]


def _grw_loop(spec, alpha, t0, tv):
    """The potential as one quadrature per time, written out."""
    return alpha * adaptive_simpson(lambda u: 1.0 / spec.warping((u,)), t0, tv,
                                    tol=QUADRATURE_TOL)


def _ends(batches):
    return [list(args[2]) for args in batches]


def test_the_grw_potential_integrates_its_times_in_one_batch(monkeypatch):
    spec = _grw()
    times = np.linspace(0.9, 1.9, 40)[::-1]
    profile = _profile(grw_potential_field(spec, 6.0, 1.37))
    batches = count_calls(monkeypatch, "quadrature", "_simpson_batch")
    loops = count_calls(monkeypatch, "quadrature", "adaptive_simpson")
    got = profile(times)
    # Times already integrated are read back, not integrated again.
    again = profile(times[::7])
    assert _ends(batches) == [times.tolist(), []]
    assert loops == []
    monkeypatch.undo()
    expected = np.array([_grw_loop(spec, 6.0, 1.37, tv) for tv in times.tolist()])
    assert got.tobytes() == expected.tobytes()
    assert again.tobytes() == expected[::7].tobytes()


def test_grw_values_are_kept_as_lru_cache_keeps_them(monkeypatch):
    # 0.0 and -0.0 are one key, taken by the first time asked for.
    spec = _grw("t + 2", (-1.0, 1.0))
    profile = _profile(grw_potential_field(spec, 6.0, 0.75))
    batches = count_calls(monkeypatch, "quadrature", "_simpson_batch")
    loops = count_calls(monkeypatch, "quadrature", "adaptive_simpson")
    first = profile(np.array([-0.0, 0.0, 0.5]))
    second = profile(np.array([0.0]))
    assert repr(_ends(batches)) == "[[-0.0, 0.5], []]"
    assert loops == []
    monkeypatch.undo()
    zero = _grw_loop(spec, 6.0, 0.75, -0.0)
    assert first.tobytes() == np.array(
        [zero, zero, _grw_loop(spec, 6.0, 0.75, 0.5)]).tobytes()
    assert second.tobytes() == np.array([zero]).tobytes()


def test_a_failed_grw_batch_keeps_the_times_before_its_failure(monkeypatch):
    # The warping is negative from t = 0.7 on; only the later time fails,
    # with the loop's error, and the earlier one is kept.
    spec = _grw("0.7 - t", (0.0, 0.5))
    profile = _profile(grw_potential_field(spec, 2.0, 0.0))
    batches = count_calls(monkeypatch, "quadrature", "_simpson_batch")
    loops = count_calls(monkeypatch, "quadrature", "adaptive_simpson")
    message = r"^warping is not positive at \[0\.9\]$"
    with pytest.raises(NonPositiveWarpingError, match=message):
        profile(np.array([0.2, 0.9]))
    kept = profile(np.array([0.2]))
    with pytest.raises(NonPositiveWarpingError, match=message):
        profile(np.array([0.9]))
    assert _ends(batches) == [[0.2, 0.9], [], [0.9]]
    assert loops == []
    monkeypatch.undo()
    assert kept.tolist() == [_grw_loop(spec, 2.0, 0.0, 0.2)]


def _walker4_table(spec, interval):
    """The profile table as a loop of adaptive_simpson calls, written out."""
    def w(tv):
        return spec.warping((tv,))

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


def test_the_walker4_quadrature_does_the_recorded_work(tmp_path, capsys,
                                                       monkeypatch):
    # The first walker4 job of the construct benchmark at seed 401, with
    # the warping's array calls and the levels of the batches counted.
    # Recorded from the code before sin, cos and sqrt were numpy ufuncs
    # and before a level was made leaner: those change the cost of the
    # work, never the work.  The slope's derivative is now a compiled
    # field of its own, so the one call that went is the last of that
    # record, its 81 points from the jet walk; the quadrature's 69 calls
    # and 58 levels are the recorded ones.
    job = next(job for job in workloads.first_jobs("construct-quad", 401, 8)
               if job.kind == "walker4_construct")
    sizes, levels = [], []
    construct, block = cli.walker4_construct, quadrature._block

    def counted_construct(spec, *args, **kwargs):
        warping = spec.warping.compiled_arrays

        def counted(*coordinates):
            sizes.append(coordinates[0].size)
            return warping(*coordinates)

        spec.warping.__dict__["compiled_arrays"] = counted
        return construct(spec, *args, **kwargs)

    def counted_block(*args):
        levels.append(None)
        return block(*args)

    monkeypatch.setattr(cli, "walker4_construct", counted_construct)
    monkeypatch.setattr(quadrature, "_block", counted_block)
    config = workloads.write_job(job, tmp_path)
    assert main(job.argv(str(config), str(tmp_path / "out.csv"))) == 0
    assert (len(sizes), sum(sizes), len(levels)) == (69, 15164, 58)
    assert hashlib.sha256(repr(sizes).encode()).hexdigest() \
        == "384456762ed2f60cc1aa46bc7801fd57ee9d65182b2a76deaa4b89a37d1d09a9"
    assert hashlib.sha256(repr(sizes + [81]).encode()).hexdigest() \
        == "f7a32637552afc627965f1889678361c9a117d7e803a125d2d1419e47edda9bf"


def test_the_grw_quadrature_does_the_recorded_work(tmp_path, capsys,
                                                   monkeypatch):
    # The first GRW job of the construct benchmark at seed 401, with the
    # integrand's array calls of each batch and the levels counted.
    # Recorded before a level was laid out as pairs of rows, which
    # changes the cost of the work, never the work: one batch of its 100
    # times, then one of none, which calls nothing.
    job = next(job for job in workloads.first_jobs("construct-quad", 401, 8)
               if job.kind == "grw_construct")
    batches, sizes, levels = [], [], []
    batch, block = families._simpson_batch, quadrature._block

    def counted_batch(fn, a, b, *args, **kwargs):
        batches.append(len(a))

        def counted(xs):
            sizes.append(xs.size)
            return fn(xs)

        return batch(counted, a, b, *args, **kwargs)

    def counted_block(*args):
        levels.append(None)
        return block(*args)

    monkeypatch.setattr(families, "_simpson_batch", counted_batch)
    monkeypatch.setattr(quadrature, "_block", counted_block)
    config = workloads.write_job(job, tmp_path)
    assert main(job.argv(str(config), str(tmp_path / "out.csv"))) == 0
    assert batches == [100, 0]
    assert (len(sizes), sum(sizes), len(levels)) == (7, 3404, 6)
    assert hashlib.sha256(repr(sizes).encode()).hexdigest() \
        == "d97f00a8bd537e4aab490d31d1f6e31e6833c241e0639627aeb2e4692998ea7e"


def _counted_splines(monkeypatch):
    """The times at which every spline built from here on is called."""
    calls = []
    pchip = families._pchip

    def counted_pchip(*args):
        spline = pchip(*args)

        def counted(tv):
            calls.append(tv)
            return spline(tv)

        return counted

    monkeypatch.setattr(families, "_pchip", counted_pchip)
    return calls


def test_the_walker4_profile_calls_its_spline_once_per_distinct_time(
        tmp_path, capsys, monkeypatch):
    # The first walker4 job of the construct benchmark at seed 401: two
    # value maps over its 81 grid points, each of 3 distinct times.  A
    # map point by point made 162 calls.
    job = next(job for job in workloads.first_jobs("construct-quad", 401, 8)
               if job.kind == "walker4_construct")
    calls = _counted_splines(monkeypatch)
    config = workloads.write_job(job, tmp_path)
    assert main(job.argv(str(config), str(tmp_path / "out.csv"))) == 0
    assert len(calls) == 6 and len(set(calls)) == 3


def test_the_walker4_profile_value_is_the_map_point_by_point(monkeypatch):
    spec = Walker4Spec(parse_expression("1.02 + 0.3*sin(t)", ("t",)),
                       c0=-0.95, c1=0.4, c2=1.0, c3=0.2, t0=0.01)
    calls = _counted_splines(monkeypatch)
    _, profile = walker4_construct(spec, interval=(-1.5, 1.5))
    values_at = profile.funcs[0]
    # Knots, ends and points between them, repeated, with both zeros
    # (0.0 is a knot of the 81-knot table on (-1.5, 1.5)).
    times = [0.0, -0.0, 0.7, -1.5, 1.5, 0.7, -0.0, 0.0, 1e-300, -1e-300,
             profile.knots[17], 0.0375, -0.0]
    ts = np.array(times)
    calls.clear()
    got = values_at(ts)
    assert len(calls) == 8
    calls.clear()
    want = np.array([profile(tv) for tv in times])
    assert len(calls) == len(times)
    assert got.tobytes() == want.tobytes()
    # The first time outside the table, in array order, is the one named.
    with pytest.raises(families.DomainError, match=r"sampled at 2\.0,"):
        values_at(np.array([0.0, 2.0, -2.0, 2.0]))
