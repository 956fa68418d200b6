"""The batched quadratures of the GRW potential and the walker4 profile.

A construct integrates its quadratures together, in batches
(quadrature._simpson_batch), and never one adaptive_simpson call at a
time.  A batch that fails keeps the values before its failure and
reports the loop's own error, so every value has the bits, and every
error the text, of the one-at-a-time loop: the values are checked here
against that loop, written out with the recursion the tests keep as
their reference (jet_oracles.simpson_recursion), and the errors
against the messages the loop gives on four configs that fail inside a
quadrature.  One benchmark walker4 job and one GRW job are checked
against their recorded work, array calls and levels.  The walker4
profile, 1/2 (c0 t + c1) I(t) with I the running integral of the
warping, is also checked against its closed form for w = a + b sin t.
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
    SolitonLabError,
    Walker4Spec,
    cli,
    eval_jet2,
    families,
    flat_metric,
    grw_potential_field,
    parse_expression,
    quadrature,
    walker4_construct,
)
from solitonlab.cli import main
from solitonlab.families import QUADRATURE_TOL

from conftest import count_calls, count_scalar_evaluations
from jet_oracles import simpson_recursion

from bench import workloads

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


WALKER4 = {"c0": 1, "c1": 1, "c2": 1, "c3": 1, "t0": 0}
FAILURES = [
    # a warping too large for the tolerance between the grid's times,
    # where it is 1: the running integral's batch runs away until it
    # meets the recursion's own stall
    ({"family": "walker4", "warping": "1 + 1e8*t*t*(t*t - 1)^2",
      "constants": WALKER4},
     ["--grid", "3"],
     "adaptive quadrature stalled on [-0.32733378966440796, "
     "-0.32733378966531745] (residual 1.694e-21)"),
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
    # a warping outside its domain between t0 and a grid time, but not
    # at the grid's times: the grid point whose profile needs that
    # integral is named
    ({"family": "walker4", "warping": "ln(t*t - 0.01)",
      "constants": {**WALKER4, "t0": 1}, "grid": {"t": [-1, 1, 2]}},
     [], "ln of a non-positive argument at [-1.0, -1.0, -1.0, -1.0]"),
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


def test_a_walker4_failure_is_the_loop_of_running_integrals():
    # The stall and the domain error of FAILURES are those of one
    # quadrature per distinct grid time, in grid order.
    for config, _, message in (FAILURES[0], FAILURES[3]):
        warping = parse_expression(config["warping"], ("t",))
        t0 = config["constants"]["t0"]
        lo, hi, count = config.get("grid", {}).get("t", [-1, 1, 3])
        with pytest.raises(SolitonLabError) as caught:
            for tv in np.linspace(lo, hi, count).tolist():
                simpson_recursion(lambda u: warping((u,)), t0, tv,
                                  tol=QUADRATURE_TOL)
        assert message.startswith(str(caught.value))


def test_a_runaway_batch_stays_small(tmp_path, capsys, monkeypatch):
    # A walker4 running integral whose batch runs away until a stall:
    # each outermost batch call traced as it fails.  The jet walk reads
    # the running integrals once over the grid, and the stall leaves the
    # walk, so the batch fails once.  Its blocks fill up: some integrand
    # call takes the quarter points of a whole block, and none more than
    # the three points of each interval in a block of roots.
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
    config = {"family": "walker4", "warping": "1 + 1e12*t*t*(t*t - 1)^2",
              "constants": WALKER4}
    code, _, err = _construct(tmp_path, capsys, config, ["--grid", "3"])
    assert (code, err) == (3, "numeric error: adaptive quadrature stalled on "
                           "[-0.003081133007981407, -0.0030811330088909017] "
                           "(residual 1.694e-21)\n")
    assert 2 * quadrature.BLOCK in sizes
    assert max(sizes) <= 3 * quadrature.BLOCK
    assert len(peaks) == 1
    assert max(peaks) < 2_000_000


def _grw(warping="t", interval=(0.9, 1.9)):
    return GRWSpec(parse_expression(warping, ("t",)), flat_metric(("x",)),
                   interval)


def _profile(potential):
    """The GRW potential's values, a function of an array of times."""
    return potential.compiled_arrays


def _grw_loop(spec, alpha, t0, tv):
    """The potential as one quadrature per time, written out."""
    return alpha * simpson_recursion(lambda u: 1.0 / spec.warping((u,)), t0,
                                     tv, tol=QUADRATURE_TOL)


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
    assert _ends(batches) == [times.tolist()]
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
    assert repr(_ends(batches)) == "[[-0.0, 0.5]]"
    assert loops == []
    monkeypatch.undo()
    zero = _grw_loop(spec, 6.0, 0.75, -0.0)
    assert first.tobytes() == np.array(
        [zero, zero, _grw_loop(spec, 6.0, 0.75, 0.5)]).tobytes()
    assert second.tobytes() == np.array([zero]).tobytes()


def test_a_failed_grw_batch_keeps_the_times_before_its_failure(monkeypatch):
    # The warping is negative from t = 0.7 on; only the later time fails,
    # with the loop's error and the index of its first time, and the
    # earlier one is kept.
    spec = _grw("0.7 - t", (0.0, 0.5))
    profile = _profile(grw_potential_field(spec, 2.0, 0.0))
    batches = count_calls(monkeypatch, "quadrature", "_simpson_batch")
    loops = count_calls(monkeypatch, "quadrature", "adaptive_simpson")
    message = r"^warping is not positive at \[0\.9\]$"
    with pytest.raises(NonPositiveWarpingError, match=message) as caught:
        profile(np.array([0.2, 0.2, 0.9, 0.9]))
    assert caught.value.index == 2
    kept = profile(np.array([0.2]))
    with pytest.raises(NonPositiveWarpingError, match=message) as caught:
        profile(np.array([0.9]))
    assert caught.value.index == 0
    assert _ends(batches) == [[0.2, 0.9], [0.9]]
    assert loops == []
    monkeypatch.undo()
    assert kept.tolist() == [_grw_loop(spec, 2.0, 0.0, 0.2)]


def _walker4_loop(spec):
    """The profile and its slope as one quadrature per time, written out."""
    def w(tv):
        return spec.warping((tv,))

    c0, c1, t0 = spec.c0, spec.c1, spec.t0

    def value(tv):
        return 0.5 * (c0 * tv + c1) * simpson_recursion(w, t0, tv,
                                                        tol=QUADRATURE_TOL)

    def slope(tv):
        running = simpson_recursion(w, t0, tv, tol=QUADRATURE_TOL)
        return 0.5 * (w(tv) * (c0 * tv + c1) + c0 * running)

    return value, slope


# Grid times, times between them, far outside any grid, and both zeros.
TIMES = [-1.5, -0.7, -0.0, 0.0, 0.0375, 0.7, 1.5, -9.25, 31.0]


def _profile_of(f):
    """The walker4 profile and its slope, f and its t derivative at
    x = y = z = 0, as functions of an array of times."""
    def at(ts):
        return np.column_stack([np.zeros((len(ts), 3)), ts])

    return (lambda ts: f.at_points(at(ts)),
            lambda ts: eval_jet2(f, at(ts)).gradient[:, 3])


@pytest.mark.parametrize("warping, t0", [("1.02 + 0.3*sin(t)", 0.01),
                                         ("exp(t/3)", -0.0)])
def test_the_walker4_profile_is_the_loop_of_quadratures(warping, t0,
                                                        monkeypatch):
    spec = Walker4Spec(parse_expression(warping, ("t",)), c0=-0.95, c1=0.4,
                       c2=1.0, c3=0.2, t0=t0)
    loops = count_calls(monkeypatch, "quadrature", "adaptive_simpson")
    values_at, slopes = _profile_of(walker4_construct(spec))
    assert loops == []
    got = values_at(np.array(TIMES))
    # The jet reads the running integrals the value left.
    batches = count_calls(monkeypatch, "quadrature", "_simpson_batch")
    got_slopes = slopes(np.array(TIMES))
    assert batches == []
    assert loops == []
    monkeypatch.undo()
    value, slope = _walker4_loop(spec)
    assert got.tobytes() == np.array([value(tv) for tv in TIMES]).tobytes()
    # The jet differentiates the tree, whose sums round otherwise.
    np.testing.assert_allclose(got_slopes, [slope(tv) for tv in TIMES],
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("a, b, c0, c1, t0", [
    (1.02, 0.3, -0.95, 0.4, 0.01),
    (1.026, 0.307, 1.06, -0.188, -0.046),
    (2.0, -1.5, 0.0, 2.0, 0.7),
    (0.5, 0.25, 1.0, 1.0, -3.0),
])
def test_the_walker4_profile_is_its_closed_form(a, b, c0, c1, t0):
    # For w = a + b sin t, I(t) = a (t - t0) - b (cos t - cos t0) and
    # tpart = 1/2 (c0 t + c1) I(t), at any t: between grid times and far
    # outside every grid.  The times keep clear of the zeros of tpart.
    spec = Walker4Spec(parse_expression(f"{a} + {b}*sin(t)", ("t",)),
                       c0=c0, c1=c1, c2=0.3, c3=-0.2, t0=t0)
    values_at, slopes = _profile_of(walker4_construct(spec))
    ts = np.array([-40.0, -12.5, -2.3, -0.77, 0.123, 0.5, 1.37, 7.3, 25.0,
                   100.0])
    running = a * (ts - t0) - b * (np.cos(ts) - np.cos(t0))
    np.testing.assert_allclose(values_at(ts), 0.5 * (c0 * ts + c1) * running,
                               rtol=1e-12, atol=0.0)
    # The value's derivative, by a fourth-order central difference, is
    # the slope.
    h = 1e-3
    diff = (8.0 * (values_at(ts + h) - values_at(ts - h))
            - (values_at(ts + 2 * h) - values_at(ts - 2 * h))) / (12.0 * h)
    np.testing.assert_allclose(diff, slopes(ts), rtol=1e-9, atol=0.0)


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
    # exp(3*t) integrated from 0 to -1 and to 1.  The f column is the
    # closed form x (z + 1) + y (t + 1) + z + 1/2 (t + 1) (exp(3 t) - 1)/3
    # to the CSV's digits.
    config = {"family": "walker4", "warping": "exp(3*t)",
              "constants": WALKER4}
    loops = count_calls(monkeypatch, "quadrature", "adaptive_simpson")
    counts = count_scalar_evaluations(monkeypatch)
    code, out, err = _construct(tmp_path, capsys, config, ["--grid", "3"])
    assert (code, out, err) == (
        0, "PASS lambda=-1.000000000000e+00 class=expanding\n", "")
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() \
        == "9ef80642731c4898bbe3fd29203a8966587f893ead783c729d2f9f7d6ecba5d5"
    assert (loops, counts["scalar"]) == ([], 0)
    x, y, z, t, f, _ = np.loadtxt(tmp_path / "out.csv", delimiter=",",
                                  skiprows=4).T
    np.testing.assert_allclose(
        f, x * (z + 1) + y * (t + 1) + z + (t + 1) * np.expm1(3 * t) / 6,
        rtol=1e-12, atol=1e-12)


def test_the_walker4_quadrature_does_the_recorded_work(tmp_path, capsys,
                                                       monkeypatch):
    # The first walker4 job of the construct benchmark at seed 401, with
    # the warping's array calls, the batches and their levels counted:
    # one batch of its 3 distinct times, from the jet walk, and none for
    # the f column, which reads the integrals the walk left.  The jet
    # walk takes the warping's jet as the integral's integrand, so the
    # compiled warping runs only in the quadrature.  The 33-knot table
    # this job used to build made 69 calls of 15,164 points in 58
    # levels.
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
    batches = count_calls(monkeypatch, "quadrature", "_simpson_batch")
    config = workloads.write_job(job, tmp_path)
    assert main(job.argv(str(config), str(tmp_path / "out.csv"))) == 0
    assert _ends(batches) == [[-1.0, 0.0, 1.0]]
    assert (len(sizes), sum(sizes), len(levels)) == (7, 135, 6)
    assert sizes == [9, 6, 8, 16, 32, 60, 4]


def test_the_grw_quadrature_does_the_recorded_work(tmp_path, capsys,
                                                   monkeypatch):
    # The first GRW job of the construct benchmark at seed 401, with the
    # integrand's array calls of each batch and the levels counted.
    # Recorded before a level was laid out as pairs of rows, which
    # changes the cost of the work, never the work: one batch of its 100
    # times; the times already integrated make none.
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
    assert batches == [100]
    assert (len(sizes), sum(sizes), len(levels)) == (7, 3404, 6)
    assert hashlib.sha256(repr(sizes).encode()).hexdigest() \
        == "d97f00a8bd537e4aab490d31d1f6e31e6833c241e0639627aeb2e4692998ea7e"


def test_the_walker4_profile_value_is_the_map_point_by_point(monkeypatch):
    spec = Walker4Spec(parse_expression("1.02 + 0.3*sin(t)", ("t",)),
                       c0=-0.95, c1=0.4, c2=1.0, c3=0.2, t0=0.01)
    values_at, _ = _profile_of(walker4_construct(spec))
    # Repeated times, both zeros, and times far from any grid.
    times = [0.0, -0.0, 0.7, -1.5, 1.5, 0.7, -0.0, 0.0, 1e-300, -1e-300,
             0.0375, -0.0, 12.5, -30.0]
    batches = count_calls(monkeypatch, "quadrature", "_simpson_batch")
    got = values_at(np.array(times))
    # One batch of the distinct times, 0.0 and -0.0 one key (the first).
    assert repr(_ends(batches)) \
        == "[[0.0, 0.7, -1.5, 1.5, 1e-300, -1e-300, 0.0375, 12.5, -30.0]]"
    monkeypatch.undo()
    fresh = walker4_construct(spec)
    want = np.array([fresh((0.0, 0.0, 0.0, tv)) for tv in times])
    assert got.tobytes() == want.tobytes()
