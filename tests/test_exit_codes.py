"""The exit-code contract of soliton-lab, over mutations of the shipped
configs.

Every mutation is run through cli.main in-process.  The contract, from
the cli docstring: main returns 0-3 and raises nothing; exit 1 comes
only with a verdict line `FAIL ...` on stdout; exits 2 and 3 end
stderr with one `config error: ...` or `numeric error: ...` line, and
print no traceback.  A mutation that breaks the contract is an escape.

The mutations, from each shipped config: delete each key (top level
and one level down), give each top-level value another JSON type, add
an unknown key, repeat a name in `chart`, `fiber.chart` or
`base.chart`, set a grid count (in the config or by --grid) to 0, 1 or
10**30, and write the file as bytes that are not UTF-8.  A count of
10**30 fails before anything is allocated.

Two repeated-chart configs broke the contract silently rather than
with a traceback, so they have explicit tests below.

A derandomized hypothesis fuzz runs random custom 2d `curvature` and
`verify` jobs, each metric entry and potential an expression over the
whole grammar; random GRW constructions, whose warping is such an
expression in t; static `verify` jobs with such a lapse; and walker3
and walker4 constructions with random eta, zeta and warping and random
constants.  Every warning is turned into an error, so a numpy warning
is an escape too; exits 0 and 1 must leave stderr empty.
"""

import contextlib
import copy
import hashlib
import io
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from solitonlab import MetricField, SignatureMismatchError, cli, metric_at
from solitonlab.cli import main
from solitonlab.expressions import FUNCTION_NAMES as FUNCTIONS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

COMMANDS = {
    "flat_curvature": "curvature",
    "grw_construct": "construct",
    "grw_gqy_verify": "verify",
    "sphere_curvature": "curvature",
    "static_verify": "verify",
    "walker3_certified": "construct",
    "walker3_ricci_flat_curvature": "curvature",
    "walker4_certified": "construct",
    "walker4_verify_fail": "verify",
}

# One value of each JSON type; a top-level value is replaced by each
# one of another type.
TYPED_VALUES = (None, True, 7, 2.5, "x", ["x"], {"x": 1})
HUGE = 10 ** 30


def _json_type(value):
    if isinstance(value, bool) or value is None:
        return type(value)
    return float if isinstance(value, (int, float)) else type(value)


def _repeat_first(chart):
    return [chart[0], chart[0], *chart[2:]] if len(chart) > 1 else chart * 2


def mutations(cfg):
    """(label, file bytes, extra argv) for each mutation of ``cfg``."""
    def as_bytes(obj):
        return json.dumps(obj).encode("utf-8")

    for key in cfg:
        changed = copy.deepcopy(cfg)
        del changed[key]
        yield f"delete {key}", as_bytes(changed), []
        if isinstance(cfg[key], dict):
            for inner in cfg[key]:
                changed = copy.deepcopy(cfg)
                del changed[key][inner]
                yield f"delete {key}.{inner}", as_bytes(changed), []
        for value in TYPED_VALUES:
            if _json_type(value) is not _json_type(cfg[key]):
                changed = {**cfg, key: value}
                yield f"{key} = {value!r}", as_bytes(changed), []
    yield "unknown key", as_bytes({**cfg, "mystery": 1}), []
    for path in (("chart",), ("fiber", "chart"), ("base", "chart")):
        *outer, last = path
        holder = cfg
        for key in outer:
            holder = holder.get(key, {})
        if isinstance(holder.get(last), list):
            changed = copy.deepcopy(cfg)
            target = changed
            for key in outer:
                target = target[key]
            target[last] = _repeat_first(target[last])
            yield f"repeat a name in {'.'.join(path)}", as_bytes(changed), []
    for count in (0, 1, HUGE):
        for axis in cfg.get("grid", {}):
            changed = copy.deepcopy(cfg)
            changed["grid"][axis][2] = count
            yield f"grid.{axis} count {count}", as_bytes(changed), []
        yield f"--grid {count}", as_bytes(cfg), ["--grid", str(count)]
    text = as_bytes(cfg)
    yield "a byte 0xff", text[:1] + b"\xff" + text[1:], []
    yield "latin-1 text", as_bytes({**cfg, "note": "@"}).replace(b"@", b"\xe9"), []


def run_main(capsys, argv):
    """main's exit code, stdout and stderr, or the exception it raised."""
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - any raise escapes
        capsys.readouterr()
        return exc, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def breach(code, stdout, stderr):
    """How a run breaks the exit-code contract, or None."""
    if isinstance(code, BaseException):
        return f"raised {type(code).__name__}: {code}"
    if code not in (0, 1, 2, 3):
        return f"exit {code!r}"
    if code == 1 and not stdout.startswith("FAIL "):
        return f"exit 1 with stdout {stdout[:60]!r}"
    if code in (2, 3):
        prefix = "config error: " if code == 2 else "numeric error: "
        lines = stderr.splitlines()
        if len(lines) != 1 or not lines[0].startswith(prefix):
            return f"exit {code} with stderr {stderr[-200:]!r}"
    return None


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_no_mutation_of_a_shipped_config_escapes_the_contract(
        name, tmp_path, capsys):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    path = tmp_path / "job.json"
    out = tmp_path / "report.csv"
    escapes = []
    for label, data, flags in mutations(cfg):
        path.write_bytes(data)
        code, stdout, stderr = run_main(
            capsys, [COMMANDS[name], str(path), "--out", str(out), *flags])
        problem = breach(code, stdout, stderr)
        if problem is not None:
            escapes.append(f"{label}: {problem}")
    assert escapes == []


def _write(tmp_path, cfg):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _expect_config_error(capsys, argv, *texts):
    code, stdout, stderr = run_main(capsys, argv)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("config error: ") and stderr.count("\n") == 1
    for text in texts:
        assert text in stderr


def test_a_numeric_custom_metric_over_a_repeated_chart_is_exit_two(
        tmp_path, capsys):
    # Numeric components become constant fields, which never pass the
    # parser; this job used to write a CSV headed a,a,tau,...
    path = _write(tmp_path, {
        "family": "custom", "chart": ["a", "a"], "metric": [[1, 0], [0, 1]],
        "signature": "++", "grid": {"a": [-1.0, 1.0, 3]},
    })
    _expect_config_error(capsys, ["curvature", path, "--out",
                                  str(tmp_path / "r.csv")],
                         "chart has repeated names: ('a', 'a')")
    assert not (tmp_path / "r.csv").exists()


def test_a_grw_construction_over_a_repeated_flat_fiber_is_exit_two(
        tmp_path, capsys):
    # The flat fiber is built from numbers; this job used to print a
    # FAIL verdict with exit 1.
    cfg = json.loads((CONFIGS / "grw_construct.json").read_text(encoding="utf-8"))
    cfg["fiber"]["chart"] = ["x", "x"]
    _expect_config_error(capsys, ["construct", _write(tmp_path, cfg)],
                         "chart has repeated names: ('x', 'x')")


@pytest.mark.parametrize("family", ["grw", "warped"])
def test_verify_over_a_repeated_flat_fiber_is_exit_two(tmp_path, capsys,
                                                       family):
    if family == "grw":
        cfg = json.loads((CONFIGS / "grw_gqy_verify.json").read_text(
            encoding="utf-8"))
    else:
        cfg = {"family": "warped", "warping": "exp(s)", "potential": "s",
               "base": {"chart": ["s"], "metric": [["1"]], "signature": "+"},
               "fiber": {"type": "flat", "chart": ["x1", "x2"]},
               "grid": {"s": [0.0, 1.0, 3]}}
    cfg["fiber"]["chart"] = ["x", "x"]
    _expect_config_error(capsys, ["verify", _write(tmp_path, cfg)],
                         "chart has repeated names: ('x', 'x')")


def test_a_repeated_base_chart_is_exit_two(tmp_path, capsys):
    path = _write(tmp_path, {
        "family": "warped", "warping": "1", "potential": "s",
        "base": {"chart": ["s", "s"], "metric": [[1, 0], [0, 1]],
                 "signature": "++"},
        "fiber": {"type": "flat", "chart": ["x"]},
        "grid": {"s": [0.0, 1.0, 3]},
    })
    _expect_config_error(capsys, ["verify", path],
                         "chart has repeated names: ('s', 's')")


def test_a_config_that_is_not_utf8_is_exit_two(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_bytes(b'{"family": "walker3", "metric_function": "t\xff"}')
    _expect_config_error(capsys, ["curvature", str(path)],
                         f"{path} is not valid UTF-8: ")


@pytest.mark.parametrize("name", ["static_verify", "walker4_verify_fail",
                                  "grw_construct", "walker4_certified"])
def test_a_report_that_cannot_be_written_prints_no_verdict(name, tmp_path,
                                                           capsys):
    # The report is written before the verdict, so a passing verify, a
    # failing one and both kinds of construction print nothing on stdout.
    out = tmp_path / "missing" / "r.csv"
    _expect_config_error(capsys, [COMMANDS[name], str(CONFIGS / f"{name}.json"),
                                  "--out", str(out)], "cannot write")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, axis", [("flat_curvature", "a"),
                                        ("sphere_curvature", "v")])
def test_a_grid_count_numpy_cannot_allocate_is_exit_two(tmp_path, capsys,
                                                        name, axis):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    cfg["grid"][axis][2] = HUGE
    _expect_config_error(capsys, ["curvature", _write(tmp_path, cfg)],
                         "cannot sample a grid of ", str(HUGE))


@pytest.mark.parametrize("name", ["flat_curvature", "static_verify",
                                  "grw_construct", "walker3_certified"])
def test_a_grid_that_numpy_runs_out_of_memory_for_is_exit_two(
        tmp_path, capsys, monkeypatch, name):
    # Each command samples its ranges through one helper, which turns
    # numpy's MemoryError from meshing the axes into a config error
    # naming the counts.
    def out_of_memory(axes):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(cli, "mesh_points", out_of_memory)
    _expect_config_error(
        capsys, [COMMANDS[name], str(CONFIGS / f"{name}.json"),
                 "--grid", "7"],
        "cannot sample a grid of ")


def test_a_large_time_sample_count_still_constructs(tmp_path, capsys):
    # Counts are not capped up front: the GRW construction samples only
    # its time axis, so 2000 samples are cheap.
    code, stdout, _ = run_main(capsys, [
        "construct", str(CONFIGS / "grw_construct.json"), "--grid", "2000",
        "--out", str(tmp_path / "grw.csv")])
    assert code == 0 and stdout.startswith("PASS ")
    assert len((tmp_path / "grw.csv").read_text().splitlines()) == 2000 + 4


def _run_strict(argv):
    """run_main's outcome with every warning turned into an error, so a
    warning escapes main as an exception; stdout and stderr are caught
    here rather than by a fixture, so hypothesis can call it."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - an escape
            return exc, "", ""
    return code, out.getvalue(), err.getvalue()


def test_a_determinant_past_the_float_range_is_one_numeric_error(tmp_path):
    # det = 1 - 1e616 overflows; numpy used to warn on stderr before the
    # numeric error line.
    path = _write(tmp_path, {
        "family": "custom", "chart": ["x", "y"],
        "metric": [["1", "1e308"], ["1e308", "1"]], "signature": "++",
        "grid": {"x": [-1, 1, 2], "y": [-1, 1, 2]},
    })
    code, stdout, stderr = _run_strict(
        ["curvature", path, "--out", str(tmp_path / "r.csv")])
    assert (code, stdout) == (3, "")
    assert stderr.startswith("numeric error: ") and stderr.count("\n") == 1


def test_metric_data_past_the_float_range_raise_no_warning():
    # The same metric through the library: its det is inf, and the
    # eigenvalues alone name the failure.
    metric = MetricField.from_rows(("x", "y"), [["1", "1e308"], ["1e308", "1"]],
                                   "++")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SignatureMismatchError):
            metric_at(metric, [[-1.0, -1.0], [1.0, 1.0]])


# Random custom 2d jobs: each metric entry and the potential a random
# expression over the whole grammar, constants up to 1e308.
FUZZ_CHART = ("x", "y")
FUZZ_NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "2", "0.5", "3.7", "1e-300", "1e308"]),
    st.floats(0.0, 1e308).map(repr))


def _fuzz_grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(FUNCTIONS), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, st.sampled_from(["2", "3", "0.5", "1.5", "-1", "-0.5"])
                  ).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda e: f"-{e}"))


FUZZ_EXPRESSIONS = st.recursive(
    st.one_of(st.sampled_from(FUZZ_CHART), FUZZ_NUMBERS), _fuzz_grow,
    max_leaves=6)


@st.composite
def fuzz_jobs(draw, command):
    a, b, c = (draw(FUZZ_EXPRESSIONS) for _ in range(3))
    cfg = {"family": "custom", "chart": list(FUZZ_CHART),
           "metric": [[a, b], [b, c]], "signature": draw(
               st.sampled_from(["++", "-+"])),
           "grid": {"x": [-1, 1, 3], "y": [0.5, 2, 2]}}
    if command == "verify":
        cfg["potential"] = draw(FUZZ_EXPRESSIONS)
        if draw(st.booleans()):
            cfg["constants"] = {"lambda": draw(st.sampled_from([0, -2, 1e308])),
                                "mu": draw(st.sampled_from([0, 0.5]))}
    return cfg


@pytest.mark.parametrize("command", ["curvature", "verify"])
def test_random_custom_jobs_keep_the_exit_code_contract(command,
                                                        tmp_path_factory):
    directory = tmp_path_factory.mktemp(command)
    path, out = directory / "job.json", str(directory / "report.csv")

    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fuzz_jobs(command))
    def run(cfg):
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, stdout, stderr = _run_strict([command, str(path), "--out", out])
        assert breach(code, stdout, stderr) is None, cfg
        if code in (0, 1):
            assert stderr == "", cfg
        if command == "verify" and code in (0, 1):
            verdict = stdout.splitlines()[-1]
            assert verdict.startswith("PASS " if code == 0 else "FAIL "), cfg

    run()


# Random GRW constructions: the warping a random expression in t over
# the whole grammar, so that its sin, cos and sqrt guards run inside the
# batched quadratures of the potential, on arrays and, where an array
# call raises, one point at a time.  Most such expressions are not
# positive somewhere on the interval, so most are wrapped in a form that
# is positive where it is finite.
def positive_expressions(leaves):
    return st.tuples(
        st.sampled_from(["{}", "2 + {}", "({})^2 + 0.5", "exp({})"]),
        st.recursive(st.one_of(leaves, FUZZ_NUMBERS), _fuzz_grow,
                     max_leaves=5),
    ).map(lambda t: t[0].format(t[1]))


FUZZ_WARPINGS = positive_expressions(st.just("t"))


@st.composite
def fuzz_constructions(draw):
    return {"family": "grw", "warping": draw(FUZZ_WARPINGS),
            "interval": [1.0, 2.0], "fiber": {"type": "flat", "chart": ["x"]},
            "constants": {"alpha": draw(st.sampled_from([6.0, -0.5, 1e308])),
                          "t0": draw(st.sampled_from([1.0, 1.25, 2.0]))}}


def test_random_grw_constructions_keep_the_exit_code_contract(
        tmp_path_factory):
    directory = tmp_path_factory.mktemp("construct")
    path, out = directory / "job.json", str(directory / "report.csv")

    @settings(derandomize=True, max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fuzz_constructions())
    def run(cfg):
        assert_verdict_contract(path, cfg, ["construct", str(path), "--out",
                                            out, "--grid", "3"])

    run()


def assert_verdict_contract(path, cfg, argv):
    """Write ``cfg`` to ``path``, run ``argv`` with warnings as errors and
    assert the contract for a command that prints a verdict: exits 0
    and 1 leave stderr empty and end stdout with PASS or FAIL."""
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, stdout, stderr = _run_strict(argv)
    assert breach(code, stdout, stderr) is None, cfg
    if code in (0, 1):
        assert stderr == "", cfg
        verdict = stdout.splitlines()[-1]
        assert verdict.startswith("PASS " if code == 0 else "FAIL "), cfg


# Random static, walker3 and walker4 jobs.  The static lapse and the
# walker4 warping are positive where finite, as the GRW warpings are;
# the walker3 profiles range over the whole grammar, and every constant
# over FUZZ_NUMBERS with signs.
FUZZ_CONSTANTS = st.one_of(FUZZ_NUMBERS.map(float),
                           FUZZ_NUMBERS.map(lambda x: -float(x)))


def expressions_in(*names):
    return st.recursive(st.one_of(st.sampled_from(names), FUZZ_NUMBERS),
                        _fuzz_grow, max_leaves=5)


FUZZ_STATIC = st.fixed_dictionaries({
    "family": st.just("static"),
    "lapse": positive_expressions(st.sampled_from(["x1", "x2"])),
    "fiber": st.just({"type": "flat", "chart": ["x1", "x2"]}),
    "potential": st.just("x1"),
    "constants": st.fixed_dictionaries(
        {"lambda": st.sampled_from([-2.0, 0.0])}),
})
FUZZ_WALKER3 = st.fixed_dictionaries({
    "family": st.just("walker3"),
    "eta": expressions_in("y"),
    "zeta": expressions_in("x", "y"),
    "constants": st.fixed_dictionaries({"kappa": FUZZ_CONSTANTS}),
})
FUZZ_WALKER4 = st.fixed_dictionaries({
    "family": st.just("walker4"),
    "warping": FUZZ_WARPINGS,
    "constants": st.fixed_dictionaries(
        {name: FUZZ_CONSTANTS for name in ("c0", "c1", "c2", "c3", "t0")}),
})

# (command, strategy, examples): each family's share of tier-1 is about
# a second.  A walker4 t0 far from the grid makes its quadratures stall,
# each in under a second.
FUZZ_FAMILIES = {
    "static": ("verify", FUZZ_STATIC, 100),
    "walker3": ("construct", FUZZ_WALKER3, 100),
    "walker4": ("construct", FUZZ_WALKER4, 30),
}


@pytest.mark.parametrize("family", sorted(FUZZ_FAMILIES))
def test_random_family_jobs_keep_the_exit_code_contract(family,
                                                        tmp_path_factory):
    command, jobs, examples = FUZZ_FAMILIES[family]
    directory = tmp_path_factory.mktemp(family)
    path, out = directory / "job.json", str(directory / "report.csv")

    @settings(derandomize=True, max_examples=examples, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(jobs)
    def run(cfg):
        assert_verdict_contract(path, cfg, [command, str(path), "--out", out,
                                            "--grid", "3"])

    run()


@pytest.mark.parametrize("warping, message", [
    ("2 + sin(1e100*exp(1400*(1.5 - t)))", "sin of an infinite argument"),
    ("2 + cos(1e100*exp(1400*(1.5 - t)))", "cos of an infinite argument"),
    ("sqrt(t - 1.5)", "sqrt of a negative argument"),
])
def test_a_guard_inside_the_potential_quadrature_is_one_numeric_error(
        tmp_path, capsys, warping, message):
    # Each warping and its jets are finite on the grid's times, from 1.6,
    # and fail only at points below 1.5 that the quadrature from t0 = 1
    # samples for the potential's jet at the first grid point.
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "family": "grw", "warping": warping, "interval": [1.6, 2.0],
        "fiber": {"type": "flat", "chart": ["x"]},
        "constants": {"alpha": 6.0, "t0": 1.0}}), encoding="utf-8")
    assert _run_strict(["construct", str(path), "--out",
                        str(tmp_path / "out.csv"), "--grid", "3"]) \
        == (3, "", f"numeric error: {message} at [1.6, -1.0]\n")


def test_a_walker4_t0_near_the_float_range_passes(tmp_path):
    # The running integrals from t0 to the grid's times never sum two
    # ends past the float range: with w = 0 every profile value is 0.
    # (A table padded around t0 and the grid once asked for one at -inf.)
    t0 = -9.131139732633985e+307
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "family": "walker4", "warping": "0",
        "constants": {"c0": 0.0, "c1": 0.0, "c2": 0.0, "c3": 0.0, "t0": t0}}),
        encoding="utf-8")
    out = tmp_path / "out.csv"
    assert _run_strict(["construct", str(path), "--out", str(out),
                        "--grid", "3"]) == (
        0, "PASS lambda=0.000000000000e+00 class=steady\n", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() \
        == "fce764543d5ecb9cb19075f0fdacce140fbadf021d0e20e905fd68a6e728cd9f"


@pytest.mark.parametrize("command, config", [
    ("curvature", {"family": "custom", "chart": ["a"], "metric": [[1]],
                   "signature": "+", "grid": {"a": [-1.7e308, 1.7e308, 3]}}),
    ("construct", {"family": "walker4", "warping": "1",
                   "constants": {"c0": 1, "c1": 1},
                   "grid": {"t": [-1.7e308, 1.7e308, 3]}}),
    ("construct", {"family": "grw", "warping": "2", "interval": [1, 2],
                   "fiber": {"type": "flat", "chart": ["x"]},
                   "constants": {"alpha": 1, "t0": 1},
                   "grid": {"t": [-1.7e308, 1.7e308, 3]}}),
], ids=["curvature", "walker4", "grw"])
def test_a_grid_past_the_float_range_is_one_config_error(command, config,
                                                         tmp_path):
    # numpy's linspace over (-1.7e308, 1.7e308) gives nan and inf; the
    # sampled axis is refused before anything is computed at them.
    name = next(iter(config["grid"]))
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert _run_strict([command, str(path), "--out", str(out)]) == (
        2, "", f"config error: grid.{name}: the range samples a non-finite "
        "value\n")
    assert not out.exists()
