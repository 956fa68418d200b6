"""The level-batched jet walk against a per-entry reference walk.

_reference_walk below evaluates the same value-numbered tape one entry
at a time, in tape order, each entry through its own numpy calls on
(P,) arrays, and stops at the first check in tape order that fails
anywhere on the stack.  in_grid_order turns that into the failure a
loop over the points meets first, which walk_jets must report by
itself.  The reference keeps its own copies of the numbering, with the
fold of a constant operand into an entry a*u + b that reads u alone,
and of every rule, so agreement, bit for bit and error for error, is
evidence rather than a restatement.
"""

import math
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from solitonlab import DomainError, autodiff, grid_points
from solitonlab.autodiff import walk_jets
from solitonlab.errors import in_grid_order
from solitonlab.expressions import (
    Add,
    Call,
    Const,
    Div,
    Integral,
    Mul,
    Neg,
    Pow,
    ScalarField,
    Sub,
    Var,
)
from solitonlab.metrics import MetricField

from conftest import elementwise

from bench import workloads


CHART = ("x", "y")
CONSTANTS = (0.0, -0.0, 1.0, -1.0, 0.5, 3.0, -2.5, 0.1, -1.7, 1e-300, 1e308)
COORDINATES = (0.0, -0.0, 1.0, -1.0, 0.25, 2.0, -3.0, 0.1, 1.3, -0.7, 700.0,
               1e300)
EXPONENTS = (2.0, 3.0, -1.0, -2.0, 0.5, 1.5, 2.5, -0.5, 0.0)
FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt")
EXP_ARG_MAX = math.log(sys.float_info.max)


def _log_past_one(t):
    """The integral of 1/(t - 1) from 2, refused where t - 1 is not
    positive."""
    if t <= 1.0:
        raise DomainError("profile needs a positive argument")
    return math.log(t - 1.0)


# Running integrals, as an Integral reads them.  The walk takes the
# integrand's jet for the derivatives, whatever it is.
RUNNING = tuple(map(elementwise, (lambda t: t * t, _log_past_one,
                                  lambda t: 1, math.atan)))


# ---------------------------------------------------------------------
# The reference: one tape entry at a time
# ---------------------------------------------------------------------

def _ref_fail_at(bad, message, points):
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"{message} at {points[i].tolist()}", index=i)


def _ref_pointwise(terms, values, points):
    rows = []
    for i, x in enumerate(values.tolist()):
        try:
            rows.append(terms(x))
        except DomainError as exc:
            raise DomainError(f"{exc} at {points[i].tolist()}", index=i) from None
    return np.array(rows, dtype=float).T


def _ref_chain(u, f0, f1, f2):
    value, g, h = u
    outer = g[:, :, None] * g[:, None, :]
    return (f0, f1[:, None] * g,
            f1[:, None, None] * h + f2[:, None, None] * outer)


def _ref_mul(a, b):
    (a0, ga, ha), (b0, gb, hb) = a, b
    cross = ga[:, :, None] * gb[:, None, :] + gb[:, :, None] * ga[:, None, :]
    av, bv = a0[:, None], b0[:, None]
    return (a0 * b0, av * gb + bv * ga,
            av[:, :, None] * hb + bv[:, :, None] * ha + cross)


def _ref_pow_value(base, exponent):
    if float(exponent).is_integer():
        exponent = int(exponent)
        if base == 0.0 and exponent < 0:
            raise DomainError("zero raised to a negative power")
    elif base < 0.0:
        raise DomainError("fractional power of a negative base")
    elif base == 0.0 and exponent < 0.0:
        raise DomainError("zero raised to a negative power")
    try:
        return base ** exponent
    except OverflowError:
        raise DomainError("overflow in power") from None


def _ref_entry(node, args, points):
    p, n = points.shape
    if isinstance(node, Const):
        return (np.full(p, float(node.value)), np.zeros((p, n)),
                np.zeros((p, n, n)))
    if isinstance(node, Var):
        k = CHART.index(node.name)
        grad = np.zeros((p, n))
        grad[:, k] = 1.0
        return points[:, k].copy(), grad, np.zeros((p, n, n))
    if isinstance(node, tuple):
        # A folded entry a*u + b.
        a, b = node
        value, g, h = (a * part for part in args[0])
        return value + b, g, h
    if isinstance(node, Add):
        return tuple(a + b for a, b in zip(*args))
    if isinstance(node, Sub):
        return tuple(a - b for a, b in zip(*args))
    if isinstance(node, Mul):
        return _ref_mul(*args)
    if isinstance(node, Div):
        num, den = args
        _ref_fail_at(den[0] == 0.0, "division by zero", points)
        w = 1.0 / den[0]
        return _ref_mul(num, _ref_chain(den, w, -w * w, 2.0 * w * w * w))
    if isinstance(node, Integral):
        # The running integrals at every point, the integrand's value as
        # the variable's gradient entry, its gradient as that hessian
        # row and column.
        k = CHART.index(node.var)
        try:
            value = node.running(points[:, k].copy())
        except DomainError as exc:
            raise DomainError(f"{exc} at {points[exc.index].tolist()}",
                              index=exc.index) from None
        (slope, curve, _), = args
        grad, hess = np.zeros((p, n)), np.zeros((p, n, n))
        grad[:, k] = slope
        hess[:, k, :] = hess[:, :, k] = curve
        return value, grad, hess
    (u,) = args
    x = u[0]
    if isinstance(node, Pow):
        c = node.exponent
        blows_up_at_zero = c < 2.0 and not float(c).is_integer()

        def terms(t):
            f0 = _ref_pow_value(t, c)
            if t == 0.0 and blows_up_at_zero:
                raise DomainError("fractional power jet needs a positive base")
            return f0, _ref_pow_value(t, c - 1.0), _ref_pow_value(t, c - 2.0)

        f0, p1, p2 = _ref_pointwise(terms, x, points)
        return _ref_chain(u, f0, c * p1, c * (c - 1.0) * p2)
    if node.func == "exp":
        _ref_fail_at(x > EXP_ARG_MAX, "overflow in exp", points)
        e = np.exp(x)
        return _ref_chain(u, e, e, e)
    if node.func == "ln":
        _ref_fail_at(x <= 0.0, "ln of a non-positive argument", points)
        return _ref_chain(u, np.log(x), 1.0 / x, -1.0 / (x * x))
    if node.func == "sin":
        _ref_fail_at(np.isinf(x), "sin of an infinite argument", points)
        s, c = np.sin(x), np.cos(x)
        return _ref_chain(u, s, c, -s)
    if node.func == "cos":
        _ref_fail_at(np.isinf(x), "cos of an infinite argument", points)
        s, c = np.sin(x), np.cos(x)
        return _ref_chain(u, c, -s, -c)
    _ref_fail_at(x <= 0.0, "sqrt jet needs a positive argument", points)
    r = np.sqrt(x)
    return _ref_chain(u, r, 0.5 / r, -0.25 / (x * r))


def _ref_operands(node):
    """The operands of a Neg, Add, Sub, Mul or Div, else ()."""
    if isinstance(node, Neg):
        return (node.arg,)
    if isinstance(node, Div):
        return node.num, node.den
    if isinstance(node, (Add, Sub, Mul)):
        return node.left, node.right
    return ()


def _ref_fold(node):
    """(u, a, b) if ``node`` is a*u + b, its one operand u not a Const:
    c*u and u*c (a = c), u/c for c nonzero (a = 1/c), c+u and u+c
    (b = c), u-c (b = -c), -u (a = -1); b = -0.0 and a = 1.0 where
    unset.  Else None."""
    if isinstance(node, Neg):
        return node.arg, -1.0, -0.0
    operands = _ref_operands(node)
    consts = [isinstance(kid, Const) for kid in operands]
    if consts.count(True) != 1:
        return None
    if consts[0]:
        c, u = operands
    else:
        u, c = operands
    if isinstance(node, Mul):
        return u, c.value, -0.0
    if isinstance(node, Add):
        return u, 1.0, c.value
    if consts[1] and isinstance(node, Sub):
        return u, 1.0, -c.value
    if consts[1] and isinstance(node, Div) and c.value != 0.0:
        return u, 1.0 / c.value, -0.0
    return None


def _ref_number(root, tape, by_id, by_key):
    if id(root) in by_id:
        return by_id[id(root)]
    node = root
    bits = struct.Struct("<d").pack
    fold = _ref_fold(node)
    if fold is not None:
        # An entry (a, b) that reads u alone.  The Const is not
        # numbered: its bits stand in the key.
        u, a, b = fold
        args = (_ref_number(u, tape, by_id, by_key),)
        key = (type(node), *[("const", bits(kid.value)) if kid is not u
                             else args[0] for kid in _ref_operands(node)])
        node = (a, b)
    elif isinstance(node, (Add, Sub, Mul)):
        args = (_ref_number(node.left, tape, by_id, by_key),
                _ref_number(node.right, tape, by_id, by_key))
        key = (type(node), *args)
    elif isinstance(node, Div):
        args = (_ref_number(node.num, tape, by_id, by_key),
                _ref_number(node.den, tape, by_id, by_key))
        key = (Div, *args)
    elif isinstance(node, Const):
        args, key = (), (Const, bits(node.value))
    elif isinstance(node, Var):
        args, key = (), (Var, node.name)
    elif isinstance(node, Pow):
        args = (_ref_number(node.base, tape, by_id, by_key),)
        key = (Pow, bits(node.exponent), *args)
    elif isinstance(node, Integral):
        args = (_ref_number(node.integrand, tape, by_id, by_key),)
        key = (Integral, id(node), *args)
    else:
        args = (_ref_number(node.arg, tape, by_id, by_key),)
        key = (type(node), getattr(node, "func", None), *args)
    k = by_key.setdefault(key, len(tape))
    if k == len(tape):
        tape.append((node, args))
    by_id[id(root)] = k
    return k


def _reference_walk(roots, points):
    """Jets (value, gradient, hessian) of the trees ``roots``, one tape
    entry at a time; each field is checked for finite entries where
    its entries end."""
    tape, by_id, by_key = [], {}, {}
    numbers, ends = [], []
    for root in roots:
        numbers.append(_ref_number(root, tape, by_id, by_key))
        ends.append(len(tape))
    jets = []
    for k, (node, args) in enumerate(tape):
        jets.append(_ref_entry(node, [jets[a] for a in args], points))
        for f, end in enumerate(ends):
            if end == k + 1:
                value, g, h = jets[numbers[f]]
                finite = (np.isfinite(value) & np.isfinite(g).all(axis=1)
                          & np.isfinite(h).all(axis=(1, 2)))
                _ref_fail_at(~finite, "jet evaluation produced a non-finite value",
                             points)
    return [jets[k] for k in numbers]


# ---------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------

def _outcome(run):
    """The float64 bytes of every jet run() returns, or the type,
    message and index of the error it raised."""
    try:
        jets = run()
    except DomainError as exc:
        return type(exc), str(exc), exc.index
    return [tuple(np.asarray(part, dtype=float).tobytes() for part in jet)
            for jet in jets]


def _batched(roots, points):
    jets = walk_jets([ScalarField(CHART, root) for root in roots], points)
    return [(jet.value, jet.gradient, jet.hessian) for jet in jets]


def _assert_walks_agree(roots, points):
    with np.errstate(all="ignore"):
        expected = _outcome(lambda: in_grid_order(
            lambda q: _reference_walk(roots, q), points))
        got = _outcome(lambda: _batched(roots, points))
    assert got == expected


@st.composite
def forests(draw):
    """One to three random expression trees that share subtrees, by
    identity and by structure, and reach several levels."""
    leaves = st.one_of(st.sampled_from(CONSTANTS).map(Const),
                       st.sampled_from(CHART).map(Var))
    pool = [draw(leaves), draw(leaves)]

    def operand():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(
            ("leaf", "neg", "add", "sub", "mul", "div", "pow", "call",
             "integral")))
        if kind == "leaf":
            node = draw(leaves)
        elif kind == "neg":
            node = Neg(operand())
        elif kind in ("add", "sub", "mul", "div"):
            cls = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind]
            node = cls(operand(), operand())
        elif kind == "pow":
            node = Pow(operand(), draw(st.sampled_from(EXPONENTS)))
        elif kind == "call":
            node = Call(draw(st.sampled_from(FUNCTIONS)), operand())
        else:
            # An integrand reads its integral's variable alone.
            var = draw(st.sampled_from(CHART))
            integrands = [n for n in pool if n.reads <= {var}] or [Const(1.0)]
            node = Integral(draw(st.sampled_from(integrands)), var, 0.0,
                            draw(st.sampled_from(RUNNING)))
        pool.append(node)
    count = draw(st.integers(1, 3))
    return [pool[-1]] + [operand() for _ in range(count - 1)]


stacks = st.lists(st.tuples(st.sampled_from(COORDINATES),
                            st.sampled_from(COORDINATES)),
                  min_size=1, max_size=6).map(np.array)


# Folded constants with zeros in the operand's jet: the general rules'
# zero derivatives may differ from the fold's in their sign alone.
FOLD_POINTS = np.array([[1.0, 0.0], [-0.0, -3.0], [-2.0, 1e300]])


@settings(derandomize=True, max_examples=500, deadline=None)
@given(forests(), stacks)
@example([Mul(Const(-2.0), Var("x"))], FOLD_POINTS)
@example([Add(Const(1.0), Mul(Var("y"), Const(-0.0)))], FOLD_POINTS)
@example([Div(Call("sin", Var("x")), Const(-4.0))], FOLD_POINTS)
def test_the_batched_walk_matches_the_reference_walk(roots, points):
    _assert_walks_agree(roots, points)


# ---------------------------------------------------------------------
# Chosen failures
# ---------------------------------------------------------------------

X, Y = Var("x"), Var("y")


@pytest.mark.parametrize("roots, points, message, index", [
    # ln(x) is at level 1 and fails at point 2; the deeper 1/(y*y - 1)
    # fails at point 1, which a loop over the points meets first.
    ([Add(Call("ln", X), Div(Const(1.0), Sub(Mul(Y, Y), Const(1.0))))],
     [[1.0, 2.0], [1.0, 1.0], [-1.0, 2.0]],
     "division by zero at [1.0, 1.0]", 1),
    # Both fail at point 1; sqrt comes first in tape order.
    ([Mul(Call("sqrt", Sub(X, Const(1.0))), Call("ln", Neg(Y)))],
     [[2.0, -1.0], [0.5, 1.0]],
     "sqrt jet needs a positive argument at [0.5, 1.0]", 1),
    # A power fails at point 0 below a call that fails nowhere.
    ([Call("exp", Pow(Sub(X, Const(2.0)), 0.5))],
     [[1.0, 0.0], [3.0, 0.0]],
     "fractional power of a negative base at [1.0, 0.0]", 0),
    # A running integral fails at point 2, a later field's ln at point 1.
    ([Integral(Sub(X, Const(1.0)), "x", 2.0, RUNNING[1]), Call("ln", Y)],
     [[2.0, 1.0], [3.0, -1.0], [0.5, -1.0]],
     "ln of a non-positive argument at [3.0, -1.0]", 1),
    # The first field overflows at point 1; the second field's exp
    # overflows at point 0.
    ([Mul(X, X), Call("exp", Y)],
     [[1.0, 800.0], [1e300, 0.0]],
     "overflow in exp at [1.0, 800.0]", 0),
    ([Mul(X, X), Call("exp", Y)],
     [[1.0, 8.0], [1e300, 0.0]],
     "jet evaluation produced a non-finite value at [1e+300, 0.0]", 1),
    # A running integral that fails at points 1 and 2 names point 1,
    # its error's index, before the ln at point 3.
    ([Add(Integral(Div(Const(1.0), Sub(X, Const(1.0))), "x", 2.0,
                   RUNNING[1]), Call("ln", Y))],
     [[2.0, 1.0], [0.5, 1.0], [1.0, 1.0], [3.0, -1.0]],
     "profile needs a positive argument at [0.5, 1.0]", 1),
    # The integrand and the running integral both fail at point 1; the
    # integrand comes first in tape order.
    ([Integral(Div(Const(1.0), Sub(X, Const(1.0))), "x", 2.0, RUNNING[1])],
     [[2.0, 1.0], [1.0, 1.0]],
     "division by zero at [1.0, 1.0]", 1),
    # The running integral fails at point 2; the ln above it reads the
    # integrals of the points before it, which are positive.
    ([Call("ln", Integral(Div(Const(1.0), Sub(X, Const(1.0))), "x", 2.0,
                          RUNNING[1]))],
     [[3.0, 0.0], [4.0, 0.0], [0.5, 0.0]],
     "profile needs a positive argument at [0.5, 0.0]", 2),
])
def test_a_walk_fails_at_the_first_bad_point(roots, points, message, index):
    points = np.array(points)
    with pytest.raises(DomainError) as caught, np.errstate(over="ignore"):
        _batched(roots, points)
    assert (str(caught.value), caught.value.index) == (message, index)
    _assert_walks_agree(roots, points)


def test_a_failing_eval_jet2_walks_once(monkeypatch):
    calls = []

    def counted(fields, points):
        calls.append(len(points))
        return walk_jets(fields, points)

    monkeypatch.setattr(autodiff, "walk_jets", counted)
    field = ScalarField(CHART, Add(Call("ln", X), Y))
    points = np.array([[1.0, 0.0], [2.0, 1.0], [-1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(DomainError) as caught:
        autodiff.eval_jet2(field, points)
    assert str(caught.value) == "ln of a non-positive argument at [-1.0, 0.0]"
    assert caught.value.index == 2
    assert calls == [4]


def test_a_profile_below_a_failed_point_never_sees_it():
    # The running integrals of an integral whose integrand fails.
    seen = []

    def record(t):
        seen.append(t)
        return t

    integral = Integral(Call("ln", X), "x", 0.0, elementwise(record))
    points = np.array([[np.e, 0.0], [-1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DomainError, match=r"ln of a non-positive argument at \[-1.0"):
        _batched([integral], points)
    assert seen == [np.e]
    _assert_walks_agree([integral], points)


def test_a_failing_walk_raises_no_floating_point_warning():
    # Points 1 and 2 fail checks; the last point, past them, overflows.
    roots = [Add(Div(Const(1.0), X), Call("ln", X)), Call("sqrt", Y),
             Call("exp", Mul(Y, Const(1e3))), Mul(X, Y)]
    points = np.array([[1.0, 0.5], [0.0, -1.0], [-1.0, 0.0], [2.0, 1.0],
                       [1e200, 1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="division by zero at"):
            _batched(roots, points)
        _assert_walks_agree(roots, points)


def test_a_walk_of_the_first_unshared_deep_job_stays_within_a_mebibyte():
    # A deterministic guard on the walk's memory: the slot buffer keeps
    # only live jets, batches are capped, and a constant read only as
    # the folded operand of an entry a*u + b takes no slot.  A buffer
    # with a row for every tape entry, uncapped batches, or a slot for
    # every constant (a peak of about 627,000 bytes) would fail it.
    job = next(job for job in workloads.first_jobs("curvature-deep", 401,
                                                   workloads.BLOCK)
               if not job.facts["shared"])
    assert job.name == "curvature-0000-1"
    config = job.config
    metric = MetricField.from_rows(config["chart"], config["metric"],
                                   config["signature"])
    grid = {name: tuple(spec) for name, spec in config["grid"].items()}
    points = grid_points(metric.chart, grid)
    fields = [metric.components[i][j] for i in range(3) for j in range(i, 3)]
    tracemalloc.start()
    try:
        walk_jets(fields, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 576 << 10
