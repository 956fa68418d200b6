"""Second-order forward-mode differentiation of scalar fields.

eval_jet2 walks an expression tree once and propagates (value,
gradient, hessian) triples, so every mixed partial up to order two
comes out in a single evaluation.  The walk carries a leading point
axis: over a (P, n) stack of points it propagates values (P,),
gradients (P, n) and hessians (P, n, n), so a tree is walked once per
grid, not once per point (vectorised forward-mode Taylor propagation,
Griewank and Walther, Evaluating Derivatives, 2nd ed.).  A single
point (n,) is the P = 1 case of the same walk.  Each point's numbers
are the ones a walk at that point alone would give, bit for bit:
elementwise numpy arithmetic and the exp/ln/sin/cos/sqrt ufuncs round
as their scalar forms do, and constant powers and External profiles,
whose array forms would not, are evaluated point by point.

walk_jets evaluates the jets of several fields on one chart, such as
the components of a metric, by value numbering (Griewank and Walther,
ch. 5-6): each structurally distinct subtree becomes one entry of a
tape and is evaluated once, however many components and places within
them it appears in.  A node's key is its kind, its payload and the
numbers of its children, that is the identities of their jets, so
equal keys mean equal computations on equal inputs.  Constants and
exponents enter the key by their float64 bits, not by ==: 0.0 == -0.0,
yet their bits differ, and so can the bits of what is computed from
them (0.0 + -0.0 is 0.0, -0.0 + -0.0 is -0.0).  Keyed by bits, no two
computations whose results could differ merge.  Variables and
functions are keyed by name, and an External profile only by its own
identity, since two profiles with one name may wrap different
callables.  A merged subtree therefore has the bits a second walk of
it would give.  eval_jet2 is the walk of one field.

finite_diff_jet2 computes the same triple at one point from
central-difference stencils on plain evaluations and shares no
differentiation code with the jet walk; it exists as an independent
cross-check, not as a fallback.

The hessian produced by eval_jet2 is symmetric bit-for-bit: every rule
below fills H[i, j] and H[j, i] from the same commutative float sums.

Domain rules, shared with plain evaluation where a value exists:

    exp(x)    DomainError for x > log(DBL_MAX) (EXP_ARG_MAX) in both
    ln(x)     DomainError for x <= 0 in both
    sqrt(x)   plain evaluation accepts x >= 0 (sqrt(0) = 0); the jet
              needs x > 0, since the first derivative is infinite at 0
    x^c       c a constant.  Both refuse x = 0 for c < 0 and x < 0 for
              fractional c.  For fractional 0 < c < 2 plain evaluation
              accepts x = 0 (0^c = 0); the jet needs x > 0, since a
              derivative of x^c is infinite at 0.  For fractional
              c > 2 the jet at 0 is (0, 0, 0).

Over a stack, a DomainError names its first bad point in grid order,
as a loop over the points would meet it: "ln of a non-positive
argument at [0.0, 1.0]".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DomainError, in_grid_order
from .expressions import (
    Add,
    Call,
    Const,
    Div,
    EXP_ARG_MAX,
    External,
    Mul,
    Neg,
    Node,
    Pow,
    ScalarField,
    Sub,
    Var,
    _pow_value,
)

__all__ = ["Jet2", "eval_jet2", "finite_diff_jet2", "walk_jets"]


@dataclass(frozen=True, eq=False)
class Jet2:
    """Value, gradient and hessian of a scalar field at one point
    (float, (n,), (n, n)), or stacked along a leading point axis
    ((P,), (P, n), (P, n, n))."""

    value: float | np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray


def _fail_at(bad: np.ndarray, message: str, points: np.ndarray) -> None:
    """DomainError naming the first point where ``bad`` holds, if any."""
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"{message} at {points[i].tolist()}", index=i)


def _pointwise(terms: Callable[[float], Sequence[float]], values: np.ndarray,
               points: np.ndarray) -> np.ndarray:
    """``terms(x)`` for each value, called point by point; returns one
    column per term.  A DomainError names its point."""
    rows = []
    for i, x in enumerate(values.tolist()):
        try:
            rows.append(terms(x))
        except DomainError as exc:
            raise DomainError(f"{exc} at {points[i].tolist()}", index=i) from None
    return np.array(rows, dtype=float).T


def _chain(u: Jet2, f0: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> Jet2:
    """Jet of F(u) given F, F', F'' at u.value."""
    g = u.gradient
    outer = g[:, :, None] * g[:, None, :]
    return Jet2(f0, f1[:, None] * g,
                f1[:, None, None] * u.hessian + f2[:, None, None] * outer)


def _mul_jets(a: Jet2, b: Jet2) -> Jet2:
    ga, gb = a.gradient, b.gradient
    cross = ga[:, :, None] * gb[:, None, :] + gb[:, :, None] * ga[:, None, :]
    av, bv = a.value[:, None], b.value[:, None]
    return Jet2(
        a.value * b.value,
        av * gb + bv * ga,
        av[:, :, None] * b.hessian + bv[:, :, None] * a.hessian + cross,
    )


def _recip_jet(b: Jet2, points: np.ndarray) -> Jet2:
    _fail_at(b.value == 0.0, "division by zero", points)
    w = 1.0 / b.value
    return _chain(b, w, -w * w, 2.0 * w * w * w)


def _call_jet(func: str, u: Jet2, points: np.ndarray) -> Jet2:
    x = u.value
    if func == "exp":
        _fail_at(x > EXP_ARG_MAX, "overflow in exp", points)
        e = np.exp(x)
        return _chain(u, e, e, e)
    if func == "ln":
        _fail_at(x <= 0.0, "ln of a non-positive argument", points)
        return _chain(u, np.log(x), 1.0 / x, -1.0 / (x * x))
    if func == "sin":
        s, c = np.sin(x), np.cos(x)
        return _chain(u, s, c, -s)
    if func == "cos":
        s, c = np.sin(x), np.cos(x)
        return _chain(u, c, -s, -c)
    if func == "sqrt":
        _fail_at(x <= 0.0, "sqrt jet needs a positive argument", points)
        r = np.sqrt(x)
        return _chain(u, r, 0.5 / r, -0.25 / (x * r))
    raise ValueError(f"unsupported function '{func}'")


def _pow_jet(u: Jet2, c: float, points: np.ndarray) -> Jet2:
    blows_up_at_zero = c < 2.0 and not float(c).is_integer()

    def terms(x: float) -> tuple[float, float, float]:
        f0 = _pow_value(x, c)
        if x == 0.0 and blows_up_at_zero:
            raise DomainError("fractional power jet needs a positive base")
        return f0, _pow_value(x, c - 1.0), _pow_value(x, c - 2.0)

    f0, p1, p2 = _pointwise(terms, u.value, points)
    return _chain(u, f0, c * p1, c * (c - 1.0) * p2)


def _external_jet(node: External, u: Jet2, points: np.ndarray) -> Jet2:
    if len(node.funcs) < 3:
        raise DomainError(f"profile '{node.name}' supplies no second derivative")
    funcs = node.funcs[:3]
    return _chain(u, *_pointwise(lambda x: [f(x) for f in funcs], u.value, points))


_float_bits = struct.Struct("<d").pack


def _node_jet(node: Node, args: list[Jet2], index: Mapping[str, int],
              points: np.ndarray) -> Jet2:
    """Jet of ``node`` given the jets of its children."""
    p, n = points.shape
    if isinstance(node, Const):
        return Jet2(np.full(p, float(node.value)), np.zeros((p, n)),
                    np.zeros((p, n, n)))
    if isinstance(node, Var):
        k = index[node.name]
        grad = np.zeros((p, n))
        grad[:, k] = 1.0
        return Jet2(points[:, k].copy(), grad, np.zeros((p, n, n)))
    if isinstance(node, Neg):
        (u,) = args
        return Jet2(-u.value, -u.gradient, -u.hessian)
    if isinstance(node, Add):
        a, b = args
        return Jet2(a.value + b.value, a.gradient + b.gradient, a.hessian + b.hessian)
    if isinstance(node, Sub):
        a, b = args
        return Jet2(a.value - b.value, a.gradient - b.gradient, a.hessian - b.hessian)
    if isinstance(node, Mul):
        return _mul_jets(*args)
    if isinstance(node, Div):
        num, den = args
        return _mul_jets(num, _recip_jet(den, points))
    if isinstance(node, Pow):
        return _pow_jet(args[0], node.exponent, points)
    if isinstance(node, Call):
        return _call_jet(node.func, args[0], points)
    return _external_jet(node, args[0], points)


def _number(node: Node, tape: list, by_id: dict[int, int],
            by_key: dict[tuple, int]) -> int:
    """The tape number of ``node``, appending its entry (after those of
    its children) if no equal subtree is on the tape yet.

    The key of a node is its kind, what it holds besides its children
    (a constant or an exponent by its float64 bits, a variable or a
    function by its name, an External by its own identity) and the
    numbers of its children.
    """
    k = by_id.get(id(node))
    if k is not None:
        return k
    if isinstance(node, (Add, Sub, Mul)):
        args = (_number(node.left, tape, by_id, by_key),
                _number(node.right, tape, by_id, by_key))
        key = (type(node), *args)
    elif isinstance(node, Call):
        args = (_number(node.arg, tape, by_id, by_key),)
        key = (Call, node.func, *args)
    elif isinstance(node, Const):
        args = ()
        key = (Const, _float_bits(node.value))
    elif isinstance(node, Var):
        args = ()
        key = (Var, node.name)
    elif isinstance(node, Div):
        args = (_number(node.num, tape, by_id, by_key),
                _number(node.den, tape, by_id, by_key))
        key = (Div, *args)
    elif isinstance(node, Neg):
        args = (_number(node.arg, tape, by_id, by_key),)
        key = (Neg, *args)
    elif isinstance(node, Pow):
        args = (_number(node.base, tape, by_id, by_key),)
        key = (Pow, _float_bits(node.exponent), *args)
    elif isinstance(node, External):
        args = (_number(node.arg, tape, by_id, by_key),)
        key = (External, id(node), *args)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    k = by_key.setdefault(key, len(tape))
    if k == len(tape):
        tape.append((node, args))
    by_id[id(node)] = k
    return k


def walk_jets(fields: Sequence[ScalarField], points: np.ndarray) -> list[Jet2]:
    """Jets of ``fields``, which share one chart, over a (P, n) stack of
    points, each structurally distinct subtree evaluated once.

    The trees are first numbered into a tape: one entry per distinct
    subtree (see _number for its key), in the order a depth-first walk
    of the fields meets them.  The tape is then evaluated in that
    order, and a jet is dropped as soon as its last user is evaluated,
    so only jets still to be used are held.  Each field's jet is
    checked for finite entries where its walk ends.  Errors name the
    first bad point of the stack; in_grid_order turns that into the
    first bad point in grid order.
    """
    chart = fields[0].chart
    if any(field.chart != chart for field in fields):
        raise ValueError("fields of one walk must share a chart")
    tape: list[tuple[Node, tuple[int, ...]]] = []
    by_id: dict[int, int] = {}
    by_key: dict[tuple, int] = {}
    roots, ends = [], []
    for field in fields:
        roots.append(_number(field.root, tape, by_id, by_key))
        ends.append(len(tape))
    uses = [0] * len(tape)
    for k in [a for _, args in tape for a in args] + roots:
        uses[k] += 1
    index = {name: i for i, name in enumerate(chart)}
    jets: list[Jet2 | None] = [None] * len(tape)
    checked = 0
    for k, (node, args) in enumerate(tape):
        jets[k] = _node_jet(node, [jets[a] for a in args], index, points)
        for a in args:
            uses[a] -= 1
            if not uses[a]:
                jets[a] = None
        while checked < len(fields) and ends[checked] == k + 1:
            jet = jets[roots[checked]]
            finite = (np.isfinite(jet.value)
                      & np.isfinite(jet.gradient).all(axis=1)
                      & np.isfinite(jet.hessian).all(axis=(1, 2)))
            _fail_at(~finite, "jet evaluation produced a non-finite value", points)
            checked += 1
    return [jets[k] for k in roots]


def eval_jet2(field: ScalarField, point: Sequence[float]) -> Jet2:
    """Exact value, gradient and hessian of ``field`` at ``point`` (n,),
    or stacked over the rows of a (P, n) array of points."""
    p = np.asarray(point, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != len(field.chart) or p.size == 0:
        raise ValueError(
            f"point has shape {p.shape}, chart has {len(field.chart)} names"
        )
    jet = in_grid_order(lambda q: walk_jets([field], q)[0], np.atleast_2d(p))
    if p.ndim == 2:
        return jet
    return Jet2(float(jet.value[0]), jet.gradient[0], jet.hessian[0])


def finite_diff_jet2(field: ScalarField, point: Sequence[float],
                     h: float = 1e-5) -> Jet2:
    """Central-difference jet, independent of the forward-mode walk.

    Per-coordinate steps scale with the point, h_i = h * max(1, |p_i|),
    and each step is snapped to the nearest representable offset so the
    divisor matches the perturbation actually applied.
    """
    p = np.asarray(point, dtype=float)
    n = len(field.chart)
    if p.shape != (n,):
        raise ValueError(
            f"point has shape {p.shape}, chart has {n} names"
        )
    steps = np.empty(n)
    for i in range(n):
        raw = h * max(1.0, abs(p[i]))
        bumped = p[i] + raw
        steps[i] = bumped - p[i]
        if steps[i] == 0.0:
            raise DomainError("finite-difference step underflowed to zero")

    def at(offset: np.ndarray) -> float:
        return field(p + offset)

    f0 = at(np.zeros(n))
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        fp, fm = at(ei), at(-ei)
        grad[i] = (fp - fm) / (2.0 * steps[i])
        hess[i, i] = (fp - 2.0 * f0 + fm) / (steps[i] * steps[i])
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = steps[i]
            ej[j] = steps[j]
            fpp = at(ei + ej)
            fpm = at(ei - ej)
            fmp = at(-ei + ej)
            fmm = at(-ei - ej)
            hess[i, j] = (fpp - fpm - fmp + fmm) / (4.0 * steps[i] * steps[j])
            hess[j, i] = hess[i, j]
    return Jet2(f0, grad, hess)
