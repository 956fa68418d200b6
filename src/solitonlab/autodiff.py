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

__all__ = ["Jet2", "eval_jet2", "finite_diff_jet2"]


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


def _eval(node: Node, index: Mapping[str, int], points: np.ndarray,
          memo: dict[int, Jet2]) -> Jet2:
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit
    p, n = points.shape
    if isinstance(node, Const):
        out = Jet2(np.full(p, float(node.value)), np.zeros((p, n)),
                   np.zeros((p, n, n)))
    elif isinstance(node, Var):
        k = index[node.name]
        grad = np.zeros((p, n))
        grad[:, k] = 1.0
        out = Jet2(points[:, k].copy(), grad, np.zeros((p, n, n)))
    elif isinstance(node, Neg):
        u = _eval(node.arg, index, points, memo)
        out = Jet2(-u.value, -u.gradient, -u.hessian)
    elif isinstance(node, Add):
        a = _eval(node.left, index, points, memo)
        b = _eval(node.right, index, points, memo)
        out = Jet2(a.value + b.value, a.gradient + b.gradient, a.hessian + b.hessian)
    elif isinstance(node, Sub):
        a = _eval(node.left, index, points, memo)
        b = _eval(node.right, index, points, memo)
        out = Jet2(a.value - b.value, a.gradient - b.gradient, a.hessian - b.hessian)
    elif isinstance(node, Mul):
        out = _mul_jets(
            _eval(node.left, index, points, memo),
            _eval(node.right, index, points, memo),
        )
    elif isinstance(node, Div):
        out = _mul_jets(
            _eval(node.num, index, points, memo),
            _recip_jet(_eval(node.den, index, points, memo), points),
        )
    elif isinstance(node, Pow):
        out = _pow_jet(_eval(node.base, index, points, memo), node.exponent,
                       points)
    elif isinstance(node, Call):
        out = _call_jet(node.func, _eval(node.arg, index, points, memo), points)
    elif isinstance(node, External):
        out = _external_jet(node, _eval(node.arg, index, points, memo), points)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    memo[key] = out
    return out


def _walk(field: ScalarField, points: np.ndarray) -> Jet2:
    index = {name: i for i, name in enumerate(field.chart)}
    jet = _eval(field.root, index, points, {})
    finite = (np.isfinite(jet.value)
              & np.isfinite(jet.gradient).all(axis=1)
              & np.isfinite(jet.hessian).all(axis=(1, 2)))
    _fail_at(~finite, "jet evaluation produced a non-finite value", points)
    return jet


def eval_jet2(field: ScalarField, point: Sequence[float]) -> Jet2:
    """Exact value, gradient and hessian of ``field`` at ``point`` (n,),
    or stacked over the rows of a (P, n) array of points."""
    p = np.asarray(point, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != len(field.chart) or p.size == 0:
        raise ValueError(
            f"point has shape {p.shape}, chart has {len(field.chart)} names"
        )
    jet = in_grid_order(lambda q: _walk(field, q), np.atleast_2d(p))
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
