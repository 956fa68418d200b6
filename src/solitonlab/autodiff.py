"""Second-order forward-mode differentiation of scalar fields.

eval_jet2 walks an expression tree once and propagates (value,
gradient, hessian) triples, so every mixed partial up to order two
comes out in a single evaluation.  finite_diff_jet2 computes the same
triple from central-difference stencils on plain evaluations and
shares no differentiation code with the jet walk; it exists as an
independent cross-check, not as a fallback.

The hessian produced by eval_jet2 is symmetric bit-for-bit: every rule
below fills H[i, j] and H[j, i] from the same commutative float sums.

Domain rules, shared with plain evaluation where a value exists:

    exp(x)    DomainError for x > log(DBL_MAX) (EXP_ARG_MAX) in both
    ln(x)     DomainError for x <= 0 in both
    sqrt(x)   plain evaluation accepts x >= 0 (sqrt(0) = 0); the jet
              needs x > 0, since the first derivative is infinite at 0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError
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
    """Value, gradient and hessian of a scalar field at one point."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def _const_jet(value: float, n: int) -> Jet2:
    return Jet2(float(value), np.zeros(n), np.zeros((n, n)))


def _chain(u: Jet2, f0: float, f1: float, f2: float) -> Jet2:
    """Jet of F(u) given F, F', F'' at u.value."""
    outer = np.outer(u.gradient, u.gradient)
    return Jet2(f0, f1 * u.gradient, f1 * u.hessian + f2 * outer)


def _mul_jets(a: Jet2, b: Jet2) -> Jet2:
    cross = np.outer(a.gradient, b.gradient) + np.outer(b.gradient, a.gradient)
    return Jet2(
        a.value * b.value,
        a.value * b.gradient + b.value * a.gradient,
        a.value * b.hessian + b.value * a.hessian + cross,
    )


def _recip_jet(b: Jet2) -> Jet2:
    if b.value == 0.0:
        raise DomainError("division by zero")
    w = 1.0 / b.value
    return _chain(b, w, -w * w, 2.0 * w * w * w)


def _call_jet(func: str, u: Jet2) -> Jet2:
    x = u.value
    if func == "exp":
        if x > EXP_ARG_MAX:
            raise DomainError("overflow in exp")
        e = np.exp(x)
        return _chain(u, e, e, e)
    if func == "ln":
        if x <= 0.0:
            raise DomainError("ln of a non-positive argument")
        return _chain(u, np.log(x), 1.0 / x, -1.0 / (x * x))
    if func == "sin":
        s, c = np.sin(x), np.cos(x)
        return _chain(u, s, c, -s)
    if func == "cos":
        s, c = np.sin(x), np.cos(x)
        return _chain(u, c, -s, -c)
    if func == "sqrt":
        if x <= 0.0:
            raise DomainError("sqrt jet needs a positive argument")
        r = np.sqrt(x)
        return _chain(u, r, 0.5 / r, -0.25 / (x * r))
    raise ValueError(f"unsupported function '{func}'")


def _pow_jet(u: Jet2, c: float) -> Jet2:
    f0 = _pow_value(u.value, c)
    f1 = c * _pow_value(u.value, c - 1.0)
    f2 = c * (c - 1.0) * _pow_value(u.value, c - 2.0)
    return _chain(u, f0, f1, f2)


def _eval(node: Node, index: Mapping[str, int], point: np.ndarray,
          memo: dict[int, Jet2]) -> Jet2:
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit
    n = len(point)
    if isinstance(node, Const):
        out = _const_jet(node.value, n)
    elif isinstance(node, Var):
        grad = np.zeros(n)
        grad[index[node.name]] = 1.0
        out = Jet2(float(point[index[node.name]]), grad, np.zeros((n, n)))
    elif isinstance(node, Neg):
        u = _eval(node.arg, index, point, memo)
        out = Jet2(-u.value, -u.gradient, -u.hessian)
    elif isinstance(node, Add):
        a = _eval(node.left, index, point, memo)
        b = _eval(node.right, index, point, memo)
        out = Jet2(a.value + b.value, a.gradient + b.gradient, a.hessian + b.hessian)
    elif isinstance(node, Sub):
        a = _eval(node.left, index, point, memo)
        b = _eval(node.right, index, point, memo)
        out = Jet2(a.value - b.value, a.gradient - b.gradient, a.hessian - b.hessian)
    elif isinstance(node, Mul):
        out = _mul_jets(
            _eval(node.left, index, point, memo),
            _eval(node.right, index, point, memo),
        )
    elif isinstance(node, Div):
        out = _mul_jets(
            _eval(node.num, index, point, memo),
            _recip_jet(_eval(node.den, index, point, memo)),
        )
    elif isinstance(node, Pow):
        out = _pow_jet(_eval(node.base, index, point, memo), node.exponent)
    elif isinstance(node, Call):
        out = _call_jet(node.func, _eval(node.arg, index, point, memo))
    elif isinstance(node, External):
        if len(node.funcs) < 3:
            raise DomainError(
                f"profile '{node.name}' supplies no second derivative"
            )
        u = _eval(node.arg, index, point, memo)
        out = _chain(
            u,
            float(node.funcs[0](u.value)),
            float(node.funcs[1](u.value)),
            float(node.funcs[2](u.value)),
        )
    else:
        raise TypeError(f"not an expression node: {node!r}")
    memo[key] = out
    return out


def eval_jet2(field: ScalarField, point: Sequence[float]) -> Jet2:
    """Exact value, gradient and hessian of ``field`` at ``point``."""
    p = np.asarray(point, dtype=float)
    if p.shape != (len(field.chart),):
        raise ValueError(
            f"point has shape {p.shape}, chart has {len(field.chart)} names"
        )
    index = {name: i for i, name in enumerate(field.chart)}
    jet = _eval(field.root, index, p, {})
    if not (np.isfinite(jet.value)
            and np.isfinite(jet.gradient).all()
            and np.isfinite(jet.hessian).all()):
        raise DomainError("jet evaluation produced a non-finite value")
    return jet


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
