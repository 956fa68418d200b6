"""Adaptive Simpson quadrature.

Classic recursive bisection with the Richardson correction S2 +
(S2 - S1)/15.  The tolerance is absolute and is halved per split, which
keeps the summed error below the requested bound.  Written in-house so
integration failures surface as a package error with a controlled
depth limit rather than a library-specific warning.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import QuadratureFailureError

__all__ = ["adaptive_simpson"]


def _step(fn: Callable[[float], float], a: float, b: float,
          fa: float, fm: float, fb: float, whole: float,
          tol: float, depth: int) -> float:
    m = 0.5 * (a + b)
    flm = fn(0.5 * (a + m))
    frm = fn(0.5 * (m + b))
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureFailureError(
            f"adaptive quadrature stalled on [{a}, {b}] (residual {abs(delta):.3e})"
        )
    half = 0.5 * tol
    return (
        _step(fn, a, m, fa, flm, fm, left, half, depth - 1)
        + _step(fn, m, b, fm, frm, fb, right, half, depth - 1)
    )


def adaptive_simpson(fn: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-10, max_depth: int = 40) -> float:
    """Integrate ``fn`` over finite [a, b] to absolute tolerance ``tol`` > 0."""
    a = float(a)
    b = float(b)
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if a == b:
        return 0.0
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    return _step(fn, a, b, fa, fm, fb, whole, tol, max_depth)
