"""Oracles that share no code with the geometry pass they check.

finite_diff_jet2 takes a field's value, gradient and hessian at one
point from central differences of plain evaluations, never the jet
walk.  The closed forms give the covariant hessian and laplacian of a
potential on the 3d and 4d null-parallel families by hand-derived
formulas over the jets of the potential and the metric function, never
metric_at, curvature_from or the geometry pass; each family's reduced
equations are combinations of its table's entries.  simpson_recursion
is adaptive Simpson quadrature as the depth-first recursion over one
interval, a point at a time, the reference of the batched engine
quadrature.adaptive_simpson runs on.  tests/test_layering.py holds this
module to that.
"""

import math
from typing import NamedTuple

import numpy as np

from solitonlab import DomainError, QuadratureFailureError, eval_jet2


class FiniteDiffJet(NamedTuple):
    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def finite_diff_jet2(field, point, h=1e-5):
    """Central-difference jet.  Per-coordinate steps scale with the
    point, h_i = h * max(1, |p_i|), each snapped to the representable
    offset so the divisor matches the perturbation actually applied."""
    p = np.asarray(point, dtype=float)
    n = len(field.chart)
    if p.shape != (n,):
        raise ValueError(f"point has shape {p.shape}, chart has {n} names")
    steps = (p + h * np.maximum(1.0, np.abs(p))) - p
    if not steps.all():
        raise DomainError("finite-difference step underflowed to zero")
    e = np.diag(steps)
    f0 = field(p)
    fp = np.array([field(p + e[i]) for i in range(n)])
    fm = np.array([field(p - e[i]) for i in range(n)])
    hess = np.diag((fp - 2.0 * f0 + fm) / (steps * steps))
    for i in range(n):
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = (
                field(p + e[i] + e[j]) - field(p + e[i] - e[j])
                - field(p - e[i] + e[j]) + field(p - e[i] - e[j])
            ) / (4.0 * steps[i] * steps[j])
    return FiniteDiffJet(f0, (fp - fm) / (2.0 * steps), hess)


def walker3_closed_forms(spec, f, point, paper_literal=False):
    """Covariant hessian and laplacian of f on 2 dt dy + dx^2 + q dy^2,
    index order (t, x, y).  ``paper_literal=True`` drops -1/2 q_y f_t
    and +1/2 q_x f_x from the yy entry."""
    jf = eval_jet2(f, point)
    jq = eval_jet2(spec.phi_metric, point)
    q = jq.value
    q_t, q_x, q_y = jq.gradient
    f_t, f_x, f_y = jf.gradient
    H = jf.hessian
    hess = H.copy()
    hess[0, 2] = hess[2, 0] = H[0, 2] - 0.5 * q_t * f_t
    hess[1, 2] = hess[2, 1] = H[1, 2] - 0.5 * q_x * f_t
    if paper_literal:
        hess[2, 2] = H[2, 2] - 0.5 * q * q_t * f_t + 0.5 * q_t * f_y
    else:
        hess[2, 2] = (H[2, 2] - 0.5 * (q * q_t + q_y) * f_t
                      + 0.5 * q_x * f_x + 0.5 * q_t * f_y)
    lap = -q * H[0, 0] + 2.0 * H[0, 2] - q_t * f_t + H[1, 1]
    return hess, lap


def walker3_pde_residual(spec, f, point):
    """The five parts of Hess(f) = (scal - lam) g free of lam: Hess_tt,
    Hess_tx, Hess_xy, Hess_xx - Hess_ty and Hess_yy - q Hess_xx."""
    hess, _ = walker3_closed_forms(spec, f, point)
    q = eval_jet2(spec.phi_metric, point).value
    return np.array([hess[0, 0], hess[0, 1], hess[1, 2],
                     hess[1, 1] - hess[0, 2], hess[2, 2] - q * hess[1, 1]])


def walker4_closed_forms(spec, f, point):
    """Covariant hessian and laplacian of f on 2 dx dz + 2 dy dt
    + w(t) dt^2, index order (x, y, z, t); the only connection
    correction sits in the tt entry."""
    jf = eval_jet2(f, point)
    jw = eval_jet2(spec.warping, (point[3],))
    w = jw.value
    w_t = float(jw.gradient[0])
    hess = jf.hessian.copy()
    hess[3, 3] = hess[3, 3] - 0.5 * w_t * jf.gradient[1]
    lap = 2.0 * jf.hessian[0, 2] - w * jf.hessian[1, 1] + 2.0 * jf.hessian[1, 3]
    return hess, lap


def walker4_pde_residual(spec, f, point):
    """The ten entries of the traceless part Hess(f) - (lap / 4) g:
    seven vanishing second partials, the xz and yt couplings and the tt
    balance with its warping term."""
    hess, lap = walker4_closed_forms(spec, f, point)
    w = eval_jet2(spec.warping, (point[3],)).value
    quarter = 0.25 * lap
    return np.array([hess[0, 0], hess[0, 1], hess[1, 1], hess[1, 2],
                     hess[2, 2], hess[0, 3], hess[2, 3], hess[0, 2] - quarter,
                     hess[1, 3] - quarter, hess[3, 3] - w * quarter])


def _step(fn, a, b, fa, fm, fb, whole, tol, depth):
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


def simpson_recursion(fn, a, b, tol=1e-10, max_depth=40):
    """Integrate ``fn`` over finite [a, b] to absolute tolerance ``tol``
    > 0 by recursive bisection, calling ``fn`` at one float at a time,
    depth first, left half first."""
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
