"""Pseudo-Riemannian metrics given componentwise on a chart.

A MetricField stores the matrix of component fields g_ij together with
the declared signature.  metric_at evaluates everything a curvature
computation needs at one point: g, its inverse, first and second
coordinate derivatives of g, and the determinant, with hard failures
on near-singular matrices and on signature disagreement.  Given a
(P, n) stack of points it fills the same data with a leading point
axis.  The n(n+1)/2 components are evaluated in one value-numbered
jet walk over the whole stack, so a subtree shared by several
components, such as the warping factor of a warped product, is
differentiated once per grid.  g, dg and d2g are gathered from the
walk's rows, which hold the point axis last, in three fancy indexes;
dg and d2g keep that layout, which curvature.curvature_from reads.  A
matrix counts as singular where its smallest |eigenvalue| is a tiny
fraction of its largest, a test that does not change when g is
scaled.  read_axes names the chart coordinates the components read;
the metric is a function of these alone, which lets a grid share one
evaluation among points that agree on them.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Sequence, Union

import numpy as np

from .autodiff import _walk_rows
from .errors import (
    SignatureMismatchError,
    SingularMetricError,
    _Record,
    _ValueRecord,
    in_grid_order,
)
from .expressions import ScalarField, constant_field, parse_expression

__all__ = [
    "MetricField",
    "MetricAtPoint",
    "metric_at",
    "parse_signature",
    "flat_metric",
    "sphere_metric",
]

# The chart is treated as degenerate at a point where the smallest
# |eigenvalue| of g is at most this fraction of the largest, that is
# where g's 2-norm condition number reaches 1e10.  A ratio, unlike a
# cutoff on |det g|, does not change when g is scaled.
RCOND_CUTOFF = 1e-10

ComponentLike = Union[ScalarField, float, int, str]


def parse_signature(text: str) -> tuple[int, ...]:
    """Read a signature such as '++', '-+++' or '(-, +, +)'."""
    signs: list[int] = []
    for ch in text:
        if ch == "+":
            signs.append(1)
        elif ch == "-":
            signs.append(-1)
        elif ch in " ,()":
            continue
        else:
            raise ValueError(f"unexpected character {ch!r} in signature {text!r}")
    if not signs:
        raise ValueError(f"empty signature {text!r}")
    return tuple(signs)


def _as_field(chart: tuple[str, ...], value: ComponentLike) -> ScalarField:
    if isinstance(value, ScalarField):
        if value.chart != chart:
            raise ValueError(f"chart mismatch: {chart} vs {value.chart}")
        return value
    if isinstance(value, (int, float)):
        return constant_field(chart, float(value))
    if isinstance(value, str):
        return parse_expression(value, chart)
    raise TypeError(f"cannot use {type(value).__name__} as a metric component")


class MetricField(_ValueRecord):
    """Symmetric matrix of scalar fields with a declared signature: a
    tuple of n names, n tuples of n ScalarFields and n signs (-1 or 1).
    Frozen, and equal to a metric of the same chart, components and
    signature."""

    _fields = ("chart", "components", "signature")

    @property
    def dimension(self) -> int:
        return len(self.chart)

    def component(self, i: int, j: int) -> ScalarField:
        return self.components[i][j]

    @cached_property
    def read_axes(self) -> tuple[int, ...]:
        """Chart positions of the coordinates some component reads, in
        chart order.  The metric, and all that is derived from it, is a
        function of these coordinates alone."""
        names = frozenset().union(*(f.root.reads for row in self.components
                                    for f in row))
        return tuple(k for k, name in enumerate(self.chart) if name in names)

    @staticmethod
    def from_rows(
        chart: Sequence[str],
        rows: Sequence[Sequence[ComponentLike]],
        signature: str | Sequence[int],
    ) -> "MetricField":
        """Metric from an n x n array of components: fields, numbers or
        expression texts.  Each distinct text is parsed once, so
        mirrored off-diagonal texts give one ScalarField.  The rows
        must be symmetric: g_ij and g_ji have one (interned) root, that
        is equal trees; one field is stored per unordered pair."""
        chart_t = tuple(chart)
        n = len(chart_t)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"metric needs {n}x{n} rows for chart {chart_t}")
        sig = parse_signature(signature) if isinstance(signature, str) else tuple(
            int(s) for s in signature
        )
        if len(sig) != n or any(s not in (-1, 1) for s in sig):
            raise ValueError(f"signature {sig} does not fit dimension {n}")
        parsed: dict[str, ScalarField] = {}

        def field(value: ComponentLike) -> ScalarField:
            if not isinstance(value, str):
                return _as_field(chart_t, value)
            if value not in parsed:
                parsed[value] = _as_field(chart_t, value)
            return parsed[value]

        fields = [[field(rows[i][j]) for j in range(n)] for i in range(n)]
        # Store one object per unordered pair so g_ij and g_ji cannot drift.
        for i in range(n):
            for j in range(i + 1, n):
                if fields[i][j].root is not fields[j][i].root:
                    raise ValueError(
                        f"metric rows are not symmetric at ({i}, {j})"
                    )
                fields[j][i] = fields[i][j]
        return MetricField(chart_t, tuple(tuple(r) for r in fields), sig)


class MetricAtPoint(_Record):
    """Pointwise data of a metric: value, inverse, derivatives.

    Index layout: ``dg[k, i, j]`` is the k-th coordinate derivative of
    g_ij and ``d2g[k, l, i, j]`` the (k, l) second derivative.  Data
    for a stack of P points carries a leading point axis on every
    field: ``point`` (P, n), ``g`` (P, n, n), ..., ``det`` (P,).  From
    metric_at, g and g_inv are C-contiguous, while dg and d2g are
    point-first views of C-contiguous point-last arrays (k, i, j, P) and
    (k, l, i, j, P): a sum whose order follows the strides of its
    operands reads np.ascontiguousarray copies of them.
    Frozen; equal only to itself.
    """

    __slots__ = ("point", "g", "g_inv", "dg", "d2g", "det")


@cache
def _gather_maps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index maps from the rows of a metric's walk, one per component
    g_ij with i <= j in row-major order, to g_ij, to d_k g_ij at
    [k, i, j] and to d_k d_l g_ij at [k, l, i, j]: the row of g_ij, and
    the slot entry of its first and second derivatives."""
    i, j = np.triu_indices(n)
    pair = np.empty((n, n), dtype=np.intp)
    pair[i, j] = pair[j, i] = np.arange(len(i))
    k = np.arange(n)
    maps = pair, 1 + k[:, None, None], (1 + n + n * k[:, None] + k)[..., None, None]
    for a in maps:
        a.flags.writeable = False
    return maps


def _metric_stack(metric: MetricField, points: np.ndarray) -> MetricAtPoint:
    n = points.shape[1]
    rows = _walk_rows([metric.components[i][j]
                       for i in range(n) for j in range(i, n)], points)
    pair, first, second = _gather_maps(n)
    g = rows[pair, 0].transpose(2, 0, 1).copy()
    dg = rows[pair, first]
    d2g = rows[pair, second]
    with np.errstate(all="ignore"):  # a det past DBL_MAX is inf, not a warning
        det = np.linalg.det(g)
    eigs = np.linalg.eigvalsh(g)
    size = np.abs(eigs)
    singular = size.min(axis=1) <= RCOND_CUTOFF * size.max(axis=1)
    negatives = np.sum(eigs < 0.0, axis=1)
    positives = np.sum(eigs > 0.0, axis=1)
    want_neg = sum(1 for s in metric.signature if s < 0)
    want_pos = len(metric.signature) - want_neg
    mismatched = (negatives != want_neg) | (positives != want_pos)
    bad = singular | mismatched
    if bad.any():
        k = int(np.argmax(bad))
        at = points[k].tolist()
        if singular[k]:
            raise SingularMetricError(
                f"metric is singular at {at} (det = {det[k]:.3e})", index=k
            )
        raise SignatureMismatchError(
            f"metric at {at} has {negatives[k]} negative and {positives[k]} "
            f"positive directions, declared signature {metric.signature}",
            index=k,
        )
    return MetricAtPoint(points, g, np.linalg.inv(g), dg.transpose(3, 0, 1, 2),
                         d2g.transpose(4, 0, 1, 2, 3), det)


def metric_at(metric: MetricField, point: Sequence[float]) -> MetricAtPoint:
    """Metric data at ``point`` (n,), or stacked over the rows of a
    (P, n) array of points: one value-numbered jet walk over all
    components for the whole stack, g, dg and d2g gathered from its
    rows (see MetricAtPoint for their layouts), then det, eigvalsh and
    inv on the stacked matrices.  A singular or wrongly signed matrix
    names its first point in grid order.  Every point of the stack is
    evaluated; curvature.curvature_over passes only one point per
    distinct value of the coordinates the metric reads
    (MetricField.read_axes)."""
    n = metric.dimension
    p = np.asarray(point, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != n or p.size == 0:
        raise ValueError(f"point has shape {p.shape}, chart has {n} names")
    data = in_grid_order(lambda q: _metric_stack(metric, q), np.atleast_2d(p))
    if p.ndim == 2:
        return data
    return MetricAtPoint(p, data.g[0], data.g_inv[0], data.dg[0], data.d2g[0],
                         float(data.det[0]))


def flat_metric(chart: Sequence[str], signature: str | None = None) -> MetricField:
    """Constant diagonal metric with entries from ``signature`` (all +1
    when omitted)."""
    chart_t = tuple(chart)
    n = len(chart_t)
    sig = (1,) * n if signature is None else parse_signature(signature)
    if len(sig) != n:
        raise ValueError(f"signature {sig} does not fit dimension {n}")
    rows = [[float(sig[i]) if i == j else 0.0 for j in range(n)] for i in range(n)]
    return MetricField.from_rows(chart_t, rows, sig)


def sphere_metric(radius: float = 1.0, chart: Sequence[str] = ("u", "v")) -> MetricField:
    """Round 2-sphere of the given radius; u is the polar angle."""
    chart_t = tuple(chart)
    if len(chart_t) != 2:
        raise ValueError("sphere chart needs exactly two names")
    u = chart_t[0]
    r2 = float(radius) ** 2
    return MetricField.from_rows(
        chart_t,
        [
            [str(r2), "0"],
            ["0", f"{r2}*sin({u})^2"],
        ],
        "++",
    )
