"""Rectangular sample grids over a chart, and the distinct points of a
stack of points."""

from __future__ import annotations

from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import SolitonLabError

__all__ = ["grid_axes", "grid_points", "mesh_points", "DistinctPoints",
           "distinct_points"]


def grid_axes(
    chart: Sequence[str],
    ranges: Mapping[str, tuple[float, float, int]],
) -> list[np.ndarray]:
    """The values each chart coordinate takes on its grid, in chart order.

    ``ranges`` maps every chart name to (minimum, maximum, count); count
    must be at least 1, and a count of 1 pins the coordinate at the
    minimum.
    """
    chart_t = tuple(chart)
    missing = [name for name in chart_t if name not in ranges]
    if missing:
        raise ValueError(f"grid ranges missing for {missing}")
    extra = [name for name in ranges if name not in chart_t]
    if extra:
        raise ValueError(f"grid ranges name unknown coordinates {extra}")
    axes = []
    for name in chart_t:
        lo, hi, count = ranges[name]
        count = int(count)
        if count < 1:
            raise ValueError(f"grid count for '{name}' must be positive")
        if count == 1:
            axes.append(np.array([float(lo)]))
        else:
            axes.append(np.linspace(float(lo), float(hi), count))
    return axes


def grid_points(
    chart: Sequence[str],
    ranges: Mapping[str, tuple[float, float, int]],
) -> np.ndarray:
    """Cartesian grid of grid_axes as an (N, dim) array, rows in
    lexicographic order: the first chart coordinate varies slowest."""
    return mesh_points(grid_axes(chart, ranges))


def mesh_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The cartesian product of ``axes`` as an (N, dim) array, rows in
    lexicographic order: the first axis varies slowest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


class DistinctPoints(NamedTuple):
    """A stack's groups: each group's first point (``points``) and its
    stack index (``first``), in stack order, and each point's group
    (``of``), None where every point is its own and ``points`` is the
    stack itself."""

    points: np.ndarray
    first: np.ndarray
    of: np.ndarray | None

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Per-group ``values`` (leading axis) handed to every point."""
        return values if self.of is None else values[self.of]

    def run(self, check: Callable[[np.ndarray], Any]) -> Any:
        """``check`` over the groups' points, an error's ``index`` mapped
        to the stack.  No earlier point fails first, since each earlier
        point's group has an earlier first point."""
        try:
            return check(self.points)
        except SolitonLabError as exc:
            if exc.index is not None:
                exc.index = int(self.first[exc.index])
            raise


def distinct_points(points: np.ndarray, axes: Sequence[int]) -> DistinctPoints:
    """Group a (P, n) float64 stack by the float64 bits of the
    coordinates at ``axes``: 0.0 and -0.0 stay apart, as do NaN bits."""
    read = np.ascontiguousarray(points[:, list(axes)]).view(np.uint64)
    # Stable: each run of equal keys starts at its group's first point.
    order = np.lexsort(read.T) if read.shape[1] else np.arange(len(read))
    keys = read[order]
    new = np.ones(len(keys), bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = order[new]
    if len(starts) == len(points):
        return DistinctPoints(points, np.arange(len(points)), None)
    # Number the groups in stack order of their first points.
    first = np.sort(starts)
    of = np.empty(len(points), np.intp)
    of[order] = np.searchsorted(first, starts)[np.cumsum(new) - 1]
    return DistinctPoints(points[first], first, of)
