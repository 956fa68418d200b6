"""Exception hierarchy for solitonlab.

Every error raised deliberately by this package derives from
SolitonLabError so callers can catch one type at a boundary (the CLI
does exactly that to map failures onto exit codes).
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

_T = TypeVar("_T")


class SolitonLabError(Exception):
    """Base class for all errors raised by solitonlab.

    ``index`` is set when a check over a stack of points fails: it is
    the position of the bad point in that stack (see in_grid_order).
    """

    def __init__(self, *args: object, index: int | None = None) -> None:
        super().__init__(*args)
        self.index = index


class ExpressionSyntaxError(SolitonLabError):
    """Malformed expression source.

    ``offset`` is the 0-based character position where scanning failed.
    """

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariableError(SolitonLabError):
    """An identifier in an expression is not a chart variable.

    Raised at parse time when a chart is supplied, or at evaluation time
    when a free variable has no bound value.
    """

    def __init__(self, name: str, offset: int = -1) -> None:
        if offset >= 0:
            super().__init__(f"unknown variable '{name}' (at offset {offset})")
        else:
            super().__init__(f"unknown variable '{name}'")
        self.name = name
        self.offset = offset


class DomainError(SolitonLabError):
    """Evaluation left the domain of a primitive (ln of a non-positive
    number, division by zero, fractional power of a negative base)."""


class SingularMetricError(SolitonLabError):
    """Metric is singular at a point: its smallest |eigenvalue| is
    below a fixed fraction of its largest."""


class SignatureMismatchError(SolitonLabError):
    """Eigenvalue signs of g at a point disagree with the declared
    signature."""


class NonPositiveWarpingError(SolitonLabError):
    """A warping or lapse function must stay positive on the region of
    interest and did not."""


class NonPositiveEtaPrimeError(SolitonLabError):
    """The strictly-increasing profile in the Ricci-flat Lorentzian
    construction has a non-positive derivative at a sample point."""


class QuadratureFailureError(SolitonLabError):
    """Adaptive quadrature hit its depth limit before reaching the
    requested tolerance, or its subdivision left the float range."""


class ConfigError(SolitonLabError):
    """A CLI job description is malformed: unknown family, missing or
    ill-typed keys, unusable grid."""


def in_grid_order(run: Callable[[Sequence], _T], points: Sequence) -> _T:
    """``run(points)`` on a stack of points, failing as a point-by-point
    loop would.

    A stacked check that fails reports its own first bad point, at
    stack index i.  A check run later may fail at an earlier point, so
    ``run`` is retried on the points before i; the error raised is the
    one a loop over the points, every check at each, meets first.
    """
    try:
        return run(points)
    except SolitonLabError as exc:
        if exc.index:
            in_grid_order(run, points[:exc.index])
        raise
