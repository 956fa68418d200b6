"""Exception hierarchy for solitonlab, and the base of its records.

Every error raised deliberately by this package derives from
SolitonLabError so callers can catch one type at a boundary (the CLI
does exactly that to map failures onto exit codes).

The frozen records of the other modules (specs, fields, per-point
data, reports) derive from _Record, or from _ValueRecord when they are
compared by value.  Both live here, in the bottom module, which every
record module already imports.  The base also owns construction: a
record names its fields once, and only _Record.__init__ writes them,
so this is the one module that reaches past the frozen __setattr__.
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


def _bind(name: str, fields: tuple, args: tuple, kwargs: dict) -> tuple:
    """The values of ``fields``, in order, from a call of record class
    ``name`` with ``args`` and ``kwargs``."""
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} fields, not {len(args)}")
    rest = fields[len(args):]
    for key in kwargs:
        if key not in rest:
            how = "a repeated" if key in fields else "an unknown"
            raise TypeError(f"{name}() got {how} field {key!r}")
    try:
        return args + tuple([kwargs[key] for key in rest])
    except KeyError as missing:
        raise TypeError(f"{name}() is missing field {missing}") from None


class _Record:
    """A frozen record, equal only to itself.

    A record's fields, in order, are its ``__slots__``; a record that
    keeps a ``__dict__`` for a cached_property names them in
    ``_fields`` instead.  Construction belongs to the base: ``__init__``
    binds its positional and keyword arguments to the fields, raising
    TypeError on a missing, unknown, repeated or extra one, and sets
    each field once with ``object.__setattr__``.  A record whose
    construction checks or defaults its fields writes its own
    ``__init__`` and passes the fields on to this one.  After that,
    assigning or deleting any attribute raises AttributeError.  The
    repr is ``Name(field=value!r, ...)`` over the fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if "__slots__" in cls.__dict__:
            cls._fields = cls.__slots__

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _bind(type(self).__qualname__, fields, args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])


class _ValueRecord(_Record):
    """A frozen record equal to a record of the same class whose fields
    are equal, in order, and hashed as the tuple of its fields."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
