"""Symbolic scalar expressions on a coordinate chart.

This module is the foundation of the package.  It provides:

  1. a small immutable expression tree (constants, variables, the four
     arithmetic operations, negation, constant powers, the primitives
     exp / ln / sin / cos / sqrt, and opaque univariate profiles backed
     by numeric callables) whose nodes are interned (below);
  2. smart constructors that fold the obvious algebraic identities so
     that derivatives stay readable;
  3. exact symbolic differentiation;
  4. plain evaluation with explicit domain checking: a field is
     compiled, on its first evaluation, into a list of steps over
     arrays of points, one per distinct node, with the bits and errors
     at every element of a node-by-node walk of the tree at that point.
     One point is a one-element array through the same steps.  An
     opaque profile maps an array of points to an array (external);
  5. a parser for the grammar below: one findall pass of a compiled
     regular expression gives each token as a plain string, the end
     of the input as '', and precedence climbing reads them by index,
     classing each token by its first character, the binary operators
     by a table of bindings and unary, power and atom in one rule.  Any
     failure reports its character offset, which a walk over the same
     pattern's matches finds only once the parse has failed;
  6. a precedence-aware pretty printer whose output re-parses to an
     equivalent tree;
  7. ScalarField, the chart-aware wrapper the rest of the package
     consumes.

Grammar accepted by parse_expression (whitespace insignificant):

    expr   :=  term (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' unary)?
    atom   :=  number | ident | ident '(' expr ')' | '(' expr ')'

Exponents must fold to a constant at parse time.  The recognised
function names are exp, ln, sin, cos, sqrt; any other identifier
followed by '(' is a syntax error, and any identifier outside the
supplied chart is an UnknownVariableError.

Node identity.  Nodes are interned, or hash-consed (Filliatre and
Conchon, "Type-Safe Modular Hash-Consing", 2006): a constructor returns
the live node of its kind with the same fields, if there is one.  Child
nodes count by identity, names by value, and a constant or an exponent
by its float64 bits, not by ==, so 0.0 and -0.0 are two nodes (0.0 +
-0.0 is 0.0, -0.0 + -0.0 is -0.0) and a NaN is one node per bit
pattern: a node never stands for computations whose bits could differ.
An External is never interned, since two profiles with one name may
wrap different callables.  So equal trees are one object, and node
equality and hashing are identity, O(1).  The intern table is weak: a
node lives as long as something else holds it.  A node never changes
after construction; it carries its child nodes (``kids``) and the
names of the variables its tree reads (``reads``).
"""

from __future__ import annotations

import math
import operator
import re
import struct
import sys
import weakref
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    DomainError,
    ExpressionSyntaxError,
    SolitonLabError,
    UnknownVariableError,
    _ValueRecord,
)

__all__ = [
    "Node",
    "Const",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "External",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow_",
    "call",
    "external",
    "differentiate",
    "evaluate",
    "format_expression",
    "parse_expression",
    "ScalarField",
    "constant_field",
    "coordinate_field",
    "exp",
    "ln",
    "sin",
    "cos",
    "sqrt",
    "FUNCTION_NAMES",
]


# =====================================================================
# Node types
# =====================================================================

_bits = struct.Struct("<d").pack


class _Entry(weakref.ref):
    """The table's reference to a live node, with the node's key."""

    __slots__ = ("key",)


# The live interned nodes by key (see Node identity above).
_NODES: dict[tuple, _Entry] = {}


def _forget(ref: _Entry, nodes: dict = _NODES) -> None:
    # A dead node's entry goes, unless a newer node has taken its key.
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def _keep(node: Node, key: tuple, kids: tuple) -> None:
    """Intern the new ``node``, with child nodes ``kids``, under ``key``.
    A variable reads its name, another node what its one or two kids
    read (one kid's set where it holds the other's)."""
    node.kids = kids
    if kids:
        first, last = kids[0].reads, kids[-1].reads
        node.reads = (first if last <= first else last if first <= last
                      else first | last)
    else:
        node.reads = frozenset((node.name,) if type(node) is Var else ())
    ref = _NODES[key] = _Entry(node, _forget)
    ref.key = key


class Node:
    """An expression node (see Node identity above)."""

    __slots__ = ("kids", "reads", "__weakref__")


def _kind(cls: type) -> type:
    """A kind of interned node.  It stays a dataclass, not for equality
    but for its field list, which tree walkers read through
    dataclasses.fields, and its repr; it declares its ``__slots__``, so
    that dataclass need not rebuild it, and a docstring, so that
    dataclass need not build one from inspect.signature.  Its
    constructor is generated from its fields, as dataclass generates
    __init__, so that it sets each field directly (a loop over the
    fields costs about 1 us more per new node).  A float field is
    stored as a float and keyed by its bits; the Node fields are the
    kids."""
    cls = dataclass(init=False, eq=False)(cls)
    names, types = cls.__match_args__, cls.__annotations__
    floats = [n for n in names if types[n] == "float"]
    key = ", ".join(f"_bits({n})" if n in floats else n for n in names)
    kids = "".join(f"{n}, " for n in names if types[n] == "Node")
    exec("\n".join([
        f"def __new__(cls, {', '.join(names)}):",
        *[f"    {n} = float({n})" for n in floats],
        f"    key = (cls, {key})",
        "    ref = _NODES.get(key)",
        "    node = None if ref is None else ref()",
        "    if node is None:",
        "        node = object.__new__(cls)",
        *[f"        node.{n} = {n}" for n in names],
        f"        _keep(node, key, ({kids}))",
        "    return node"]), globals(), scope := {})
    cls.__new__ = staticmethod(scope["__new__"])
    return cls


@_kind
class Const(Node):
    """A constant, keyed by its float64 bits."""

    __slots__ = ("value",)
    value: float


@_kind
class Var(Node):
    """A chart coordinate, by name."""

    __slots__ = ("name",)
    name: str


@_kind
class Neg(Node):
    """-arg."""

    __slots__ = ("arg",)
    arg: Node


@_kind
class Add(Node):
    """left + right."""

    __slots__ = ("left", "right")
    left: Node
    right: Node


@_kind
class Sub(Node):
    """left - right."""

    __slots__ = ("left", "right")
    left: Node
    right: Node


@_kind
class Mul(Node):
    """left * right."""

    __slots__ = ("left", "right")
    left: Node
    right: Node


@_kind
class Div(Node):
    """num / den."""

    __slots__ = ("num", "den")
    num: Node
    den: Node


@_kind
class Pow(Node):
    """base ^ exponent, a constant exponent keyed by its float64 bits."""

    __slots__ = ("base", "exponent")
    base: Node
    exponent: float


@_kind
class Call(Node):
    """func(arg), func one of FUNCTION_NAMES."""

    __slots__ = ("func", "arg")
    func: str
    arg: Node


@dataclass(init=False, eq=False)
class External(Node):
    """Opaque univariate profile known only through callables.

    ``funcs`` holds the profile and its derivatives in order: value,
    first derivative, second derivative, ...  Each maps a 1-d float64
    array to an array of the same shape (see external).  Differentiating
    shifts that tuple left; once it is exhausted no further derivative
    exists.
    """

    __slots__ = ("name", "funcs", "arg")
    name: str
    funcs: tuple[Callable[[np.ndarray], np.ndarray], ...]
    arg: Node

    def __new__(cls, name: str, funcs: tuple, arg: Node) -> Node:
        node = object.__new__(cls)
        node.name, node.funcs, node.arg = name, funcs, arg
        node.kids, node.reads = (arg,), arg.reads
        return node


# exp(x) is finite exactly when x <= log(DBL_MAX); both evaluators cut here.
EXP_ARG_MAX = math.log(sys.float_info.max)

ZERO = Const(0.0)
ONE = Const(1.0)


# =====================================================================
# Smart constructors
# =====================================================================

# Each folds a constant operand by its value, read with ==, so -0.0
# folds as 0.0 does and a NaN never folds as 0, 1 or -1.

def add(left: Node, right: Node) -> Node:
    if type(left) is Const:
        if type(right) is Const:
            return Const(left.value + right.value)
        if left.value == 0.0:
            return right
    elif type(right) is Const and right.value == 0.0:
        return left
    return Add(left, right)


def sub(left: Node, right: Node) -> Node:
    if type(right) is Const:
        if type(left) is Const:
            return Const(left.value - right.value)
        if right.value == 0.0:
            return left
    elif type(left) is Const and left.value == 0.0:
        return neg(right)
    if left is right:
        return ZERO
    return Sub(left, right)


def mul(left: Node, right: Node) -> Node:
    if type(left) is Const:
        if type(right) is Const:
            return Const(left.value * right.value)
        value, other = left.value, right
    elif type(right) is Const:
        value, other = right.value, left
    else:
        return Mul(left, right)
    if value == 0.0:
        return ZERO
    if value == 1.0:
        return other
    if value == -1.0:
        return neg(other)
    return Mul(left, right)


def div(num: Node, den: Node) -> Node:
    if type(den) is Const:
        if den.value == 0.0:
            raise DomainError("division by the constant zero")
        if type(num) is Const:
            return Const(num.value / den.value)
        if den.value == 1.0:
            return num
    elif type(num) is Const and num.value == 0.0:
        return ZERO
    if num is den:
        return ONE
    return Div(num, den)


def neg(arg: Node) -> Node:
    if type(arg) is Const:
        return Const(-arg.value)
    if type(arg) is Neg:
        return arg.arg
    return Neg(arg)


def _pow_value(base: float, exponent: float) -> float:
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


def pow_(base: Node, exponent: float) -> Node:
    exponent = float(exponent)
    if exponent == 0.0:
        return Const(1.0)
    if exponent == 1.0:
        return base
    if isinstance(base, Const):
        return Const(_pow_value(base.value, exponent))
    return Pow(base, exponent)


def _map(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``fn`` of each element of the float64 array ``x``, called once per
    element, as an array of the shape of ``x``."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


_Array = Callable[[np.ndarray], np.ndarray]

# Each primitive over arrays, with its domain guard: (function, refuses,
# message), where refuses(x) marks the arguments the primitive refuses
# with DomainError(message) before it is called.  _call_step turns an
# entry into the step of a compiled field (see _compile), and constant
# folding runs that step on the constant, so both raise the same
# DomainError at the same node; the jet walk reads the same guards
# (autodiff._call_rule).  sin, cos and sqrt are numpy's ufuncs, one call
# an array: they give math.sin, math.cos and math.sqrt's bits on every
# argument the guards let through (tests/test_ufunc_bits.py).  exp and
# ln map math.exp and math.log element by element: numpy's exp and log
# may dispatch to SIMD kernels that differ from libm in the last bit.
_CALLS: dict[str, tuple[_Array, _Array, str]] = {
    "exp": (partial(_map, math.exp), lambda x: x > EXP_ARG_MAX,
            "overflow in exp"),
    "ln": (partial(_map, math.log), lambda x: x <= 0.0,
           "ln of a non-positive argument"),
    "sin": (np.sin, np.isinf, "sin of an infinite argument"),
    "cos": (np.cos, np.isinf, "cos of an infinite argument"),
    "sqrt": (np.sqrt, lambda x: x < 0.0, "sqrt of a negative argument"),
}
FUNCTION_NAMES = tuple(_CALLS)


def _call_step(fn: _Array, refuses: _Array, message: str) -> _Array:
    """The step of one _CALLS primitive: its guard over the whole array,
    then the primitive.  A guard counts the arguments it refuses
    (np.count_nonzero costs a third of ndarray.any on small arrays)."""
    def step(x: np.ndarray) -> np.ndarray:
        if np.count_nonzero(refuses(x)):
            raise DomainError(message)
        return fn(x)

    return step


_CALL_STEPS = {func: _call_step(*entry) for func, entry in _CALLS.items()}


def call(func: str, arg: Node) -> Node:
    if func not in _CALLS:
        raise ValueError(f"unsupported function '{func}'")
    if isinstance(arg, Const):
        return Const(_CALL_STEPS[func](np.float64(arg.value)))
    return Call(func, arg)


def external(
    name: str,
    funcs: Sequence[Callable[[np.ndarray], np.ndarray]],
    arg: Node,
) -> Node:
    """An opaque profile of ``arg``: ``funcs`` are its value and its
    derivatives, in order.  Each maps a 1-d float64 array of points to
    the array of its values there, of the same shape, with the bits it
    gives each point alone, and does not write to its argument.  A
    compiled field calls it once over all the points it is given, and
    on a one-element array for one point; so does the jet walk."""
    if len(funcs) == 0:
        raise ValueError("external profile needs at least a value callable")
    return External(name, tuple(funcs), arg)


# =====================================================================
# Differentiation
# =====================================================================

def differentiate(node: Node, var: str) -> Node:
    if isinstance(node, Const):
        return ZERO
    if isinstance(node, Var):
        return ONE if node.name == var else ZERO
    if isinstance(node, Neg):
        return neg(differentiate(node.arg, var))
    if isinstance(node, Add):
        return add(differentiate(node.left, var), differentiate(node.right, var))
    if isinstance(node, Sub):
        return sub(differentiate(node.left, var), differentiate(node.right, var))
    if isinstance(node, Mul):
        return add(
            mul(differentiate(node.left, var), node.right),
            mul(node.left, differentiate(node.right, var)),
        )
    if isinstance(node, Div):
        # (u/v)' = u'/v - u v'/v^2, assembled over the common denominator.
        u, v = node.num, node.den
        return div(
            sub(mul(differentiate(u, var), v), mul(u, differentiate(v, var))),
            mul(v, v),
        )
    if isinstance(node, Pow):
        inner = differentiate(node.base, var)
        return mul(mul(Const(node.exponent), pow_(node.base, node.exponent - 1.0)), inner)
    if isinstance(node, Call):
        inner = differentiate(node.arg, var)
        u = node.arg
        if node.func == "exp":
            outer: Node = call("exp", u)
        elif node.func == "ln":
            return div(inner, u)
        elif node.func == "sin":
            outer = call("cos", u)
        elif node.func == "cos":
            outer = neg(call("sin", u))
        elif node.func == "sqrt":
            return div(inner, mul(Const(2.0), call("sqrt", u)))
        else:  # pragma: no cover - constructor rejects other names
            raise ValueError(f"unsupported function '{node.func}'")
        return mul(outer, inner)
    if isinstance(node, External):
        if len(node.funcs) < 2:
            raise DomainError(
                f"profile '{node.name}' supplies no further derivatives"
            )
        inner = differentiate(node.arg, var)
        return mul(External(node.name + "'", node.funcs[1:], node.arg), inner)
    raise TypeError(f"not an expression node: {node!r}")


# =====================================================================
# Evaluation
# =====================================================================

def evaluate(node: Node, env: Mapping[str, float]) -> float:
    chart = tuple(env)
    return _at_point(_compile(node, chart), [env[name] for name in chart])


def _at_point(fn: Callable[..., np.ndarray], coordinates: Sequence[float]) -> float:
    """The compiled field ``fn`` at one point, each coordinate a
    one-element array, as a float."""
    with np.errstate(all="ignore"):
        return fn(*([c] for c in coordinates)).item()


def _nonzero_all(x: np.ndarray) -> np.ndarray:
    """A quotient's guard: its denominator, refused where it is zero."""
    if np.count_nonzero(x == 0.0):
        raise DomainError("division by zero")
    return x


def _profile_over(name: str, fn: Callable[[np.ndarray], np.ndarray],
                  x: np.ndarray) -> np.ndarray:
    """The profile ``fn`` over the elements of the array ``x``, in the
    shape of ``x``, called once on them as a 1-d array (see external)."""
    flat = np.ravel(x)
    out = np.asarray(fn(flat), dtype=float)
    if out.shape != flat.shape:
        raise ValueError(f"profile '{name}' maps an array of shape "
                         f"{flat.shape} to one of shape {out.shape}")
    return out.reshape(np.shape(x))


def _profile_value(name: str, fn: Callable[[np.ndarray], np.ndarray],
                   x: float) -> float:
    """The profile ``fn`` at one point, called on a one-element array."""
    with np.errstate(all="ignore"):
        return float(_profile_over(name, fn, np.array([x]))[0])


class _Step(NamedTuple):
    """One step of a compiled field: ``fn`` of slot ``a`` and, unless it
    is None, slot ``b``, written to slot ``out``."""

    fn: Callable
    a: int
    b: int | None
    out: int


class _Program(NamedTuple):
    """A compiled field: its chart, its steps, and the slots after the
    coordinates' own: constants, as float64 scalars, and None where a
    step writes."""

    chart: tuple[str, ...]
    steps: list[_Step]
    slots: list[np.float64 | None]


_OPERATORS = {Neg: operator.neg, Add: operator.add, Sub: operator.sub,
              Mul: operator.mul, Div: operator.truediv}


def _emit(node: Node, program: _Program, slot_of: dict[Node, int]) -> int:
    """The slot of ``node``, appending the steps of its subtree to
    ``program`` the first time the walk meets it."""
    k = slot_of.get(node)
    if k is not None:
        return k
    kind = type(node)
    if kind is Var:
        if node.name not in program.chart:
            raise UnknownVariableError(node.name)
        k = slot_of[node] = program.chart.index(node.name)
        return k
    if kind is Div:
        den = _emit(node.den, program, slot_of)
        program.steps.append(_Step(_nonzero_all, den, None, den))
        args = (_emit(node.num, program, slot_of), den)
    else:
        args = tuple(_emit(kid, program, slot_of) for kid in node.kids)
    k = slot_of[node] = len(program.chart) + len(program.slots)
    if kind is Const:
        program.slots.append(np.float64(node.value))
        return k
    program.slots.append(None)
    if kind in _OPERATORS:
        fn = _OPERATORS[kind]
    elif kind is Pow:
        fn = partial(_map, partial(_pow_value, exponent=node.exponent))
    elif kind is Call:
        fn = _CALL_STEPS[node.func]
    elif kind is External:
        fn = partial(_profile_over, node.name, node.funcs[0])
    else:
        raise TypeError(f"not an expression node: {node!r}")
    program.steps.append(_Step(fn, args[0], args[1] if len(args) > 1 else None, k))
    return k


def _compile(root: Node, chart: Sequence[str]) -> Callable[..., np.ndarray]:
    """``root`` as a function of one array per chart coordinate, all of
    one shape, compiled in one walk of the tree into a list of steps.

    The walk gives one slot per distinct node (shared subtrees are
    keyed by identity) after one per chart coordinate, which a variable
    shares.  Constants are filled in ahead, as float64 scalars, and
    every other node is one step, in depth-first order with a
    quotient's denominator, and its guard, before its numerator.  A
    call's step is its guard from _CALLS over the whole array, then the
    primitive.  ``+ - * /``, negation, sin, cos and sqrt are numpy
    operations, which round each element as the float operations and
    math's functions do, and exp, ln and _pow_value are mapped element
    by element (_map), so each element has the bits of evaluating the
    tree node by node at that point, and constants, exponents and
    bounds keep their exact bits.  An External profile is called once
    on all elements, as a 1-d array (see external).  A guard raises its
    DomainError if it fails at any element, so the function raises
    exactly when the node-by-node walk raises at some point, and, given
    one point, with that walk's error.  Its callers (at_points,
    _at_point, the quadratures, the jet walk) run it under
    np.errstate(all="ignore"): numpy warns where the float operations
    are silent.

    One point is a one-element array per coordinate (_at_point).  The
    function does not refer to itself, so it dies with its field by
    reference counting.
    """
    program = _Program(tuple(chart), [], [])
    out = _emit(root, program, {})
    width = len(program.chart)
    steps, slots = program.steps, program.slots
    reads = bool(root.reads)

    def over_arrays(*coordinates: np.ndarray) -> np.ndarray:
        if len(coordinates) != width:
            raise TypeError(f"field takes {width} coordinates, "
                            f"got {len(coordinates)}")
        v = [*(np.array(c, dtype=float) for c in coordinates), *slots]
        for fn, a, b, k in steps:
            v[k] = fn(v[a]) if b is None else fn(v[a], v[b])
        value = v[out]
        if np.count_nonzero(np.isfinite(value)) != np.size(value):
            raise DomainError("expression evaluated to a non-finite value")
        if reads:
            return value
        # A tree that reads no coordinate is a float64 scalar up to here.
        return np.full(v[0].shape if width else (), value)

    return over_arrays


# =====================================================================
# Pretty printing
# =====================================================================

# Precedence levels, loosest binding first.
_ADD, _TERM, _UNARY, _POWER, _ATOM = 1, 2, 3, 4, 5


def _level(node: Node) -> int:
    if isinstance(node, (Add, Sub)):
        return _ADD
    if isinstance(node, (Mul, Div)):
        return _TERM
    if isinstance(node, Neg):
        return _UNARY
    if isinstance(node, Const) and node.value < 0.0:
        return _UNARY
    if isinstance(node, Pow):
        return _POWER
    return _ATOM


def _fmt_number(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def _wrap(node: Node, minimum: int) -> str:
    text = format_expression(node)
    if _level(node) < minimum:
        return f"({text})"
    return text


def format_expression(node: Node) -> str:
    if isinstance(node, Const):
        return _fmt_number(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(node.arg, _UNARY)
    if isinstance(node, Add):
        return f"{_wrap(node.left, _ADD)} + {_wrap(node.right, _ADD + 1)}"
    if isinstance(node, Sub):
        return f"{_wrap(node.left, _ADD)} - {_wrap(node.right, _ADD + 1)}"
    if isinstance(node, Mul):
        return f"{_wrap(node.left, _TERM)}*{_wrap(node.right, _TERM + 1)}"
    if isinstance(node, Div):
        return f"{_wrap(node.num, _TERM)}/{_wrap(node.den, _TERM + 1)}"
    if isinstance(node, Pow):
        expo = node.exponent
        expo_text = _fmt_number(expo) if expo >= 0.0 else f"({_fmt_number(expo)})"
        return f"{_wrap(node.base, _ATOM)}^{expo_text}"
    if isinstance(node, Call):
        return f"{node.func}({format_expression(node.arg)})"
    if isinstance(node, External):
        return f"{node.name}({format_expression(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


# =====================================================================
# Parser
# =====================================================================

# One token per match, after any whitespace, as the text of the one
# group, so findall gives the tokens as strings: an operator, an
# identifier, a number, any other one character, or '' at the end.
# \d is str.isdecimal, the digits float() reads, and \w is
# str.isalnum or '_'.  An identifier starts with \w minus \d, which
# still holds '²' and '½'.  No two alternatives but the two numbers
# start with one character, so a token's first character gives its
# kind, but for a lone '.', which starts no number; the commonest come
# first.  A number whose 'e' starts no exponent is malformed; here it
# is a number and then an identifier, which the grammar never accepts
# after an operand, so the parse fails and _offsets refuses it first.
_TOKEN_TEXT = re.compile(
    r"\s*([-+*/^()]|[^\W\d]\w*|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|.?)",
    re.DOTALL)
_OPS = frozenset("-+*/^()")

# The binary operators: (binding, constructor), the tighter the higher.
_SUM, _PRODUCT = 1, 2
_BINARY = {"+": (_SUM, add), "-": (_SUM, sub), "*": (_PRODUCT, mul),
           "/": (_PRODUCT, div)}


def _offsets(source: str) -> list[int]:
    """The offset of each token of ``source``, the tokens of
    _TOKEN_TEXT.findall, each classed by its first character as
    _Parser.operand does.  Raises the error of the first token that is
    none: a number with no exponent that an identifier starting with
    'e' or 'E' follows with no space between (a malformed number), or
    a character that starts no token."""
    offsets = []
    bare_end = -1  # where the last number with no exponent ends
    for match in _TOKEN_TEXT.finditer(source):
        token = match[1]
        offset, first = match.start(1), token[:1]
        if offset == bare_end and first in ("e", "E"):
            raise ExpressionSyntaxError("malformed number", offsets[-1])
        if first.isdecimal() or first == "." and token != ".":
            if "e" not in token and "E" not in token:
                bare_end = match.end()
        elif token and token not in _OPS and not (
                first.isalpha() or first == "_"):
            raise ExpressionSyntaxError(f"unexpected character {first!r}", offset)
        offsets.append(offset)
    return offsets


class _Failure(Exception):
    """A parse error at token ``index``: ``error(text, offset)``, raised
    by parse_expression once the failure has shown that the offset is
    needed."""

    def __init__(self, index: int, error: type, text: str) -> None:
        super().__init__(text)
        self.index, self.error, self.text = index, error, text


class _Parser:
    """Precedence climbing over the tokens of one source, the strings
    _TOKEN_TEXT.findall gives, read by index.

    The smart constructors are called as the operands are read, left to
    right, so the tree and any DomainError from folding constants are
    those of building the tree in source order.  A token that is none
    (see _offsets) stops the parse where it stands, as does any other
    error; parse_expression then raises the token's error first.
    """

    __slots__ = ("tokens", "pos", "names")

    def __init__(self, tokens: list[str], chart: tuple[str, ...]) -> None:
        self.tokens = tokens
        self.pos = 0
        # The chart names an identifier token can spell.
        self.names = frozenset(
            name for name in chart if name[:1].isalpha() or name[:1] == "_")

    def parse(self) -> Node:
        node = self.expr(_SUM)
        text = self.tokens[self.pos]
        if text:  # only the end is ''
            raise _Failure(self.pos, ExpressionSyntaxError,
                           f"unexpected trailing input {text!r}")
        return node

    def expr(self, loosest: int) -> Node:
        """Operands joined by binary operators binding at least as
        tightly as ``loosest``, each operator's right side holding the
        operators that bind more tightly than it."""
        node = self.operand()
        while True:
            op = _BINARY.get(self.tokens[self.pos])
            if op is None or op[0] < loosest:
                return node
            binding, build = op
            self.pos += 1
            node = build(node, self.operand() if binding == _PRODUCT
                         else self.expr(binding + 1))

    def operand(self) -> Node:
        """The grammar's unary, power and atom rules in one."""
        tokens = self.tokens
        token = tokens[self.pos]
        self.pos += 1
        first = token[:1]
        if first.isdecimal() or first == "." and token != ".":
            node = Const(float(token))
        elif token in self.names and tokens[self.pos] != "(":
            node = Var(token)
        elif token == "(" or token in _CALLS and tokens[self.pos] == "(":
            if token != "(":
                self.pos += 1  # the '(' after the function's name
            node = self.expr(_SUM)
            if tokens[self.pos] != ")":
                raise _Failure(self.pos, ExpressionSyntaxError, "expected ')'")
            self.pos += 1
            if token != "(":
                node = call(token, node)
        elif token == "-":
            return neg(self.operand())
        else:
            raise self.unexpected(token)
        if tokens[self.pos] != "^":
            return node
        at = self.pos
        self.pos += 1
        exponent = self.operand()
        if type(exponent) is not Const:
            raise _Failure(at, ExpressionSyntaxError, "exponent must be a constant")
        return pow_(node, exponent.value)

    def unexpected(self, token: str) -> _Failure:
        """The failure of an operand at ``token``, just read: an
        identifier, an operator, the end or a token that is none (whose
        own error parse_expression raises first)."""
        at = self.pos - 1
        if token[:1].isalnum() or token[:1] == "_":  # no number gets here
            if self.tokens[self.pos] == "(":
                return _Failure(at, ExpressionSyntaxError,
                                f"unknown function '{token}'")
            return _Failure(at, UnknownVariableError, token)
        if token in _OPS:
            return _Failure(at, ExpressionSyntaxError,
                            f"unexpected token {token!r}")
        return _Failure(at, ExpressionSyntaxError, "unexpected end of input")


# =====================================================================
# Chart-aware scalar fields
# =====================================================================

FieldLike = Union["ScalarField", float, int, str]


class ScalarField(_ValueRecord):
    """A scalar function of the chart coordinates.

    ``chart`` fixes the coordinate names and their order; evaluation
    takes points as sequences in that order.  Arithmetic between fields
    requires identical charts.  The field is compiled on its first
    evaluation into a list of steps over arrays, which it keeps as
    ``compiled_arrays`` (see _compile).  ``at_points`` evaluates a
    stack of points in one call of it, and calling the field evaluates
    one point, as one-element arrays, through the same steps.  Values and
    errors are those of walking the tree node by node.  Construction
    checks that the chart names are distinct and that the tree reads no
    name outside the chart (``root.reads``).  A field is frozen, and
    equal to a field of the same chart and root.
    """

    _fields = ("chart", "root")

    def __init__(self, chart: tuple[str, ...], root: Node) -> None:
        if len(set(chart)) != len(chart):
            raise ValueError(f"chart has repeated names: {chart}")
        loose = root.reads.difference(chart)
        if loose:
            raise UnknownVariableError(sorted(loose)[0])
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "root", root)

    # -- evaluation ---------------------------------------------------

    def __call__(self, point: Sequence[float]) -> float:
        if len(point) != len(self.chart):
            raise ValueError(
                f"point has {len(point)} entries, chart has {len(self.chart)}"
            )
        return _at_point(self.compiled_arrays, point)

    @cached_property
    def compiled_arrays(self) -> Callable[..., np.ndarray]:
        """The field as a function taking one array per chart coordinate,
        all of one shape: at every element the bits of the node-by-node
        walk, raising exactly when the walk raises at some element."""
        return _compile(self.root, self.chart)

    def at_points(self, points: np.ndarray) -> np.ndarray:
        """The field at each row of a (P, n) stack of points, as (P,)
        float64, from one call of ``compiled_arrays``.  Only if that
        call raises are the rows evaluated one at a time, so an error is
        the one a loop over the rows meets first."""
        points = np.asarray(points, dtype=float)
        try:
            with np.errstate(all="ignore"):
                return self.compiled_arrays(*points.T)
        except Exception:  # noqa: BLE001 - the loop raises the loop's error
            return np.array([_at_point(self.compiled_arrays, row)
                             for row in points.tolist()])

    # -- calculus -----------------------------------------------------

    def diff(self, var: str) -> "ScalarField":
        if var not in self.chart:
            raise UnknownVariableError(var)
        return ScalarField(self.chart, differentiate(self.root, var))

    # -- combination --------------------------------------------------

    def _coerce(self, other: FieldLike) -> Node:
        if isinstance(other, ScalarField):
            if other.chart != self.chart:
                raise ValueError(
                    f"chart mismatch: {self.chart} vs {other.chart}"
                )
            return other.root
        if isinstance(other, (int, float)):
            return Const(float(other))
        if isinstance(other, str):
            return parse_expression(other, self.chart).root
        raise TypeError(f"cannot combine ScalarField with {type(other).__name__}")

    def __add__(self, other: FieldLike) -> "ScalarField":
        return ScalarField(self.chart, add(self.root, self._coerce(other)))

    def __radd__(self, other: FieldLike) -> "ScalarField":
        return ScalarField(self.chart, add(self._coerce(other), self.root))

    def __sub__(self, other: FieldLike) -> "ScalarField":
        return ScalarField(self.chart, sub(self.root, self._coerce(other)))

    def __rsub__(self, other: FieldLike) -> "ScalarField":
        return ScalarField(self.chart, sub(self._coerce(other), self.root))

    def __mul__(self, other: FieldLike) -> "ScalarField":
        return ScalarField(self.chart, mul(self.root, self._coerce(other)))

    def __rmul__(self, other: FieldLike) -> "ScalarField":
        return ScalarField(self.chart, mul(self._coerce(other), self.root))

    def __truediv__(self, other: FieldLike) -> "ScalarField":
        return ScalarField(self.chart, div(self.root, self._coerce(other)))

    def __rtruediv__(self, other: FieldLike) -> "ScalarField":
        return ScalarField(self.chart, div(self._coerce(other), self.root))

    def __pow__(self, exponent: float) -> "ScalarField":
        return ScalarField(self.chart, pow_(self.root, float(exponent)))

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.chart, neg(self.root))

    # -- misc ---------------------------------------------------------

    def with_chart(self, chart: Sequence[str]) -> "ScalarField":
        return ScalarField(tuple(chart), self.root)

    def __str__(self) -> str:
        return format_expression(self.root)


def parse_expression(source: str, chart: Sequence[str]) -> ScalarField:
    chart_t = tuple(chart)
    # A token's error comes first, wherever the parse stopped: _offsets
    # raises it.
    try:
        root = _Parser(_TOKEN_TEXT.findall(source), chart_t).parse()
    except _Failure as failure:
        index, error, text = failure.index, failure.error, failure.text
    except (SolitonLabError, RecursionError):
        _offsets(source)
        raise
    else:
        return ScalarField(chart_t, root)
    raise error(text, _offsets(source)[index])


def constant_field(chart: Sequence[str], value: float) -> ScalarField:
    return ScalarField(tuple(chart), Const(float(value)))


def coordinate_field(chart: Sequence[str], name: str) -> ScalarField:
    return ScalarField(tuple(chart), Var(name))


def _lift(func: str, field: ScalarField) -> ScalarField:
    return ScalarField(field.chart, call(func, field.root))


def exp(field: ScalarField) -> ScalarField:
    return _lift("exp", field)


def ln(field: ScalarField) -> ScalarField:
    return _lift("ln", field)


def sin(field: ScalarField) -> ScalarField:
    return _lift("sin", field)


def cos(field: ScalarField) -> ScalarField:
    return _lift("cos", field)


def sqrt(field: ScalarField) -> ScalarField:
    return _lift("sqrt", field)
