"""Symbolic scalar expressions on a coordinate chart.

This module is the foundation of the package.  It provides:

  1. a small immutable expression tree (constants, variables, the four
     arithmetic operations, negation, constant powers, the primitives
     exp / ln / sin / cos / sqrt, and opaque univariate profiles backed
     by numeric callables) whose nodes are interned (below);
  2. smart constructors that fold the obvious algebraic identities so
     that derivatives stay readable;
  3. exact symbolic differentiation;
  4. plain float evaluation with explicit domain checking: a field is
     compiled, on its first evaluation, into a Python function of the
     chart coordinates whose values and errors are those of a
     node-by-node walk, and on request into a function over arrays of
     coordinates with the same bits at every element;
  5. a parser for the grammar below: one compiled regular expression
     splits the source into (kind, text, offset) tuples, and a
     recursive descent, with unary, power and atom in one rule, reads
     them by index.  Any failure reports its character offset;
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
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .errors import DomainError, ExpressionSyntaxError, UnknownVariableError

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


# The live interned nodes by key (see Node identity above).
_NODES: dict[tuple, weakref.ref] = {}


def _forget(key: tuple, ref: weakref.ref, nodes: dict = _NODES) -> None:
    # A dead node's entry goes, unless a newer node has taken its key.
    if nodes.get(key) is ref:
        del nodes[key]


def _keep(node: Node, key: tuple, kids: tuple) -> None:
    """Intern the new ``node``, with child nodes ``kids``, under ``key``.
    A variable reads its name, another node what its one or two kids read."""
    node.kids = kids
    if kids:
        node.reads = kids[0].reads | kids[-1].reads
    else:
        node.reads = frozenset((node.name,) if type(node) is Var else ())
    _NODES[key] = weakref.ref(node, partial(_forget, key))


class Node:
    """An expression node (see Node identity above)."""

    __slots__ = ("kids", "reads", "__weakref__")


def _kind(cls: type) -> type:
    """A kind of interned node: a dataclass for its field list and repr,
    not for equality, with a constructor generated from its fields, as
    dataclass generates __init__, so that it sets each field directly
    (a loop over the fields costs about 1 us more per new node).  A
    float field is stored as a float and keyed by its bits; the Node
    fields are the kids."""
    cls = dataclass(init=False, eq=False, slots=True)(cls)
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
    value: float


@_kind
class Var(Node):
    name: str


@_kind
class Neg(Node):
    arg: Node


@_kind
class Add(Node):
    left: Node
    right: Node


@_kind
class Sub(Node):
    left: Node
    right: Node


@_kind
class Mul(Node):
    left: Node
    right: Node


@_kind
class Div(Node):
    num: Node
    den: Node


@_kind
class Pow(Node):
    base: Node
    exponent: float


@_kind
class Call(Node):
    func: str
    arg: Node


@dataclass(init=False, eq=False, slots=True)
class External(Node):
    """Opaque univariate profile known only through callables.

    ``funcs`` holds the profile and its derivatives in order: value,
    first derivative, second derivative, ...  Differentiating shifts
    that tuple left; once it is exhausted no further derivative exists.
    """

    name: str
    funcs: tuple[Callable[[float], float], ...]
    arg: Node

    def __new__(cls, name: str, funcs: tuple, arg: Node) -> Node:
        node = object.__new__(cls)
        node.name, node.funcs, node.arg = name, funcs, arg
        node.kids, node.reads = (arg,), arg.reads
        return node


FUNCTION_NAMES = ("exp", "ln", "sin", "cos", "sqrt")

# exp(x) is finite exactly when x <= log(DBL_MAX); both evaluators cut here.
EXP_ARG_MAX = math.log(sys.float_info.max)

ZERO = Const(0.0)
ONE = Const(1.0)


def _is_const(node: Node, value: float | None = None) -> bool:
    if not isinstance(node, Const):
        return False
    return value is None or node.value == value


# =====================================================================
# Smart constructors
# =====================================================================

def add(left: Node, right: Node) -> Node:
    if _is_const(left) and _is_const(right):
        return Const(left.value + right.value)
    if _is_const(left, 0.0):
        return right
    if _is_const(right, 0.0):
        return left
    return Add(left, right)


def sub(left: Node, right: Node) -> Node:
    if _is_const(left) and _is_const(right):
        return Const(left.value - right.value)
    if _is_const(right, 0.0):
        return left
    if _is_const(left, 0.0):
        return neg(right)
    if left is right:
        return ZERO
    return Sub(left, right)


def mul(left: Node, right: Node) -> Node:
    if _is_const(left) and _is_const(right):
        return Const(left.value * right.value)
    if _is_const(left, 0.0) or _is_const(right, 0.0):
        return Const(0.0)
    if _is_const(left, 1.0):
        return right
    if _is_const(right, 1.0):
        return left
    if _is_const(left, -1.0):
        return neg(right)
    if _is_const(right, -1.0):
        return neg(left)
    return Mul(left, right)


def div(num: Node, den: Node) -> Node:
    if _is_const(den, 0.0):
        raise DomainError("division by the constant zero")
    if _is_const(num) and _is_const(den):
        return Const(num.value / den.value)
    if _is_const(num, 0.0):
        return Const(0.0)
    if _is_const(den, 1.0):
        return num
    if num is den:
        return ONE
    return Div(num, den)


def neg(arg: Node) -> Node:
    if isinstance(arg, Const):
        return Const(-arg.value)
    if isinstance(arg, Neg):
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


# Each primitive with its domain guard, read by _call_value (which
# constant folding uses) and by the code _compile emits, so both raise
# the same DomainError at the same node.  A guard (comparison, bound,
# message) refuses x before the call when `x <comparison> bound`.  sin
# and cos have no comparison: math raises ValueError for them only on
# an infinite argument, and that becomes DomainError(message).
_CALLS: dict[str, tuple[Callable[[float], float], str, float, str]] = {
    "exp": (math.exp, ">", EXP_ARG_MAX, "overflow in exp"),
    "ln": (math.log, "<=", 0.0, "ln of a non-positive argument"),
    "sin": (math.sin, "", 0.0, "sin of an infinite argument"),
    "cos": (math.cos, "", 0.0, "cos of an infinite argument"),
    "sqrt": (math.sqrt, "<", 0.0, "sqrt of a negative argument"),
}
_COMPARISONS = {">": operator.gt, "<=": operator.le, "<": operator.lt}


def _call_value(func: str, x: float) -> float:
    fn, comparison, bound, message = _CALLS[func]
    if comparison and _COMPARISONS[comparison](x, bound):
        raise DomainError(message)
    try:
        return fn(x)
    except ValueError:
        raise DomainError(message) from None


def call(func: str, arg: Node) -> Node:
    if func not in _CALLS:
        raise ValueError(f"unsupported function '{func}'")
    if isinstance(arg, Const):
        return Const(_call_value(func, arg.value))
    return Call(func, arg)


def external(
    name: str,
    funcs: Sequence[Callable[[float], float]],
    arg: Node,
) -> Node:
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
    return _compile(node, chart)(*(env[name] for name in chart))


_BINARY_OPS = {Add: "+", Sub: "-", Mul: "*"}


def _map(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``fn`` of each element of the float64 array ``x``, called once per
    element, as an array of the shape of ``x``."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _compile(root: Node, chart: Sequence[str], arrays: bool = False,
             ) -> Callable[..., float] | tuple[Callable[..., float],
                                                Callable[..., np.ndarray]]:
    """A Python function of the chart coordinates that evaluates ``root``.

    The generated body holds one local per distinct node (shared
    subtrees are keyed by identity), assigned in the order of a
    depth-first walk with a quotient's denominator before its
    numerator.  A call is emitted as its guard from _CALLS followed by
    a direct call of the math function: exp, ln and sqrt compare their
    argument with the guard's bound first, and sin and cos turn the
    ValueError of an infinite argument into the guard's DomainError.
    Values and errors are therefore those of evaluating the tree node
    by node with _call_value.  Only generated names, operators and
    function names enter the source; constants, exponents, guard bounds
    and profile callables are bound through the scope dict, so every
    float keeps its exact bits.

    With ``arrays``, the same walk also emits the field over arrays, and
    the pair (scalar function, array function) is returned.  The array
    function takes one array per coordinate, of one shape, and runs the
    same locals in the same order with the same bound constants, each
    constant as a float64 scalar: ``+ - * /`` and negation are numpy
    operations, which round each element as the float operations do,
    and every _CALLS function, _pow_value and External value is mapped
    element by element through the scalar function itself (_map), so
    each element has the scalar function's bits.  A guard raises its
    DomainError if it fails at any element, so the array function
    raises exactly when the scalar one raises at some point.  It runs
    under np.errstate(all="ignore"): numpy warns where the float
    operations are silent.
    """
    params = [f"x{i}" for i in range(len(chart))]
    param_of = dict(zip(chart, params))
    scope: dict[str, object] = {
        "DomainError": DomainError,
        "_isfinite": math.isfinite,
        "_pow_value": _pow_value,
        "_np": np,
        "_map": _map,
    }
    lines = [f"    {p} = float({p})" for p in params]
    many = [f"    {p} = _np.array({p}, dtype=float)" for p in params
            ] + ["    with _np.errstate(all='ignore'):"] if arrays else []
    local_of: dict[Node, str] = {}

    def emit(scalar: str, array: str | None = None) -> None:
        lines.append("    " + scalar)
        if arrays:
            many.append("        " + (scalar if array is None else array))

    def bind(value: object) -> str:
        name = f"k{len(scope)}"
        scope[name] = value
        return name

    def visit(node: Node) -> str:
        if node in local_of:
            return local_of[node]
        array = None
        if isinstance(node, Const):
            expr = bind(node.value)
            array = f"_np.float64({expr})"
        elif isinstance(node, Var):
            if node.name not in param_of:
                raise UnknownVariableError(node.name)
            expr = param_of[node.name]
        elif isinstance(node, Neg):
            expr = "-" + visit(node.arg)
        elif isinstance(node, (Add, Sub, Mul)):
            left = visit(node.left)
            expr = f"{left} {_BINARY_OPS[type(node)]} {visit(node.right)}"
        elif isinstance(node, Div):
            den = visit(node.den)
            emit(f"if {den} == 0.0:", f"if ({den} == 0.0).any():")
            emit("    raise DomainError('division by zero')")
            expr = f"{visit(node.num)} / {den}"
        elif isinstance(node, Pow):
            base, exponent = visit(node.base), bind(node.exponent)
            expr = f"_pow_value({base}, {exponent})"
            array = f"_map(lambda v: _pow_value(v, {exponent}), {base})"
        elif isinstance(node, Call):
            f = "_" + node.func
            fn, comparison, bound, message = _CALLS[node.func]
            scope.update({f: fn, f + "_bound": bound, f + "_error": message})
            arg = visit(node.arg)
            local = local_of[node] = f"v{len(local_of)}"
            if comparison:
                emit(f"if {arg} {comparison} {f}_bound:",
                     f"if ({arg} {comparison} {f}_bound).any():")
                emit(f"    raise DomainError({f}_error)")
                emit(f"{local} = {f}({arg})", f"{local} = _map({f}, {arg})")
            else:
                emit("try:")
                emit(f"    {local} = {f}({arg})", f"    {local} = _map({f}, {arg})")
                emit("except ValueError:")
                emit(f"    raise DomainError({f}_error) from None")
            return local
        elif isinstance(node, External):
            profile, arg = bind(node.funcs[0]), visit(node.arg)
            expr = f"float({profile}({arg}))"
            array = f"_map(lambda v: float({profile}(v)), {arg})"
        else:
            raise TypeError(f"not an expression node: {node!r}")
        local = f"v{len(local_of)}"
        emit(f"{local} = {expr}", None if array is None else f"{local} = {array}")
        local_of[node] = local
        return local

    out = visit(root)
    # visit refers to itself through its closure; dropping the name
    # breaks that cycle, so the source lines and maps die with this call.
    del visit
    emit(f"if not _isfinite({out}):", f"if not _np.isfinite({out}).all():")
    emit("    raise DomainError('expression evaluated to a non-finite value')")
    # A tree that reads no coordinate is a float64 scalar up to here.
    shape = f"{params[0]}.shape" if params else "()"
    emit(f"return {out}",
         f"return {out}" if root.reads else f"return _np.full({shape}, {out})")
    signature = "(" + ", ".join(params) + "):\n"
    source = "def field" + signature + "\n".join(lines)
    if arrays:
        source += "\ndef field_over_arrays" + signature + "\n".join(many)
    exec(source, scope)
    # Taking the functions out of their own globals leaves no reference
    # cycle, so reference counting frees them along with their field.
    if arrays:
        return scope.pop("field"), scope.pop("field_over_arrays")
    return scope.pop("field")


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

# One token per match, after any whitespace.  \d is str.isdecimal, the
# digits float() reads, and \w is str.isalnum or '_'.  A number whose
# 'e' starts no exponent is malformed; only a whole mantissa can be
# followed by an 'e', so that alternative never takes part of a number.
# An identifier starts with \w minus \d, which still holds '²' and '½';
# _tokenize refuses those.
_TOKEN = re.compile(r"""\s*(?:
    (?P<malformed>(?:\d+\.?\d*|\.\d+)[eE](?![+-]?\d))
  | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[^\W\d]\w*)
  | (?P<op>[-+*/^()])
  | (?P<end>\Z)
  | (?P<other>.)
)""", re.VERBOSE | re.DOTALL)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tuples of ``source``, the last of kind
    'end'.  The kind is 'num', 'ident' or 'end', or an operator's own
    character."""
    tokens = []
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match[kind]
        offset = match.start(kind)
        if kind == "op":
            kind = text
        elif kind == "malformed":
            raise ExpressionSyntaxError("malformed number", offset)
        elif kind == "other" or kind == "ident" and not (
                text[0].isalpha() or text[0] == "_"):
            raise ExpressionSyntaxError(f"unexpected character {text[0]!r}", offset)
        tokens.append((kind, text, offset))
        if kind == "end":
            break
    return tokens


class _Parser:
    """Recursive descent over the tokens of one source, read by index.

    The smart constructors are called as the operands are read, left to
    right, so the tree and any DomainError from folding constants are
    those of building the tree in source order.
    """

    def __init__(self, source: str, chart: tuple[str, ...]) -> None:
        self.tokens = _tokenize(source)
        self.pos = 0
        self.chart = chart

    def parse(self) -> Node:
        node = self.expr()
        kind, text, offset = self.tokens[self.pos]
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing input {text!r}", offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind = self.tokens[self.pos][0]
            if kind == "+":
                self.pos += 1
                node = add(node, self.term())
            elif kind == "-":
                self.pos += 1
                node = sub(node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind = self.tokens[self.pos][0]
            if kind == "*":
                self.pos += 1
                node = mul(node, self.unary())
            elif kind == "/":
                self.pos += 1
                node = div(node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        """The grammar's unary, power and atom rules in one."""
        kind, text, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "-":
            return neg(self.unary())
        if kind == "num":
            node = Const(float(text))
        elif kind == "(" or kind == "ident" and self.tokens[self.pos][0] == "(":
            if kind == "ident":
                if text not in _CALLS:
                    raise ExpressionSyntaxError(f"unknown function '{text}'", offset)
                self.pos += 1
            node = self.expr()
            close, _, at = self.tokens[self.pos]
            if close != ")":
                raise ExpressionSyntaxError("expected ')'", at)
            self.pos += 1
            if kind == "ident":
                node = call(text, node)
        elif kind == "ident":
            if text not in self.chart:
                raise UnknownVariableError(text, offset)
            node = Var(text)
        elif kind == "end":
            raise ExpressionSyntaxError("unexpected end of input", offset)
        else:
            raise ExpressionSyntaxError(f"unexpected token {text!r}", offset)
        kind, _, offset = self.tokens[self.pos]
        if kind != "^":
            return node
        self.pos += 1
        exponent = self.unary()
        if not isinstance(exponent, Const):
            raise ExpressionSyntaxError("exponent must be a constant", offset)
        return pow_(node, exponent.value)


# =====================================================================
# Chart-aware scalar fields
# =====================================================================

FieldLike = Union["ScalarField", float, int, str]


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of the chart coordinates.

    ``chart`` fixes the coordinate names and their order; evaluation
    takes points as sequences in that order.  Arithmetic between fields
    requires identical charts.  The field is compiled into a Python
    function on its first evaluation and keeps that function; its
    values and errors are those of walking the tree node by node.
    Construction checks that the chart names are distinct and that the
    tree reads no name outside the chart (``root.reads``).
    """

    chart: tuple[str, ...]
    root: Node

    def __post_init__(self) -> None:
        if len(set(self.chart)) != len(self.chart):
            raise ValueError(f"chart has repeated names: {self.chart}")
        loose = self.root.reads.difference(self.chart)
        if loose:
            raise UnknownVariableError(sorted(loose)[0])

    # -- evaluation ---------------------------------------------------

    def __call__(self, point: Sequence[float]) -> float:
        if len(point) != len(self.chart):
            raise ValueError(
                f"point has {len(point)} entries, chart has {len(self.chart)}"
            )
        return self.compiled(*point)

    @cached_property
    def compiled(self) -> Callable[..., float]:
        """The field as a function taking one float per chart coordinate."""
        return _compile(self.root, self.chart)

    @cached_property
    def compiled_arrays(self) -> Callable[..., np.ndarray]:
        """The field as a function taking one array per chart coordinate,
        all of one shape: ``compiled`` at every element, bit for bit,
        raising exactly when ``compiled`` raises at some element (see
        _compile).  It is compiled in one walk with the scalar function,
        which becomes ``compiled`` if that is not yet set."""
        scalar, over_arrays = _compile(self.root, self.chart, arrays=True)
        self.__dict__.setdefault("compiled", scalar)
        return over_arrays

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
    root = _Parser(source, chart_t).parse()
    return ScalarField(chart_t, root)


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
