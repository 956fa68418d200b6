"""The regex tokenizer and index-reading parser against a char-by-char one.

_Parser below is a private copy of the parser that scanned the
source one character at a time with str predicates (isspace, isdecimal,
isalpha, isalnum) and read its tokens through peek/advance.  It calls
the same smart constructors, so agreement on random strings, tree for
tree (node types, names and float64 bits) and error for error (type,
message and offset), shows that the rewrite changed only how the
source is scanned.

_TOKEN and _offsets below are copies of the error path that found a
failed parse's offsets with a second pattern, one group per kind of
token.  expressions._offsets walks the matches of the one pattern the
parser reads; on seeded random texts the two give the same offsets or
the same error, type, message and offset.
"""

import random
import re
import struct
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import (
    DomainError,
    ExpressionSyntaxError,
    SolitonLabError,
    UnknownVariableError,
    parse_expression,
)
from solitonlab import expressions
from solitonlab.expressions import (
    FUNCTION_NAMES,
    Call,
    Const,
    Pow,
    Var,
    add,
    call,
    div,
    mul,
    neg,
    pow_,
    sub,
)

CHART = ("x", "y", "é", "_a", "x2")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    offset: int


def _tokenize(source):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch.isdecimal() or (ch == "." and i + 1 < n and source[i + 1].isdecimal()):
            start = i
            while i < n and source[i].isdecimal():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdecimal():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdecimal():
                    i = j
                    while i < n and source[i].isdecimal():
                        i += 1
                else:
                    raise ExpressionSyntaxError("malformed number", start)
            tokens.append(_Token("num", source[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_Token("ident", source[start:i], start))
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source, chart):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.chart = chart

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        tok = self.peek()
        if tok.kind != "op" or tok.text != symbol:
            raise ExpressionSyntaxError(f"expected '{symbol}'", tok.offset)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return node

    def expr(self):
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                node = add(node, rhs) if tok.text == "+" else sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.unary()
                node = mul(node, rhs) if tok.text == "*" else div(node, rhs)
            else:
                return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            expo = self.unary()
            if not isinstance(expo, Const):
                raise ExpressionSyntaxError("exponent must be a constant", tok.offset)
            return pow_(base, expo.value)
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTION_NAMES:
                    raise ExpressionSyntaxError(f"unknown function '{tok.text}'", tok.offset)
                self.advance()
                inner = self.expr()
                self.expect_op(")")
                return call(tok.text, inner)
            if tok.text not in self.chart:
                raise UnknownVariableError(tok.text, tok.offset)
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        if tok.kind == "end":
            raise ExpressionSyntaxError("unexpected end of input", tok.offset)
        raise ExpressionSyntaxError(f"unexpected token {tok.text!r}", tok.offset)


def _shape(node):
    """The tree as nested tuples: node type, then names and the float64
    bits of constants and exponents, then the children."""
    if isinstance(node, Const):
        return ("Const", struct.pack("<d", node.value))
    if isinstance(node, Var):
        return ("Var", node.name)
    if isinstance(node, Pow):
        return ("Pow", struct.pack("<d", node.exponent), _shape(node.base))
    if isinstance(node, Call):
        return ("Call", node.func, _shape(node.arg))
    return (type(node).__name__,
            *(_shape(getattr(node, name)) for name in node.__dataclass_fields__))


def _outcome(parse):
    """The shape of the parsed tree, or the type, message and offset of
    what the parse raised."""
    try:
        return _shape(parse())
    except SolitonLabError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def _both(source):
    return (_outcome(lambda: parse_expression(source, CHART).root),
            _outcome(lambda: _Parser(source, CHART).parse()))


# Characters and fragments that reach every branch of the scanner:
# number parts, operators, chart names and near misses, function names,
# non-ASCII letters, decimal digits of other scripts, digits float()
# cannot read ('²', '½'), and spaces str.isspace knows beyond ASCII.
CHARS = "0123456789.eE+-*/^()xyz\u00e9_a\u0663\u0665\u00b2\u00bd \t\u00a0\u2009\u3000$,"
PIECES = (*CHARS, "1e", "2.5", ".5", "1e+3", "e-", "1.e2", "x2", "_a",
          "zz", "é2", "١٢", "sin", "cos", "exp", "ln", "sqrt", "tanh",
          "sin(", "ln(0)", "sqrt(-1)", "1/0", "0^-1", "(-8)^0.5", "1e308",
          "x^", "^-2", "^0.5", "  ")

sources = st.one_of(
    st.text(alphabet=CHARS, max_size=24),
    st.lists(st.sampled_from(PIECES), max_size=14).map("".join),
)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(sources)
def test_parse_matches_the_char_by_char_reference(source):
    new, old = _both(source)
    assert new == old


@pytest.mark.parametrize("source, expected", [
    # '²' is \w, not a letter or a decimal digit: it starts no token.
    ("2²", (ExpressionSyntaxError, "unexpected character '²' (at offset 1)", 1)),
    ("½x", (ExpressionSyntaxError, "unexpected character '½' (at offset 0)", 0)),
    ("x²", (UnknownVariableError, "unknown variable 'x²' (at offset 0)", 0)),
    # An 'e' that starts no exponent makes the whole number malformed.
    ("1e", (ExpressionSyntaxError, "malformed number (at offset 0)", 0)),
    ("1e+", (ExpressionSyntaxError, "malformed number (at offset 0)", 0)),
    ("x + 1e+", (ExpressionSyntaxError, "malformed number (at offset 4)", 4)),
    ("2ex", (ExpressionSyntaxError, "malformed number (at offset 0)", 0)),
    ("sin(1e308*10)", (DomainError, "sin of an infinite argument", None)),
    ("x +\u3000", (ExpressionSyntaxError, "unexpected end of input (at offset 4)", 4)),
    # A second '.' starts a second number; a '.' that starts none is
    # refused; a number read up to a letter is malformed, whatever the
    # script of its digits; a ')' ends no number.
    ("1.5.3", (ExpressionSyntaxError, "unexpected trailing input '.3' (at offset 3)", 3)),
    (".e5", (ExpressionSyntaxError, "unexpected character '.' (at offset 0)", 0)),
    ("2.5ex", (ExpressionSyntaxError, "malformed number (at offset 0)", 0)),
    ("\u0663e", (ExpressionSyntaxError, "malformed number (at offset 0)", 0)),
    ("x$", (ExpressionSyntaxError, "unexpected character '$' (at offset 1)", 1)),
    ("(2)e", (ExpressionSyntaxError, "unexpected trailing input 'e' (at offset 3)", 3)),
])
def test_chosen_errors(source, expected):
    assert _both(source) == (expected, expected)


def test_decimal_digits_of_other_scripts_are_numbers():
    new, old = _both("٣")
    assert new == old == ("Const", struct.pack("<d", 3.0))
    new, old = _both(" ٣.٥e١ * é")
    assert new == old
    assert new[1] == ("Const", struct.pack("<d", 35.0))


_TOKEN = re.compile(r"""\s*(?:
    (?P<op>[-+*/^()])
  | (?P<ident>[^\W\d]\w*)
  | (?P<malformed>(?:\d+\.?\d*|\.\d+)[eE](?![+-]?\d))
  | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<end>\Z)
  | (?P<other>.)
)""", re.VERBOSE | re.DOTALL)


def _offsets(source: str) -> list[int]:
    """The offset of each token of ``source``, the tokens of
    _TOKEN_TEXT.findall.  Raises the error of the first match that is
    no token: a malformed number, or a character that starts none."""
    offsets = []
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        offset = match.start(kind)
        if kind == "malformed":
            raise ExpressionSyntaxError("malformed number", offset)
        first = match[kind][:1]
        if kind == "other" or kind == "ident" and not (
                first.isalpha() or first == "_"):
            raise ExpressionSyntaxError(f"unexpected character {first!r}", offset)
        offsets.append(offset)
    return offsets


def _offsets_or_error(offsets, source):
    try:
        return offsets(source)
    except ExpressionSyntaxError as exc:
        return type(exc), str(exc), exc.offset


# Number parts, operators, spaces (one beyond ASCII), letters, '_',
# characters that start no token ('$', '#', '²', '½'), an Arabic-Indic
# digit, and pieces that end a number where an 'e' may follow.
TEXT_CHARS = "0123456789.eE+-*/^()  \t\u3000xyz_$\u00e9\u00b2\u0663\u00bd#"
TEXT_PIECES = (*TEXT_CHARS, "1e", "2.5", ".5", "E+", "sin(", "1e5", "e-",
               "2.", "٣e", "x2", "_e", "1.5e-3")
ATOMS = ("x", "y", "é", "_a", "2", "2.5", ".5", "3.", "1e3", "1E-2", "٣")


def _grammar_text(rng, depth):
    """A random text of the grammar, up to ``depth`` operators deep."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(ATOMS)
    inner = _grammar_text(rng, depth - 1)
    if roll < 0.45:
        return f"{rng.choice(FUNCTION_NAMES)}({inner})"
    if roll < 0.55:
        return f"-{inner}"
    if roll < 0.65:
        return f"( {inner})"
    if roll < 0.75:
        return f"{inner}^{rng.choice(('2', '-1', '0.5', '1e0'))}"
    op = rng.choice(("+", " - ", "*", "/ "))
    return f"{inner}{op}{_grammar_text(rng, depth - 1)}"


def _texts():
    rng = random.Random(20261020)
    for _ in range(100_000):
        yield "".join(rng.choices(TEXT_PIECES, k=rng.randrange(1, 12)))
    for _ in range(20_000):
        text = _grammar_text(rng, 4)
        at = rng.randrange(len(text) + 1)
        yield text[:at] + rng.choice(TEXT_PIECES) + text[at:]


def test_one_pattern_finds_the_offsets_and_errors_of_two():
    mismatches = [
        source for source in _texts()
        if _offsets_or_error(expressions._offsets, source)
        != _offsets_or_error(_offsets, source)
    ]
    assert mismatches == []
