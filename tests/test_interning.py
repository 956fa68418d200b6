"""Interned expression nodes, by the identity rule of the expressions
docstring: a constructor returns the live node of the same kind, the
same payload and the same children, constants and exponents count by
their float64 bits, an Integral is never interned, and the intern
table holds its nodes weakly."""

import gc
import math
import struct

import numpy as np
import pytest

from solitonlab import SolitonLabError, expressions, parse_expression
from solitonlab.expressions import Add, Call, Const, Integral, Mul, Sub, Var, sub

from conftest import elementwise, random_expression

CHART = ("x", "y")


def _float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def test_equal_trees_are_one_node_and_equality_is_identity():
    a = Add(Mul(Const(2.0), Var("x")), Var("y"))
    b = Add(Mul(Const(2.0), Var("x")), Var("y"))
    assert a is b
    assert Sub(a.left, a.right) is not a
    assert a.reads == {"x", "y"} and a.left.right.reads == {"x"}


def test_a_difference_of_signed_zero_variants_stays_a_sub():
    x = Var("x")
    plus, minus = Add(x, Const(0.0)), Add(x, Const(-0.0))
    assert plus is not minus
    # Equal under ==, 0.0 == -0.0; the old structural == folded this to 0.
    diff = sub(plus, minus)
    assert isinstance(diff, Sub)
    assert (diff.left, diff.right) == (plus, minus)
    assert sub(plus, Add(x, Const(0.0))) is Const(0.0)


def test_a_nan_constant_is_one_node_per_bit_pattern():
    quiet, payload = 0x7FF8000000000000, 0x7FF8000000000001
    first, second = _float(quiet), _float(quiet)
    assert first is not second
    assert Const(first) is Const(second)
    assert Const(_float(payload)) is Const(_float(payload))
    assert Const(_float(payload)) is not Const(first)
    assert Const(-first) is not Const(first)
    assert struct.pack("<d", Const(_float(payload)).value) \
        == struct.pack("<Q", payload)


def test_two_integrals_of_one_integrand_are_never_merged():
    # Each holds the memo of the family that built it.
    x = Var("x")
    running = elementwise(math.sin)
    a = Integral(Call("cos", x), "x", 0.0, running)
    b = Integral(Call("cos", x), "x", 0.0, running)
    assert a is not b
    assert a.reads == {"x"}
    assert Integral(Const(1.0), "x", 0.0, running).reads == {"x"}
    assert Add(a, x) is Add(a, x)
    assert Add(a, x) is not Add(b, x)
    assert isinstance(sub(a, b), Sub)


def test_an_integrand_reads_its_variable_alone():
    with pytest.raises(ValueError, match="an integrand in 'x' reads 'y'"):
        Integral(Mul(Var("x"), Var("y")), "x", 0.0, elementwise(math.sin))


def test_parsing_one_text_twice_gives_one_root():
    text = "sin(x*y) + 3/(1 + x^2) - exp(-y)*x^0.5"
    first = parse_expression(text, CHART)
    second = parse_expression(text, CHART)
    assert first is not second
    assert first.root is second.root
    assert first == second


def test_the_intern_table_is_weak():
    gc.collect()
    start = len(expressions._NODES)
    rng = np.random.default_rng(14)
    fields = []
    while len(fields) < 400:
        try:
            field = parse_expression(random_expression(rng, CHART, 4), CHART)
        except SolitonLabError:
            continue
        # The compiled function and the derivative must not pin nodes.
        field.compiled_arrays
        fields += [field, field.diff("x")]
    assert len(expressions._NODES) > start + 400
    del fields, field
    gc.collect()
    assert len(expressions._NODES) == start
