"""Constant operands folded into affine tape entries.

A node c*u, u*c, u/c (c nonzero), c+u, u+c, u-c or -u, where c is a
Const and u is not, is numbered as one entry a*u + b that reads u
alone; its Const takes no entry unless something else reads it.  Each
fold is checked against the general rule it replaces, applied to the
Const's jet and u's jet: the values bit for bit, nonzero derivative
entries bit for bit and zero entries with ==.  The general rules make
a NaN where the Const's zero derivatives meet an infinite factor
(inf * 0), as 1/c^2 does for u / 1e-300; there the fold gives a times
u's entry.
"""

import numpy as np
import pytest

from solitonlab import DomainError, autodiff
from solitonlab.expressions import (
    Add,
    Const,
    Div,
    Mul,
    Neg,
    ScalarField,
    Sub,
    Var,
)

CHART = ("x", "y")
X, Y = Var("x"), Var("y")
CONSTANTS = (-2.0, 0.0, -0.0, 0.5, 1e-300, 1e308)
POINTS = np.array([[0.0, -0.0], [-0.0, 3.0], [-1.5, 0.0], [2.0, -0.75],
                   [1e300, -4.0], [-1e300, 1e300]])

# Each fold: the node, and the general rule with the constant's jet
# as its left (True) or right operand.
FOLDS = {
    "c*u": (lambda c, u: Mul(c, u), autodiff._mul_rule, True),
    "u*c": (lambda c, u: Mul(u, c), autodiff._mul_rule, False),
    "u/c": (lambda c, u: Div(u, c), autodiff._div_rule, False),
    "c+u": (lambda c, u: Add(c, u), autodiff._add_rule, True),
    "u+c": (lambda c, u: Add(u, c), autodiff._add_rule, False),
    "u-c": (lambda c, u: Sub(u, c), autodiff._sub_rule, False),
}


def _walk(root, points):
    """The tape of ``root`` and the rows of its jet, from a walk that
    skips the fields' final check for finite entries."""
    tape = autodiff._Tape()
    k = tape.number(root)
    batches, slot, size = autodiff._schedule(tape, [k], len(points))
    walk = autodiff._Walk(points, CHART, tape.nodes, size)
    with np.errstate(all="ignore"):
        for batch in batches:
            autodiff._evaluate(batch, walk)
    return tape, walk.jets[slot[k]]


def _general(rule, const, u, const_left, points):
    """The jet of ``rule`` on the jet of the constant ``const`` and the
    jet ``u``, as one batch of one entry."""
    c = np.zeros_like(u)
    c[0] = const
    args = (c, u) if const_left else (u, c)
    out = np.empty((1, *u.shape))
    walk = autodiff._Walk(points, CHART, [], 0)
    batch = autodiff._Batch(None, [0], slice(0, 1), [])
    with np.errstate(all="ignore"):
        rule(batch, walk, out, *(arg[None] for arg in args))
    return out[0]


def _assert_general_bits(folded, general, a, u):
    """Values bit for bit; each derivative entry a times u's, and the
    general rule's entry wherever that is not a NaN: nonzero entries
    bit for bit, zero entries with ==.  Returns whether any general
    entry was a NaN."""
    assert folded[0].tobytes() == general[0].tobytes()
    with np.errstate(all="ignore"):
        assert folded[1:].tobytes() == (a * u[1:]).tobytes()
    fold, gen = folded[1:], general[1:]
    known = ~np.isnan(gen)
    nonzero = known & (gen != 0.0)
    assert fold[nonzero].tobytes() == gen[nonzero].tobytes()
    assert (fold[known & (gen == 0.0)] == 0.0).all()
    return not known.all()


@pytest.mark.parametrize("u", [X, Mul(X, Y)], ids=["x", "x*y"])
@pytest.mark.parametrize("fold", [*FOLDS, "-u"])
def test_each_fold_builds_one_affine_entry_and_no_const(fold, u):
    for c in CONSTANTS:
        if fold == "u/c" and c == 0.0:
            continue
        node = Neg(u) if fold == "-u" else FOLDS[fold][0](Const(c), u)
        tape, _ = _walk(node, POINTS)
        kinds = [type(entry) for entry in tape.nodes]
        assert kinds.count(tuple) == 1
        assert Const not in kinds
        assert tape.args[-1] == (tape.numbers[u],)


@pytest.mark.parametrize("u", [X, Mul(X, Y)], ids=["x", "x*y"])
@pytest.mark.parametrize("fold", FOLDS)
def test_each_fold_gives_the_general_rules_bits(fold, u):
    make, rule, const_left = FOLDS[fold]
    _, ujet = _walk(u, POINTS)
    nans = set()
    for c in CONSTANTS:
        if fold == "u/c" and c == 0.0:
            continue
        tape, folded = _walk(make(Const(c), u), POINTS)
        a, b = tape.nodes[-1]
        general = _general(rule, c, ujet, const_left, POINTS)
        if _assert_general_bits(folded, general, a, ujet):
            nans.add(c)
    # x*y is infinite at the last point, where the product rule adds
    # u's value times the Const's zero derivatives.  For u / 1e-300,
    # 1/c^2 overflows in the quotient rule's reciprocal.
    if rule is not autodiff._add_rule and rule is not autodiff._sub_rule:
        if not np.isfinite(ujet[0]).all():
            assert nans == set(CONSTANTS) - ({0.0} if fold == "u/c" else set())
        else:
            assert nans == ({1e-300} if fold == "u/c" else set())
    else:
        assert not nans


@pytest.mark.parametrize("u", [X, Mul(X, Y)], ids=["x", "x*y"])
def test_negation_gives_the_bits_of_negating_every_entry(u):
    _, ujet = _walk(u, POINTS)
    tape, folded = _walk(Neg(u), POINTS)
    assert tape.nodes[-1] == (-1.0, -0.0)
    assert folded.tobytes() == np.negative(ujet).tobytes()


def test_a_division_by_zero_and_a_constant_on_the_left_stay_general():
    for node in (Div(X, Const(0.0)), Div(X, Const(-0.0)),
                 Sub(Const(2.0), X), Div(Const(2.0), X),
                 Mul(Const(2.0), Const(3.0)), Add(Const(2.0), Const(3.0))):
        tape, _ = _walk(node, POINTS)
        assert tuple not in map(type, tape.nodes)
        assert type(tape.nodes[-1]) is type(node)
    with pytest.raises(DomainError,
                       match=r"division by zero at \[0.0, -0.0\]"):
        autodiff.eval_jet2(ScalarField(CHART, Div(X, Const(0.0))), POINTS)


def test_a_constant_read_elsewhere_keeps_its_entry():
    c = Const(0.5)
    for root in (Add(Mul(c, X), Div(c, Y)), Sub(c, Mul(c, X))):
        tape, _ = _walk(root, POINTS)
        kinds = [type(entry) for entry in tape.nodes]
        assert kinds.count(Const) == kinds.count(tuple) == 1


@pytest.mark.parametrize("shift", [-2, -1, 0, 1, 2])
def test_the_affine_rule_may_write_over_its_operand(shift):
    rng = np.random.default_rng(11)
    jets = rng.standard_normal((12, 1 + 3 + 9, 5))
    entries = [(-1.0, -0.0), (2.5, 3.0), (1.0, -7.0)]

    class Walk:
        nodes = entries

    batch = autodiff._Batch(tuple, [0, 1, 2], slice(0, 3), [])
    expected = np.empty((3, 13, 5))
    autodiff._affine_rule(batch, Walk, expected, jets[4:7].copy())
    buffer = jets.copy()
    out = buffer[4 + shift:7 + shift]
    autodiff._affine_rule(batch, Walk, out, buffer[4:7])
    assert out.tobytes() == expected.tobytes()
