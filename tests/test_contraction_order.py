"""The numpy facts the curvature pass relies on to keep its bits.

np.einsum without ``optimize`` sums each output entry term by term.
Where the summed index is the last, contiguous axis of two operands it
goes through a SIMD dot kernel whose order is fixed by the length of
that axis; elsewhere it adds the terms one at a time in index order,
whichever axis runs innermost.  So curvature_from may run the second
kind with the point axis last.

The first kind has a fixed order too.  numpy's baseline build for
x86-64 (X86_V2: SSE up to 4.2, no FMA) runs float64
``sum_of_products_contig_contig_outstride0_two`` on vectors of two
lanes, each starting from +0.0.  Lane 0 adds the products of the even
positions of the summed axis and lane 1 those of the odd ones, each in
index order, except that while eight or more terms remain each block
of eight is added as the pairs (6, 7), (4, 5), (2, 3), (0, 1); the
tail is loaded with zeros past its end.  The result is lane 0 plus lane 1.
So curvature_from runs these contractions point last too: the summed
axis, padded with a zero to even length and its pairs put in that
order, is split into (h, lane), einsum adds over h in index order, and
the two lanes are added last.  A numpy whose kernels break one of
these facts fails here by the name of the contraction, before it moves
the bytes of a CSV report.  A baseline with FMA would fuse the
multiply and the add, and moves both the point-first bits and the
lane form's.
"""

import numpy as np
import pytest

from solitonlab.curvature import _kernel_order

# The contractions that curvature_from runs with the point axis last,
# on every stack and on one point as a stack of one, in their
# point-first form.
POINT_LAST = [
    "...la,...iab,...bm->...ilm",
    "...aam,...mkj->...akj",
    "...akm,...maj->...akj",
    "...akj->...kj",
]

# Dot-kernel contractions as the full-tensor pass writes them, and with
# their operands swapped, or the second operand copied with its first
# two index axes swapped: neither moves the kernel's bits.
REWRITTEN = [
    ("...kl,...ijl->...kij", "...ijl,...kl->...kij", "swap"),
    ("...aam,...kjm->...akj", "...kjm,...aam->...akj", "swap"),
    ("...kam,...ajm->...akj", "...ajm,...kam->...akj", "swap"),
    ("...am,...kajm->...akj", "...am,...akjm->...akj", "copy"),
]

# The dot-kernel contractions of curvature_from in their point-first
# form, each with the (h, lane) form it runs: gamma, then the two
# halves of E and of d_k.
LANES = [
    ("...ijl,...kl->...kij", "ijhc...,khc...->kijc..."),
    ("...kjm,...aam->...akj", "kjhc...,aahc...->akjc..."),
    ("...am,...akjm->...akj", "ahc...,akjhc...->akjc..."),
    ("...ajm,...kam->...akj", "ajhc...,kahc...->akjc..."),
    ("...am,...kajm->...akj", "ahc...,kajhc...->akjc..."),
]

POINTS = (1, 2, 3, 4, 5, 6, 17, 150)
SIZES = [(n, p) for n in (2, 3, 4, 5) for p in POINTS]


def _stack(rng, p, n, rank):
    shape = (p,) + (n,) * rank
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    roll = rng.random(shape)
    x[roll < 0.1] = 0.0
    x[roll > 0.9] = -0.0
    return x


def _operands(rng, spec, p, n):
    inputs = spec.split("->")[0].split(",")
    return [_stack(rng, p, n, len(term.replace("...", ""))) for term in inputs]


def _point_last(a):
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


@pytest.mark.parametrize("spec", POINT_LAST)
def test_point_last_contractions_keep_the_point_first_bits(spec):
    inputs, output = spec.replace("...", "").split("->")
    last = ",".join(term + "..." for term in inputs.split(","))
    last += "->" + output + "..."
    rng = np.random.default_rng(16)
    for n, p in SIZES:
        operands = _operands(rng, spec, p, n)
        want = np.einsum(spec, *operands)
        got = np.moveaxis(np.einsum(last, *map(_point_last, operands)), -1, 0)
        assert got.tobytes() == want.tobytes(), (
            f"{last} moved the bits of {spec} at n={n}, P={p}")


@pytest.mark.parametrize("spec, rewritten, how", REWRITTEN)
def test_rewritten_dot_contractions_keep_their_bits(spec, rewritten, how):
    rng = np.random.default_rng(17)
    for n, p in SIZES:
        a, b = _operands(rng, spec, p, n)
        want = np.einsum(spec, a, b)
        if how == "swap":
            got = np.einsum(rewritten, b, a)
        else:
            got = np.einsum(rewritten, a, b.swapaxes(-4, -3).copy())
        assert got.tobytes() == want.tobytes(), (
            f"{rewritten} moved the bits of {spec} at n={n}, P={p}")


def _pair_order(n):
    """The pairs of a summed axis of length n, padded to even, in the
    order the kernel adds them."""
    full = 4 * (n // 8)
    blocks = [b + r for b in range(0, full, 4) for r in (3, 2, 1, 0)]
    return blocks + list(range(full, (n + 1) // 2))


def _lane_operand(x, n):
    """A point-first operand summed over its last axis, point last as
    (..., h, lane, P): zero padded to even length, pairs in the
    kernel's order."""
    last = _point_last(x)
    padded = np.zeros(last.shape[:-2] + (n + n % 2, last.shape[-1]))
    padded[..., :n, :] = last
    pairs = padded.reshape(last.shape[:-2] + (-1, 2, last.shape[-1]))
    return np.ascontiguousarray(pairs[..., _pair_order(n), :, :])


def _lane_sum(lanes, operands, n):
    pair = np.einsum(lanes, *(_lane_operand(x, n) for x in operands))
    return np.moveaxis(pair[..., 0, :] + pair[..., 1, :], -1, 0)


def test_the_package_adds_the_pairs_in_the_kernels_order():
    for n in range(1, 14):
        order = _kernel_order(n)
        got = list(range((n + 1) // 2)) if order is None else order.tolist()
        assert got == _pair_order(n), n


@pytest.mark.parametrize("spec, lanes", LANES)
def test_the_lane_form_keeps_the_dot_kernel_bits(spec, lanes):
    rng = np.random.default_rng(18)
    for n in range(1, 14):
        for p in POINTS:
            operands = _operands(rng, spec, p, n)
            want = np.einsum(spec, *operands)
            got = _lane_sum(lanes, operands, n)
            assert got.tobytes() == want.tobytes(), (
                f"{lanes} moved the bits of {spec} at n={n}, P={p}")


@pytest.mark.parametrize("spec, lanes", LANES)
def test_the_lane_form_keeps_the_dot_kernel_values_past_overflow(spec, lanes):
    # The sign of a NaN may differ, but a report prints every NaN as
    # nan; every other entry keeps its bits.
    rng = np.random.default_rng(19)
    for n in range(1, 14):
        for p in POINTS:
            operands = _operands(rng, spec, p, n)
            for x in operands:
                roll = rng.random(x.shape)
                x[roll < 0.02] = np.inf
                x[roll > 0.98] = -np.inf
                x[np.abs(roll - 0.5) < 0.01] = np.nan
            with np.errstate(invalid="ignore", over="ignore"):
                want = np.einsum(spec, *operands)
                got = _lane_sum(lanes, operands, n)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), (n, p)
            assert got[~nan].tobytes() == want[~nan].tobytes(), (
                f"{lanes} moved the values of {spec} at n={n}, P={p}")
