"""The numpy facts the curvature pass relies on to keep its bits.

np.einsum without ``optimize`` sums each output entry term by term.
Where the summed index is the last, contiguous axis of two operands it
goes through a SIMD dot kernel whose order is fixed by the length of
that axis; elsewhere it adds the terms one at a time in index order,
whichever axis runs innermost.  So curvature_from may run the second
kind with the point axis last, and may reorder the operands of the
first kind or copy them to another layout, as long as the summed axis
stays last and contiguous in both.  A numpy whose kernels break one of
these facts fails here by the name of the contraction, before it moves
the bytes of a CSV report.
"""

import numpy as np
import pytest

# The contractions that curvature_from runs with the point axis last,
# on every stack and on one point as a stack of one, in their
# point-first form.
POINT_LAST = [
    "...la,...iab,...bm->...ilm",
    "...aam,...mkj->...akj",
    "...akm,...maj->...akj",
    "...akj->...kj",
]

# Dot-kernel contractions as the full-tensor pass wrote them, and as
# curvature_from writes them: operands swapped, or the second operand
# copied with its first two index axes swapped.
REWRITTEN = [
    ("...kl,...ijl->...kij", "...ijl,...kl->...kij", "swap"),
    ("...aam,...kjm->...akj", "...kjm,...aam->...akj", "swap"),
    ("...kam,...ajm->...akj", "...ajm,...kam->...akj", "swap"),
    ("...am,...kajm->...akj", "...am,...akjm->...akj", "copy"),
]

SIZES = [(n, p) for n in (2, 3, 4, 5) for p in (1, 2, 3, 4, 5, 6, 17, 150)]


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
