"""Second-order forward-mode differentiation of scalar fields.

eval_jet2 walks an expression tree once and propagates (value,
gradient, hessian) triples, so every mixed partial up to order two
comes out in a single evaluation.  The walk carries a leading point
axis: over a (P, n) stack of points it propagates values (P,),
gradients (P, n) and hessians (P, n, n), so a tree is walked once per
grid, not once per point (vectorised forward-mode Taylor propagation,
Griewank and Walther, Evaluating Derivatives, 2nd ed.).  A single
point (n,) is the P = 1 case of the same walk.  Each point's numbers
are the ones a walk at that point alone would give, bit for bit:
elementwise numpy arithmetic and the exp/ln/sin/cos/sqrt ufuncs round
as their scalar forms do, constant powers, whose array form would not,
are evaluated point by point, and an Integral reads its running
integrals once over the points, each with the bits of its time alone
(see expressions.Integral).

walk_jets evaluates the jets of several fields on one chart, such as
the components of a metric, in two steps.  It first numbers their
trees by value numbering (Griewank and Walther, ch. 5-6): each
distinct node becomes one entry of a tape and is evaluated once,
however many components and places within them it appears in.  Nodes
are interned by the identity rule in the expressions docstring, so a
distinct node is a structurally distinct subtree, and the rule merges
no two computations whose bits could differ: a subtree met twice has
the bits a second walk of it would give.

It then evaluates the tape level by level (level scheduling of the
forward-mode graph).  An entry's level is one more than the highest
level of its children, so the entries of one level depend only on
lower ones, and those of one level and one kind go through their rule
together: one numpy call per step of the rule for the whole batch, not
one per entry.  Every rule is elementwise arithmetic or a ufunc, so
stacking entries, or ordering them, changes no bits.  The jets live in
one slot buffer, one row per jet with the point axis last.  The
schedule is planned batch by batch (_schedule): each batch's jets get
one run of consecutive rows, which its rule writes in place, and a
row is reused once the last reader of its jet has run, so the buffer
holds only the jets live at once.  A rule may so write over the
operands it reads for the last time.  It reads what it needs of them
into temporaries first, then writes its jets' hessians and gradients,
and their values last (_chain, _mul_rule); a rule of one numpy call
(neg, add, sub) reads its input as if copied first.  eval_jet2 is the
walk of one field.

The hessian produced by eval_jet2 is symmetric bit-for-bit: every rule
below fills H[i, j] and H[j, i] from the same commutative float sums.

Domain rules.  The jet of each primitive but sqrt reads its guard from
_CALLS, the table plain evaluation reads, so both apply one rule:

    exp(x)    DomainError for x > log(DBL_MAX) (EXP_ARG_MAX) in both
    ln(x)     DomainError for x <= 0 in both
    sin(x),   DomainError for x = +-inf in both, with plain
    cos(x)    evaluation's message ("sin of an infinite argument")
    sqrt(x)   plain evaluation accepts x >= 0 (sqrt(0) = 0); the jet
              needs x > 0, since the first derivative is infinite at 0
    x^c       c a constant.  Both refuse x = 0 for c < 0 and x < 0 for
              fractional c.  For fractional 0 < c < 2 plain evaluation
              accepts x = 0 (0^c = 0); the jet needs x > 0, since a
              derivative of x^c is infinite at 0.  For fractional
              c > 2 the jet at 0 is (0, 0, 0).

Over a stack, a walk fails at the first point where any check fails,
and names the check that a walk of that point alone meets first, as a
loop over the points would: "division by zero at [0.0, 1.0]".  The
checks are each entry's domain check and each field's check for finite
entries, which sits where the field's entries end on the tape.  The
batched walk finds that point and that check from the masks of its
checks in one pass.  Points past it, or failed upstream of a power or
an integral, are not passed to that power or integral.  A running
integral's DomainError names the first time whose integral fails (its
``index``), so it fails at the point a loop would; any other error it
raises leaves the walk as it is.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, _Record
from .expressions import (
    _CALLS,
    Add,
    Call,
    Const,
    Div,
    Integral,
    Mul,
    Neg,
    Node,
    Pow,
    ScalarField,
    Sub,
    Var,
    _pow_value,
)

__all__ = ["Jet2", "eval_jet2", "walk_jets"]


class Jet2(_Record):
    """Value, gradient and hessian of a scalar field at one point
    (float, (n,), (n, n)), or stacked along a leading point axis
    ((P,), (P, n), (P, n, n)).  Frozen; equal only to itself."""

    __slots__ = ("value", "gradient", "hessian")


# Entries times points per batch.  A batch's temporaries are a few
# arrays of its own jets (the hessian terms are (entries, n*n, P)
# each) on top of the slot buffer, so a batch takes at most
# max(1, BATCH_POINTS // P) entries.  That is 16 on the 36 points of a
# deep 3d metric job, enough to spread numpy's per-call cost over a
# wide level while the temporaries stay a fraction of the buffer, and
# 1 on grids of BATCH_POINTS points or more, where each call is large
# enough already.
BATCH_POINTS = 576


class _Batch(NamedTuple):
    """Tape entries of one level and one kind, with the slot-buffer
    rows of their jets (``out``), one consecutive run, and of each
    operand's jets (``args``): a slice where the rows are consecutive,
    so that they are read as views, else an index array."""

    kind: type
    entries: list[int]
    out: slice
    args: list[slice | np.ndarray]


def _rows(slots: list[int]) -> slice | np.ndarray:
    """Rows ``slots`` of the slot buffer: a slice if they are
    consecutive, else an index array."""
    first = slots[0]
    if slots[-1] - first == len(slots) - 1 and (
            len(slots) < 3 or slots == list(range(first, first + len(slots)))):
        return slice(first, first + len(slots))
    return np.array(slots)


class _Tape:
    """The trees of one walk numbered into entries, one per distinct
    node, in the order a depth-first walk meets them: the entry's node
    and the tape numbers of its children (``args``).  As each entry is
    appended, numbering also records what _schedule reads of it: its
    level, 1 + the highest level of its children (0 for a leaf), and
    its group, the entries of one level and one kind in tape order.
    Call entries are grouped by function name too, and each Pow or
    Integral entry, which is evaluated with its own exponent or running
    integrals, is a group of its own."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.args: list[tuple[int, ...]] = []
        self.numbers: dict[Node, int] = {}
        self.levels: list[int] = []
        self.groups: list[dict] = [{}]

    def number(self, node: Node) -> int:
        """The tape number of ``node``, appending its entry, after those
        of its children, the first time the walk meets it."""
        k = self.numbers.get(node)
        return self._append(node) if k is None else k

    def _append(self, node: Node) -> int:
        numbers, levels = self.numbers, self.levels
        kids = node.kids
        if kids:
            a = numbers.get(kids[0])
            if a is None:
                a = self._append(kids[0])
            level = levels[a] + 1
            if len(kids) == 1:
                args = (a,)
            else:
                b = numbers.get(kids[1])
                if b is None:
                    b = self._append(kids[1])
                args = (a, b)
                if levels[b] >= level:
                    level = levels[b] + 1
        else:
            args, level = (), 0
        k = numbers[node] = len(levels)
        self.nodes.append(node)
        self.args.append(args)
        levels.append(level)
        if level == len(self.groups):
            self.groups.append({})
        kind = type(node)
        if kind is Call:
            kind = node.func
        elif kind is Pow or kind is Integral:
            kind = k
        group = self.groups[level].get(kind)
        if group is None:
            self.groups[level][kind] = [k]
        else:
            group.append(k)
        return k


def _first_run(free: int, m: int, size: int) -> int:
    """The first of the lowest ``m`` consecutive rows set in the bit
    mask ``free`` of the ``size`` rows of the slot buffer; else the
    first of the free rows at its top, with which the run grows it."""
    runs, k = free, 1
    while k < m:
        # A bit of runs is set where k free rows start; then k + s.
        s = min(k, m - k)
        runs &= runs >> s
        k += s
    if runs:
        return (runs & -runs).bit_length() - 1
    return (~free & ((1 << size) - 1)).bit_length()


def _schedule(tape: _Tape, roots: list[int],
              points: int) -> tuple[list[_Batch], list[int], int]:
    """The tape in batches, the slot of each entry's jet, and the
    number of slots.

    A batch holds entries of one of the tape's groups, as many as
    BATCH_POINTS allows over ``points`` points, so it reads only jets
    of lower levels.  Batches run level by level, and within a level in
    the order of their groups' first tape entries.  The plan is made in
    two passes over the batches:

    - top down, each group is ordered by when its entries' jets are
      last read, and each jet is set to die at its last reader.  The
      jets one batch reads, and those read last together, then sit
      side by side;
    - bottom up, each batch's jets get one run of consecutive slots,
      the lowest free one once the slots of the jets that die at the
      batch are freed.  A rule writes its batch in place, so it may
      write over operands that it reads for the last time: each rule
      reads all it needs of its operands before it writes (see the
      module docstring).  The roots' jets never die, so there are
      about as many slots as jets live at once at the peak.
    """
    args = tape.args
    width = max(1, BATCH_POINTS // max(points, 1))
    position = len(args)
    last = [-1] * position
    for k in roots:
        last[k] = position
    plan = []
    for level in reversed(tape.groups):
        batches = []
        for group in level.values():
            group.sort(key=last.__getitem__)
            batches += [group[start:start + width]
                        for start in range(0, len(group), width)]
        for batch in reversed(batches):
            dying = []
            for k in reversed(batch):
                position -= 1
                for a in args[k]:
                    if last[a] < 0:
                        last[a] = position
                        dying.append(a)
            plan.append((batch, dying))
    slot = [0] * len(args)
    free = size = 0
    batches = []
    for batch, dying in reversed(plan):
        for a in dying:
            free |= 1 << slot[a]
        m = len(batch)
        start = _first_run(free, m, size)
        free &= ~(((1 << m) - 1) << start)
        end = start + m
        size = max(size, end)
        for k in batch:
            slot[k] = start
            start += 1
        arity = len(args[batch[0]])
        if arity == 2:
            rows = [_rows([slot[args[k][0]] for k in batch]),
                    _rows([slot[args[k][1]] for k in batch])]
        elif arity == 1:
            rows = [_rows([slot[args[k][0]] for k in batch])]
        else:
            rows = []
        batches.append(_Batch(type(tape.nodes[batch[0]]), batch,
                              slice(end - m, end), rows))
    return batches, slot, size


class _Walk:
    """The state of one walk: its points, the tape's nodes, its slot
    buffer and its first failing check.

    A slot holds one jet with the point axis last, (1 + n + n*n, P):
    the value, the gradient, then the hessian row by row.  Every step
    of a rule then runs along contiguous runs of P values, however
    many entries its batch holds and however the gradient and hessian
    terms broadcast.

    A check of tape entry k sits at position 2k, the finiteness check
    of a field whose tape ends before entry e at 2e - 1, so positions
    follow tape order.  Of all failing checks, the walk reports the one
    at the first point, and at that point the first in tape order, by
    keeping the least (point, position).  That is the failure a walk
    point by point meets first.  A rule still runs at the points where
    its check fails.  What it computes there, and downstream from
    there, can only fail checks later in tape order at those points,
    and the walk fails in any case.
    """

    def __init__(self, points: np.ndarray, chart: Sequence[str],
                 nodes: list[Node], size: int) -> None:
        p, n = points.shape
        self.points = points
        self.n = n
        self.chart = chart
        self.nodes = nodes
        # Zeros, since a leaf writes only its nonzero entries: level 0
        # runs before any slot is freed, so its slots are fresh.
        self.jets = np.zeros((size, 1 + n + n * n, p))
        self.failure: tuple[int, int, str, bool] | None = None

    def fail(self, point: int, position: int, message: str,
             located: bool = True) -> None:
        """Record a check that fails first at ``point``.  A located
        message is completed with the point's coordinates."""
        if self.failure is None or (point, position) < self.failure[:2]:
            self.failure = (point, position, message, located)

    def check(self, bad: np.ndarray, entries: list[int], message: str) -> None:
        """Record the checks of ``entries`` that fail where ``bad``
        (B, P) holds."""
        if bad.any():
            for b in np.flatnonzero(bad.any(axis=1)).tolist():
                self.fail(int(bad[b].argmax()), 2 * entries[b], message)

    def open_points(self, position: int) -> int:
        """How many leading points can still fail first at a check at
        ``position``: those before the first failing point, and that
        point too if its failure comes later in tape order.  The
        others either failed upstream, so that their values are not
        the true ones, or cannot change which failure is reported."""
        if self.failure is None:
            return len(self.points)
        point, first = self.failure[:2]
        return point + (position < first)


def _parts(jets: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value (B, P), gradient (B, n, P) and hessian (B, n*n, P) views
    of stacked jets (B, 1 + n + n*n, P)."""
    return jets[:, 0], jets[:, 1:n + 1], jets[:, n + 1:]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i b_j of gradients (B, n, P), as (B, n, n, P)."""
    return a[:, :, None] * b[:, None, :]


def _chain(u: np.ndarray, f0: np.ndarray, f1: np.ndarray, f2: np.ndarray,
           out: np.ndarray, n: int) -> None:
    """Jets of F(u) into ``out``, given F, F', F'' (B, P) at u's values:
    F' u_i and F' u_ij + F'' u_i u_j, F' times u's gradient and hessian
    in one product.  Everything read of u goes into temporaries first;
    then the hessian is written, as the sum of the two terms, the
    gradient copied, and F written into the values.  So ``out`` may
    overlap u."""
    g = u[:, 1:n + 1]
    terms = f1[:, None] * u[:, 1:]
    curved = _outer(g, g)
    curved *= f2[:, None, None]
    hessian = out[:, n + 1:]
    np.add(terms[:, n:], curved.reshape(hessian.shape), out=hessian)
    out[:, 1:n + 1] = terms[:, :n]
    out[:, 0] = f0


def _mul_rule(batch: _Batch, walk: _Walk, out: np.ndarray, a: np.ndarray,
              b: np.ndarray) -> None:
    """(ab)_i = a b_i + b a_i and (ab)_ij = a b_ij + b a_ij + (a_i b_j
    + a_j b_i), the first two terms of both in one pass over the
    gradient and the hessian.  Everything read of a and b goes into
    temporaries first; then the hessian is written, as the sum of its
    terms, the gradient copied, and ab written into the values.  So
    ``out`` may overlap a and b."""
    n = walk.n
    terms = a[:, :1] * b[:, 1:]
    terms += b[:, :1] * a[:, 1:]
    ab = _outer(a[:, 1:n + 1], b[:, 1:n + 1])
    hessian = out[:, n + 1:]
    np.add(terms[:, n:], (ab + ab.swapaxes(1, 2)).reshape(hessian.shape),
           out=hessian)
    out[:, 1:n + 1] = terms[:, :n]
    np.multiply(a[:, 0], b[:, 0], out=out[:, 0])


def _const_rule(batch: _Batch, walk: _Walk, out: np.ndarray) -> None:
    out[:, 0] = np.array([walk.nodes[k].value for k in batch.entries])[:, None]


def _var_rule(batch: _Batch, walk: _Walk, out: np.ndarray) -> None:
    for jet, k in zip(out, batch.entries):
        axis = walk.chart.index(walk.nodes[k].name)
        jet[0] = walk.points[:, axis]
        jet[1 + axis] = 1.0


def _neg_rule(batch: _Batch, walk: _Walk, out: np.ndarray, u: np.ndarray) -> None:
    np.negative(u, out=out)


def _add_rule(batch: _Batch, walk: _Walk, out: np.ndarray, a: np.ndarray,
              b: np.ndarray) -> None:
    np.add(a, b, out=out)


def _sub_rule(batch: _Batch, walk: _Walk, out: np.ndarray, a: np.ndarray,
              b: np.ndarray) -> None:
    np.subtract(a, b, out=out)


def _div_rule(batch: _Batch, walk: _Walk, out: np.ndarray, num: np.ndarray,
              den: np.ndarray) -> None:
    x = den[:, 0]
    walk.check(x == 0.0, batch.entries, "division by zero")
    w = 1.0 / x
    recip = np.empty_like(den)
    _chain(den, w, -w * w, 2.0 * w * w * w, recip, walk.n)
    _mul_rule(batch, walk, out, num, recip)


def _call_rule(batch: _Batch, walk: _Walk, out: np.ndarray, u: np.ndarray) -> None:
    func = walk.nodes[batch.entries[0]].func
    x = u[:, 0]
    n = walk.n
    if func == "sqrt":
        refused, message = x <= 0.0, "sqrt jet needs a positive argument"
    else:
        _, refuses, message = _CALLS[func]
        refused = refuses(x)
    walk.check(refused, batch.entries, message)
    if func == "exp":
        e = np.exp(x)
        _chain(u, e, e, e, out, n)
    elif func == "ln":
        _chain(u, np.log(x), 1.0 / x, -1.0 / (x * x), out, n)
    elif func == "sin":
        s, c = np.sin(x), np.cos(x)
        _chain(u, s, c, -s, out, n)
    elif func == "cos":
        s, c = np.sin(x), np.cos(x)
        _chain(u, c, -s, -c, out, n)
    else:
        r = np.sqrt(x)
        _chain(u, r, 0.5 / r, -0.25 / (x * r), out, n)


def _pointwise(terms: Callable[[float], Sequence[float]], u: np.ndarray,
               walk: _Walk, k: int) -> np.ndarray:
    """``terms(x)`` for each value of the one-entry batch ``u`` of tape
    entry ``k``, called point by point; returns one (1, P) row per
    term.  Only the open points (_Walk.open_points) are called, up to
    the first that raises a DomainError; the others get zeros."""
    rows = []
    for i, x in enumerate(u[0, 0, :walk.open_points(2 * k)].tolist()):
        try:
            rows.append(terms(x))
        except DomainError as exc:
            walk.fail(i, 2 * k, str(exc))
            break
    columns = np.zeros((u.shape[-1], 3))
    if rows:
        columns[:len(rows)] = rows
    return columns.T[:, None]


def _pow_rule(batch: _Batch, walk: _Walk, out: np.ndarray, u: np.ndarray) -> None:
    c = walk.nodes[batch.entries[0]].exponent
    blows_up_at_zero = c < 2.0 and not float(c).is_integer()

    def terms(x: float) -> tuple[float, float, float]:
        f0 = _pow_value(x, c)
        if x == 0.0 and blows_up_at_zero:
            raise DomainError("fractional power jet needs a positive base")
        return f0, _pow_value(x, c - 1.0), _pow_value(x, c - 2.0)

    f0, p1, p2 = _pointwise(terms, u, walk, batch.entries[0])
    _chain(u, f0, c * p1, c * (c - 1.0) * p2, out, walk.n)


def _integral_rule(batch: _Batch, walk: _Walk, out: np.ndarray,
                   u: np.ndarray) -> None:
    """The value is the running integrals at the open points
    (_Walk.open_points) of the node's variable, zeros elsewhere; the
    variable's gradient entry is the integrand's value, and its hessian
    row and column the integrand's gradient.  A DomainError fails the
    walk at the first time whose integral failed, and the points before
    it, whose integrals the memo keeps, get their values."""
    k = batch.entries[0]
    node = walk.nodes[k]
    n = walk.n
    axis = walk.chart.index(node.var)
    times = walk.points[:walk.open_points(2 * k), axis]
    value = np.zeros(u.shape[-1])
    try:
        value[:len(times)] = node.running(times)
    except DomainError as exc:
        walk.fail(exc.index, 2 * k, str(exc))
        value[:exc.index] = node.running(times[:exc.index])
    slope, curve = u[0, 0].copy(), u[0, 1:n + 1].copy()
    out[...] = 0.0
    hessian = out[0, n + 1:].reshape(n, n, -1)
    hessian[axis] = hessian[:, axis] = curve
    out[0, 1 + axis] = slope
    out[0, 0] = value


_RULES = {
    Const: _const_rule, Var: _var_rule, Neg: _neg_rule, Add: _add_rule,
    Sub: _sub_rule, Mul: _mul_rule, Div: _div_rule, Call: _call_rule,
    Pow: _pow_rule, Integral: _integral_rule,
}


def _evaluate(batch: _Batch, walk: _Walk) -> None:
    """The jets of one batch, written in place to its run of slots."""
    jets = walk.jets
    _RULES[batch.kind](batch, walk, jets[batch.out],
                       *[jets[rows] for rows in batch.args])


def _walk_rows(fields: Sequence[ScalarField], points: np.ndarray) -> np.ndarray:
    """The jets of ``fields``, which share one chart, over a (P, n)
    stack of points, as one row per field (len(fields), 1 + n + n*n, P)
    laid out as a slot of the walk (see _Walk), point axis last.

    The trees are first numbered into a tape: one entry per distinct
    node, in the order a depth-first walk of the fields meets them.
    The tape is then evaluated level by level in batches (see
    _schedule), each through one pass of its rule, into a slot buffer
    that holds only the jets still to be used.
    Each field's jet is checked for finite entries.  An error names
    the first point of the stack at which any check fails, and the
    check that a walk of that point alone meets first (see _Walk).
    """
    chart = fields[0].chart
    if any(field.chart != chart for field in fields):
        raise ValueError("fields of one walk must share a chart")
    tape = _Tape()
    roots, ends = [], []
    for field in fields:
        roots.append(tape.number(field.root))
        ends.append(len(tape.args))
    batches, slot, size = _schedule(tape, roots, len(points))
    walk = _Walk(points, chart, tape.nodes, size)
    # A rule runs at every point, also where a check has failed or at
    # points past the first that fails, so numpy's floating-point
    # warnings would depend on the batching.  They are silenced: a
    # non-finite jet fails the check below, which names its point.
    with np.errstate(all="ignore"):
        for batch in batches:
            _evaluate(batch, walk)
    # Fields that share a root share its jet, and its finiteness check
    # is the one of the first such field, the earliest in tape order.
    first_field: dict[int, int] = {}
    for f, k in enumerate(roots):
        first_field.setdefault(slot[k], f)
    rows = list(first_field)
    jets = walk.jets[_rows(rows)]
    finite = np.isfinite(jets)
    if not finite.all():
        finite = finite.all(axis=1)
        for r in np.flatnonzero(~finite.all(axis=1)).tolist():
            walk.fail(int(finite[r].argmin()), 2 * ends[first_field[rows[r]]] - 1,
                      "jet evaluation produced a non-finite value")
    if walk.failure is not None:
        point, _, message, located = walk.failure
        if located:
            raise DomainError(f"{message} at {points[point].tolist()}", index=point)
        raise DomainError(message)
    if len(rows) == len(roots):
        return jets
    row_of = {row: r for r, row in enumerate(rows)}
    return jets[[row_of[slot[k]] for k in roots]]


def walk_jets(fields: Sequence[ScalarField], points: np.ndarray) -> list[Jet2]:
    """Jets of ``fields``, which share one chart, over a (P, n) stack of
    points, each structurally distinct subtree evaluated once: the rows
    of _walk_rows, each jet as arrays of its own, C-ordered, point axis
    first."""
    p, n = points.shape
    value, gradient, hessian = (part.swapaxes(1, -1).copy()
                                for part in _parts(_walk_rows(fields, points), n))
    hessian = hessian.reshape(len(fields), p, n, n)
    return [Jet2(value[r], gradient[r], hessian[r]) for r in range(len(fields))]


def eval_jet2(field: ScalarField, point: Sequence[float]) -> Jet2:
    """Exact value, gradient and hessian of ``field`` at ``point`` (n,),
    or stacked over the rows of a (P, n) array of points."""
    p = np.asarray(point, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != len(field.chart) or p.size == 0:
        raise ValueError(
            f"point has shape {p.shape}, chart has {len(field.chart)} names"
        )
    jet = walk_jets([field], np.atleast_2d(p))[0]
    if p.ndim == 2:
        return jet
    return Jet2(float(jet.value[0]), jet.gradient[0], jet.hessian[0])

