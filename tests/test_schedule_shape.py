"""The shape of the jet walk's schedule on the deep benchmark metrics.

Each batch's jets get one run of slots, so a rule writes them in place,
and an operand is read as a slice where its producers sit side by side.
On the walks of the first eight curvature-deep jobs (seed 401) the
schedule may hold no more batches, scattered outputs, operands gathered
through index arrays or slots than the level walk it replaced, which
had 352, 215, 370 and 582 of them.  _first_run, which places each
run, is checked against a search of every start.
"""

import random
import sys
from pathlib import Path

from solitonlab import autodiff, grid_points
from solitonlab.metrics import MetricField

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def _walk_schedules():
    for job in workloads.first_jobs("curvature-deep", 401, workloads.BLOCK):
        config = job.config
        metric = MetricField.from_rows(config["chart"], config["metric"],
                                       config["signature"])
        grid = {name: tuple(spec) for name, spec in config["grid"].items()}
        points = grid_points(metric.chart, grid)
        n = metric.dimension
        tape = autodiff._Tape()
        roots = [tape.number(metric.components[i][j].root)
                 for i in range(n) for j in range(i, n)]
        yield tape, roots, autodiff._schedule(tape, roots, len(points))


def test_the_deep_walks_schedule_no_wider_than_the_level_walk():
    batches = scattered = gathered = slots = 0
    for _, _, (plan, _, size) in _walk_schedules():
        batches += len(plan)
        scattered += sum(not isinstance(batch.out, slice) for batch in plan)
        gathered += sum(not isinstance(rows, slice)
                        for batch in plan for rows in batch.args)
        slots += size
    assert batches <= 352
    assert scattered <= 215
    assert gathered <= 370
    assert slots <= 582


def test_every_operand_row_holds_the_jet_its_batch_reads():
    # Replay the schedule, noting which entry's jet each slot holds: a
    # slot is written over only once no later batch reads its jet, and
    # the roots' jets are all held at the end.
    for tape, roots, (plan, slot, size) in _walk_schedules():
        held = [None] * size
        for batch in plan:
            for i, rows in enumerate(batch.args):
                read = range(size)[rows] if isinstance(rows, slice) else rows
                assert [held[r] for r in read] == [tape.args[k][i]
                                                  for k in batch.entries]
            out = range(size)[batch.out]
            assert len(out) == len(batch.entries)
            for row, k in zip(out, batch.entries):
                held[row] = k
        assert [held[slot[k]] for k in roots] == roots


def test_a_run_starts_at_the_lowest_free_rows_or_at_the_free_top():
    rng = random.Random(5)
    for _ in range(2000):
        size = rng.randint(0, 40)
        free = sum(1 << row for row in range(size) if rng.random() < 0.6)
        m = rng.randint(1, 12)
        fits = [start for start in range(size - m + 1)
                if all(free >> row & 1 for row in range(start, start + m))]
        top = size
        while top and free >> (top - 1) & 1:
            top -= 1
        assert autodiff._first_run(free, m, size) == (fits[0] if fits else top)
