"""The persistent-threads batched kernel of Figure 7, functionally.

The CUDA kernel receives the five auxiliary arrays and, per thread
block, walks its assigned tile slots: parse the GEMM the tile belongs
to, its coordinates and its tiling strategy, then run the Figure 2 tile
loop.  ``execute_schedule`` performs exactly that walk in NumPy,
producing the numerical result of the whole batched GEMM.  Because it
consumes the same arrays the device would, it validates the schedule
end to end.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.problem import GemmBatch, validate_operands
from repro.core.schedule import BatchSchedule
from repro.core.tiling import strategy_by_index
from repro.kernels.tiled import compute_tile, thread_level_tile
from repro.telemetry import get_tracer


def execute_schedule(
    schedule: BatchSchedule,
    batch: GemmBatch,
    operands: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    thread_level: bool = False,
) -> list[np.ndarray]:
    """Execute a batch schedule numerically; returns the C results.

    Inputs are not modified.  Raises ``IndexError`` for an out-of-range
    GEMM or strategy id, and ``ValueError`` when operand shapes do not
    match the batch, or when the schedule does not cover every output
    element exactly once (a schedule-construction bug).
    """
    tracer = get_tracer()
    with tracer.span(
        "execute.schedule",
        blocks=schedule.num_blocks,
        tiles=schedule.num_tiles,
        thread_level=thread_level,
    ):
        tracer.counter("tiles_executed", schedule.num_tiles)
        return _execute_schedule(schedule, batch, operands, thread_level)


def _execute_schedule(
    schedule: BatchSchedule,
    batch: GemmBatch,
    operands: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    thread_level: bool = False,
) -> list[np.ndarray]:
    validate_operands(batch, operands)

    outputs = [np.zeros((g.m, g.n), dtype=op[2].dtype) for g, op in zip(batch, operands)]
    coverage = [np.zeros((g.m, g.n), dtype=np.int32) for g in batch]
    # op(A)/op(B) views, derived once per GEMM rather than per tile slot.
    op_views = [(g.op_a(op[0]), g.op_b(op[1])) for g, op in zip(batch, operands)]

    # Main loop over blocks, then tiles per block (Figure 7 lines 1-18).
    for block_id in range(schedule.num_blocks):
        begin = int(schedule.tile_offsets[block_id])
        end = int(schedule.tile_offsets[block_id + 1])
        for slot in range(begin, end):
            ind = int(schedule.gemm_ids[slot])
            if not 0 <= ind < len(batch):
                raise IndexError(f"gemm id {ind} out of range 0-{len(batch) - 1}")
            gemm = batch[ind]
            c = operands[ind][2]
            a, b = op_views[ind]
            strat = strategy_by_index(int(schedule.strategy_ids[slot]))
            ty = int(schedule.y_coords[slot])
            tx = int(schedule.x_coords[slot])
            y0 = ty * strat.by
            x0 = tx * strat.bx
            if thread_level:
                acc = thread_level_tile(a, b, y0, x0, strat)
            else:
                acc = compute_tile(a, b, y0, x0, strat.by, strat.bx, strat.bk)
            y_hi = min(y0 + strat.by, gemm.m)
            x_hi = min(x0 + strat.bx, gemm.n)
            valid = acc[: y_hi - y0, : x_hi - x0]
            outputs[ind][y0:y_hi, x0:x_hi] = (
                gemm.alpha * valid
                + gemm.beta * c[y0:y_hi, x0:x_hi].astype(np.float64)
            ).astype(c.dtype)
            coverage[ind][y0:y_hi, x0:x_hi] += 1

    for i, cov in enumerate(coverage):
        if not np.all(cov == 1):
            uncovered = int(np.sum(cov == 0))
            duplicated = int(np.sum(cov > 1))
            raise ValueError(
                f"schedule does not tile GEMM {i} exactly once: "
                f"{uncovered} elements uncovered, {duplicated} covered repeatedly"
            )
    return outputs
