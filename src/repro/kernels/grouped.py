"""Grouped vectorized execution engine for batch schedules.

The reference executor (:mod:`repro.kernels.persistent`) walks the
five auxiliary arrays exactly like the CUDA kernel of Figure 7 -- one
Python iteration per tile slot, with per-tile staging buffers.  That
faithfulness is what makes it the *oracle*, but it also means the
interpreter overhead grows with the tile count: precisely the
per-problem dispatch cost the paper's batching exists to remove.

This module applies the paper's own insight to the host-side executor:
regroup many fine-grained work items into few homogeneous bulk
operations.  A :class:`BatchSchedule` is *lowered* once into a
:class:`GroupedPlan` -- tile slots bucketed by
``(gemm, strategy, interior/edge)`` -- and executed bulk-wise: since
a GEMM's groups jointly tile its whole C matrix, the per-tile
``(by, chunk, bx)`` products of every group collapse onto *windows of
one shared chunk-accumulated full product* ``sum_c A[:,c] @ B[c,:]``
(one BLAS call per ``BK`` chunk per GEMM, instead of one matmul per
tile slot per chunk; every Table-2 strategy has the same ``BK``,
:data:`~repro.core.tiling.BATCHED_BK`, so one product serves all of a
GEMM's groups).  Each group then gathers its windows into a
``(G, by, bx)`` stack, applies the alpha/beta epilogue as one
vectorized expression, and scatters the results back.  The lowering
first runs the schedule contract,
:func:`~repro.core.schedule.check_schedule`, which validates id
ranges, tile origins and exactly-once output coverage, with one
difference-array pass over the whole batch instead of a per-element
counter walk, so a lowered plan always tiles every output exactly
once.  The compiled engine (:mod:`repro.kernels.compiled`) runs the
same check and nothing of this module.

**Bit-exactness contract.**  The grouped engine produces outputs that
are bit-identical to :func:`repro.kernels.persistent.execute_schedule`.
Two properties make this possible:

* the K reduction keeps the reference's chunk order -- one product per
  ``BK`` chunk, accumulated in float64 in ascending ``k0`` order (a
  single full-K matmul would associate the sum differently and drift
  in the last bits);
* each chunk product is a dgemm, and a dgemm kernel computes every
  output element as the same ascending-``k`` FMA sequence over its
  row/column operands, whatever the surrounding matrix shape -- so the
  full-operand chunk product agrees element-for-element with the
  reference's staged per-tile products, interior and (zero-padded)
  edge tiles alike.  The loop lives in :mod:`repro.kernels.blas`,
  which calls dgemm directly: ``np.matmul`` would send a one-row or
  one-column product to gemv, which rounds differently.
  The equivalence test suite pins this property bitwise across all
  twelve Table-2 strategies, transposed operands, ragged edges, and
  one-row and one-column float64 GEMMs.

The lowered plan depends only on the schedule and the batch *shapes*
(never on operand data), so it is memoized per schedule in a bounded
weakref :class:`~repro.kernels.memo.PlanMemo`: schedules held by a
:class:`~repro.core.plancache.PlanCache` keep their grouped plan warm
and repeated serve executions skip re-lowering, while dropped
schedules release their plans instead of leaking them.  Lowering emits an ``execute.lower`` span and a
``grouped.groups_formed`` counter; each shared chunk product runs
under an ``execute.product`` span, and each group epilogue under an
``execute.group`` span with a ``grouped.tiles_per_matmul`` histogram
observation.

This module deliberately does not import
:mod:`repro.kernels.persistent` (and vice versa): either engine must
stay importable without the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.problem import GemmBatch, batch_signature, validate_operands
from repro.core.schedule import _BX, _BY, BatchSchedule, check_schedule
from repro.core.tiling import ALL_BATCHED_STRATEGIES, BATCHED_BK, strategy_by_index
from repro.kernels.blas import ChunkLoop, chunk_ranges
from repro.kernels.memo import PlanMemo
from repro.telemetry import get_tracer


@dataclass(frozen=True)
class TileGroup:
    """One homogeneous bucket of tile slots.

    All tiles in a group belong to the same GEMM, use the same tiling
    strategy, and are uniformly interior (fully inside the C matrix)
    or edge (clipped by the matrix boundary).  ``y0`` / ``x0`` hold
    the *element* origins of each tile, so the executor never touches
    the tile-grid coordinates again.
    """

    gemm_index: int
    strategy_index: int
    interior: bool
    y0: np.ndarray
    x0: np.ndarray

    @property
    def size(self) -> int:
        """Number of tiles gathered into this group's operand stacks."""
        return len(self.y0)


@dataclass(frozen=True)
class GroupedPlan:
    """A schedule lowered to bulk-executable tile groups."""

    num_tiles: int
    groups: tuple[TileGroup, ...]
    batch_token: tuple

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def interior_tiles(self) -> int:
        return sum(g.size for g in self.groups if g.interior)

    @property
    def edge_tiles(self) -> int:
        return sum(g.size for g in self.groups if not g.interior)


def lower_schedule(schedule: BatchSchedule, batch: GemmBatch) -> GroupedPlan:
    """Bucket a schedule's tile slots into homogeneous groups.

    Block boundaries are irrelevant to the numerical result (blocks
    only matter to the performance model), so the lowering flattens
    them away and sorts slots by ``(gemm, strategy, interior)``.
    Raises what :func:`~repro.core.schedule.check_schedule` raises.
    """
    tracer = get_tracer()
    with tracer.span(
        "execute.lower", tiles=schedule.num_tiles, gemms=len(batch)
    ) as span:
        plan = _lower(schedule, batch)
        tracer.counter("grouped.groups_formed", plan.num_groups)
        if span.enabled:
            span.set_attr("groups", plan.num_groups)
            span.set_attr("interior_tiles", plan.interior_tiles)
            span.set_attr("edge_tiles", plan.edge_tiles)
    return plan


def _lower(schedule: BatchSchedule, batch: GemmBatch) -> GroupedPlan:
    y0, x0 = check_schedule(schedule, batch)
    gemm_ids = schedule.gemm_ids.astype(np.int64)
    strat_ids = schedule.strategy_ids.astype(np.int64)
    n_strats = len(ALL_BATCHED_STRATEGIES)
    ms, ns = np.array([(g.m, g.n) for g in batch], dtype=np.int64).T
    interior = (y0 + _BY[strat_ids] <= ms[gemm_ids]) & (
        x0 + _BX[strat_ids] <= ns[gemm_ids]
    )

    # Composite bucket key; stable sort keeps slot order within a group.
    key = (gemm_ids * n_strats + strat_ids) * 2 + interior
    order = np.argsort(key, kind="stable")
    groups: list[TileGroup] = []
    uniq, starts = np.unique(key[order], return_index=True)
    bounds = list(starts) + [len(order)]
    for u, begin, end in zip(uniq, bounds[:-1], bounds[1:]):
        sel = order[begin:end]
        gi_si, inter = divmod(int(u), 2)
        gi, si = divmod(gi_si, n_strats)
        groups.append(
            TileGroup(
                gemm_index=gi,
                strategy_index=si,
                interior=bool(inter),
                y0=y0[sel],
                x0=x0[sel],
            )
        )
    return GroupedPlan(
        num_tiles=schedule.num_tiles,
        groups=tuple(groups),
        batch_token=batch_signature(batch),
    )


#: Bounded memo of lowered plans (weakref-keyed; see ``memo.py``).
_GROUPED_MEMO = PlanMemo(capacity=256, name="grouped")


def grouped_plan_for(schedule: BatchSchedule, batch: GemmBatch) -> GroupedPlan:
    """The memoized grouped plan of a schedule.

    Plans are held in a bounded weakref
    :class:`~repro.kernels.memo.PlanMemo` keyed by schedule identity,
    one entry per schedule, valid for the batch shapes it was lowered
    for: a schedule cached by the plan cache keeps its
    lowering warm, an evicted or dropped schedule releases it (earlier
    revisions stashed the plan as a schedule attribute, which leaked
    lowered plans for as long as the schedule lived and kept no bound
    or stats).  Two threads racing on a cold schedule both lower and
    the later ``put`` wins -- the plans are identical, mirroring the
    plan cache's plan-outside-the-lock policy.
    """
    token = batch_signature(batch)
    cached = _GROUPED_MEMO.get(schedule, token)
    if cached is not None:
        return cached
    return _GROUPED_MEMO.put(schedule, token, lower_schedule(schedule, batch))


def grouped_memo_stats():
    """Hit/miss/eviction counters of the grouped-plan memo."""
    return _GROUPED_MEMO.stats_snapshot()


def clear_grouped_memo() -> None:
    """Drop every memoized grouped plan (tests, long-lived processes)."""
    _GROUPED_MEMO.clear()


def execute_grouped(
    schedule: BatchSchedule,
    batch: GemmBatch,
    operands: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    plan: GroupedPlan | None = None,
) -> list[np.ndarray]:
    """Execute a batch schedule through its grouped lowering.

    Drop-in for :func:`repro.kernels.persistent.execute_schedule`
    (bit-identical outputs; inputs are not modified; raises
    ``ValueError`` on operand-shape mismatches or when the schedule
    does not cover every output element exactly once -- the lowering
    checks coverage).  ``plan`` optionally supplies a pre-lowered plan
    (from :func:`lower_schedule`); by default the memoized lowering of
    the schedule is used.
    """
    tracer = get_tracer()
    with tracer.span(
        "execute.grouped",
        blocks=schedule.num_blocks,
        tiles=schedule.num_tiles,
    ):
        tracer.counter("tiles_executed", schedule.num_tiles)
        return _execute_grouped(schedule, batch, operands, plan)


def _execute_grouped(
    schedule: BatchSchedule,
    batch: GemmBatch,
    operands: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    plan: GroupedPlan | None,
) -> list[np.ndarray]:
    validate_operands(batch, operands)
    if plan is None or plan.batch_token != batch_signature(batch):
        plan = grouped_plan_for(schedule, batch)

    tracer = get_tracer()
    outputs = [np.zeros((g.m, g.n), dtype=op[2].dtype) for g, op in zip(batch, operands)]

    by_gemm: dict[int, list[TileGroup]] = {}
    for group in plan.groups:
        by_gemm.setdefault(group.gemm_index, []).append(group)

    for gi, groups in by_gemm.items():
        gemm = batch[gi]
        a, b, c = operands[gi]
        # Float64 op(A)/op(B) copies: the float32 -> float64 widening is
        # exact, so this matches the reference's per-chunk staging casts
        # bit for bit.
        a64 = np.ascontiguousarray(gemm.op_a(a), dtype=np.float64)
        b64 = np.ascontiguousarray(gemm.op_b(b), dtype=np.float64)

        # One shared chunk-accumulated full product: every Table-2
        # strategy has the same BK, so every tile of every group reads
        # its window from it.
        with tracer.span(
            "execute.product", gemm=gi, bk=BATCHED_BK, m=gemm.m, n=gemm.n, k=gemm.k
        ):
            acc = _chunk_product(a64, b64)

        for group in groups:
            strat = strategy_by_index(group.strategy_index)
            with tracer.span(
                "execute.group",
                gemm=gi,
                strategy=strat.name,
                interior=group.interior,
                tiles=group.size,
            ):
                tracer.histogram("grouped.tiles_per_matmul", group.size)
                _epilogue_group(group, gemm, acc, c, outputs[gi], strat)
    return outputs


def _chunk_product(a64: np.ndarray, b64: np.ndarray) -> np.ndarray:
    """``op(A) @ op(B)`` accumulated one BK chunk at a time.

    This is the K main loop of Figure 2 hoisted from per-tile staging
    buffers to the full operands: one BLAS call per BK chunk,
    accumulated in float64 in ascending chunk order
    (:mod:`repro.kernels.blas`).
    """
    acc = np.empty((a64.shape[0], b64.shape[1]), dtype=np.float64)
    ChunkLoop(acc, a64, b64, chunk_ranges(a64.shape[1], BATCHED_BK)).run()
    return acc


def _epilogue_group(
    group: TileGroup,
    gemm,
    acc_full: np.ndarray,
    c: np.ndarray,
    out: np.ndarray,
    strat,
) -> None:
    """Apply the alpha/beta epilogue over one group's tile windows."""
    by, bx = strat.by, strat.bx
    if group.interior:
        rows = group.y0[:, None, None] + np.arange(by, dtype=np.int64)[None, :, None]
        cols = group.x0[:, None, None] + np.arange(bx, dtype=np.int64)[None, None, :]
        acc = acc_full[rows, cols]  # (G, by, bx) windows of the product
        c_stack = c[rows, cols].astype(np.float64)
        out[rows, cols] = (gemm.alpha * acc + gemm.beta * c_stack).astype(c.dtype)
    else:
        y_hi = np.minimum(group.y0 + by, gemm.m)
        x_hi = np.minimum(group.x0 + bx, gemm.n)
        for i in range(group.size):
            y0, x0 = int(group.y0[i]), int(group.x0[i])
            yh, xh = int(y_hi[i]), int(x_hi[i])
            valid = acc_full[y0:yh, x0:xh]
            out[y0:yh, x0:xh] = (
                gemm.alpha * valid + gemm.beta * c[y0:yh, x0:xh].astype(np.float64)
            ).astype(c.dtype)
