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
first calls :func:`check_schedule`, which validates id ranges, tile
origins and exactly-once output coverage, with one difference-array
pass over the whole batch instead of a per-element counter walk, so a
lowered plan always tiles every output exactly once.  The compiled
engine (:mod:`repro.kernels.compiled`) runs the same check and
nothing else of this module's lowering.

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

from repro.core.problem import GemmBatch, validate_operands
from repro.core.schedule import BatchSchedule
from repro.core.tiling import ALL_BATCHED_STRATEGIES, BATCHED_BK, strategy_by_index
from repro.kernels.blas import ChunkLoop, chunk_ranges
from repro.kernels.memo import PlanMemo
from repro.telemetry import get_tracer


def _batch_token(batch: GemmBatch) -> tuple:
    """The batch identity a lowered plan is valid for (shapes only)."""
    return tuple((g.m, g.n, g.k, g.trans_a, g.trans_b) for g in batch)


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
    Raises ``IndexError`` for out-of-range GEMM or strategy ids, and
    ``ValueError`` for a tile origin outside its matrix or a schedule
    that does not tile some GEMM exactly once, with the reference
    walk's message.
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


#: Tile height and width of each batched strategy, by table index.
_BY = np.array([s.by for s in ALL_BATCHED_STRATEGIES], dtype=np.int64)
_BX = np.array([s.bx for s in ALL_BATCHED_STRATEGIES], dtype=np.int64)


def check_schedule(
    schedule: BatchSchedule, batch: GemmBatch
) -> tuple[np.ndarray, np.ndarray]:
    """Check that a schedule's slots tile every GEMM exactly once.

    Runs the reference walk's checks on the slot arrays, in one pass
    over the batch: raises ``IndexError`` for out-of-range GEMM or
    strategy ids, and ``ValueError`` for a tile origin outside its
    matrix or a schedule that does not tile some GEMM exactly once,
    with the walk's message for the first offending slot or GEMM.
    Returns each slot's element origin ``(y0, x0)`` as int64 arrays.
    """
    gemm_ids = schedule.gemm_ids.astype(np.int64)
    strat_ids = schedule.strategy_ids.astype(np.int64)
    n_gemms, n_strats = len(batch), len(ALL_BATCHED_STRATEGIES)
    # A trailing 0x0 matrix stands in for out-of-range GEMM ids.
    ms = np.array([g.m for g in batch] + [0], dtype=np.int64)
    ns = np.array([g.n for g in batch] + [0], dtype=np.int64)

    bad_gemm = (gemm_ids < 0) | (gemm_ids >= n_gemms)
    bad_strat = (strat_ids < 0) | (strat_ids >= n_strats)
    safe_g = np.where(bad_gemm, n_gemms, gemm_ids)
    safe_s = np.where(bad_strat, 0, strat_ids)
    y0 = schedule.y_coords.astype(np.int64) * _BY[safe_s]
    x0 = schedule.x_coords.astype(np.int64) * _BX[safe_s]
    m_of, n_of = ms[safe_g], ns[safe_g]
    negative = (y0 < 0) | (x0 < 0)
    bad = bad_gemm | bad_strat | negative | (y0 >= m_of) | (x0 >= n_of)
    if bad.any():
        # The reference walk's checks, for the first offending slot.
        i = int(np.argmax(bad))
        if bad_gemm[i]:
            raise IndexError(f"gemm id {gemm_ids[i]} out of range 0-{n_gemms - 1}")
        if bad_strat[i]:
            strategy_by_index(int(strat_ids[i]))  # raises the canonical IndexError
        if negative[i]:
            raise ValueError("tile origin must be non-negative")
        raise ValueError(
            f"tile origin ({y0[i]},{x0[i]}) outside matrix {m_of[i]}x{n_of[i]}"
        )
    y1 = y0 + _BY[strat_ids]
    x1 = x0 + _BX[strat_ids]
    _check_coverage(
        ms[:-1], ns[:-1], gemm_ids, y0, np.minimum(y1, m_of), x0, np.minimum(x1, n_of)
    )
    return y0, x0


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
        batch_token=_batch_token(batch),
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
    token = _batch_token(batch)
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
    if plan is None or plan.batch_token != _batch_token(batch):
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


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``values`` sorted, duplicates dropped (without bare ``np.unique``)."""
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _check_coverage(
    ms: np.ndarray,
    ns: np.ndarray,
    gemm_ids: np.ndarray,
    y0: np.ndarray,
    y1: np.ndarray,
    x0: np.ndarray,
    x1: np.ndarray,
) -> None:
    """Validate exactly-once output coverage in one pass over the batch.

    Each slot covers the element rectangle ``[y0, y1) x [x0, x1)`` of
    its GEMM ``g``, already clipped to the ``ms[g] x ns[g]`` matrix
    (origins were checked to lie inside it).  Coverage is counted on
    each GEMM's grid of its own distinct tile edges rather than of
    elements: GEMM ``g``'s row edges are keyed into a range of their
    own, and so are its column edges, so its grid is only as large as
    its own tiling needs, and the grids lie back to back in one flat
    row-major array.  A tile adds +1 at its left column and -1 at its
    right column in every grid row it spans; each row then sums to
    zero, so one flat cumulative sum restarts at every row by itself
    and gives each cell's coverage count.  The last column lies past
    ``n`` and counts zero, so the batch is tiled exactly once when the
    counts sum to the number of cells inside the matrices and no count
    exceeds one.  A cell's area weights it in the error message, which
    counts the elements of the first GEMM that fails, like the
    reference walk.
    """
    n_gemms = len(ms)
    # GEMM g's row edges are keyed into [start[g], start[g] + ms[g]] and
    # its column edges into [start[n_gemms + g], start[n_gemms + g] + ns[g]].
    start = np.concatenate(([0], np.cumsum(np.concatenate((ms, ns)) + 1)))
    corner_y, corner_x = start[gemm_ids], start[gemm_ids + n_gemms]
    corners = np.concatenate((y0 + corner_y, y1 + corner_y, x0 + corner_x, x1 + corner_x))
    edges = _sorted_distinct(np.concatenate((start, start[1:] - 1, corners)))
    # first[g] and first[n_gemms + g]: the ranks of GEMM g's first row
    # and first column edge.
    first = np.searchsorted(edges, start)
    r0, r1, c0, c1 = np.searchsorted(edges, corners).reshape(4, -1)
    ny, nx = np.diff(first[: n_gemms + 1]), np.diff(first[n_gemms:])
    # Cell (i, j) of GEMM g, for edge ranks i and j, sits at
    # base[g] + (i - first[g]) * nx[g] + (j - first[n_gemms + g]); the
    # last row edge, m, starts no row of cells.
    base = np.concatenate(([0], np.cumsum((ny - 1) * nx)))
    cells = int(base[-1])
    width = nx[gemm_ids]
    shift = base[:-1] - first[:n_gemms] * nx - first[n_gemms:-1]
    origin = shift[gemm_ids] + r0 * width + c0
    # One entry per (tile, grid row it spans).
    span = r1 - r0
    runs = np.cumsum(span)
    step = np.arange(span.sum()) - np.repeat(runs - span, span)
    left = np.repeat(origin, span) + step * np.repeat(width, span)
    right = left + np.repeat(c1 - c0, span)
    cov = (np.bincount(left, minlength=cells) - np.bincount(right, minlength=cells)).cumsum()
    # Non-negative integer counts are all 0 or 1 iff sum(c * c) == sum(c).
    inside = cells - int(ny.sum()) + n_gemms
    if cov.sum() == inside and cov @ cov == inside:
        return
    for gi in range(n_gemms):
        grid = cov[base[gi] : base[gi + 1]].reshape(ny[gi] - 1, nx[gi])[:, :-1]
        if (grid != 1).any():
            break
    ys = edges[first[gi] : first[gi + 1]]
    xs = edges[first[n_gemms + gi] : first[n_gemms + gi + 1]]
    area = np.outer(np.diff(ys), np.diff(xs))
    uncovered = int(area[grid == 0].sum())
    duplicated = int(area[grid > 1].sum())
    raise ValueError(
        f"schedule does not tile GEMM {gi} exactly once: "
        f"{uncovered} elements uncovered, {duplicated} covered repeatedly"
    )
