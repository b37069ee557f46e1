"""The programming interface's auxiliary arrays (paper Section 6).

A batching scheme -- any batching scheme -- is described by five
arrays (Figure 6):

* ``tile_offsets`` ("Tile"): length ``num_blocks + 1``; block ``b``
  executes the tile slots ``[tile_offsets[b], tile_offsets[b+1])``.
* ``gemm_ids`` ("GEMM"): per tile slot, which GEMM the tile belongs to.
* ``strategy_ids`` ("Tiling strategy"): per tile slot, the 0-11 index
  into the twelve batched tiling strategies of Table 2.
* ``y_coords`` / ``x_coords``: per tile slot, the tile's coordinates
  within its GEMM's tile grid.

The persistent-threads kernel (Figure 7) walks these arrays; our
functional executor :mod:`repro.kernels.persistent` does the same walk
in NumPy, and the cost model consumes the schedule via
:meth:`BatchSchedule.block_classes`: the launch's distinct block
compositions plus each block's class, which
:meth:`KernelLaunch.of_classes <repro.gpu.simulator.KernelLaunch.of_classes>`
hands to the simulator without regrouping.

The arrays hold no K: as the kernel reads K from the GEMM size array
(Figure 7 line 10), consumers that need it take the batch.
:func:`check_schedule` is the contract every schedule meets before it
runs, whoever built it; the engines run it, and
:func:`~repro.core.validation.validate_schedule` reports its faults.

The planner stays on integer arrays from the tiling decision to the
schedule: :func:`tile_columns` expands a decision into tile columns,
the batching heuristics order them (:mod:`repro.core.batching`), and
:func:`build_schedule` permutes and checks the columns.
:func:`enumerate_tiles` is the :class:`~repro.core.problem.Tile` list
view of the same columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batching import BatchingResult, TileColumns
from repro.core.precision import Precision, PrecisionLike
from repro.core.problem import GemmBatch, Tile
from repro.core.tiling import ALL_BATCHED_STRATEGIES, TilingDecision, strategy_by_index
from repro.gpu.costmodel import BlockWork, TileWork
from repro.telemetry import get_tracer


@dataclass(frozen=True, eq=False)
class BatchSchedule:
    """The five auxiliary arrays plus the kernel's unified footprint.

    Arrays are NumPy ``int32`` (mirroring what would be uploaded to the
    device).  ``threads_per_block`` is the unified block size;
    ``shared_memory_bytes`` and ``registers_per_thread`` are the maxima
    over every strategy the schedule uses -- a fused CUDA kernel has a
    single static footprint.

    Schedules compare by value (equal arrays and footprint) and are
    unhashable.
    """

    tile_offsets: np.ndarray
    gemm_ids: np.ndarray
    strategy_ids: np.ndarray
    y_coords: np.ndarray
    x_coords: np.ndarray
    threads_per_block: int
    shared_memory_bytes: int
    registers_per_thread: int

    def __post_init__(self) -> None:
        offsets = self.tile_offsets
        if offsets.ndim != 1 or len(offsets) < 2:
            raise ValueError("tile_offsets must be a 1-D array of length >= 2")
        if offsets[0] != 0:
            raise ValueError("tile_offsets must start at 0")
        if np.any(np.diff(offsets) <= 0):
            raise ValueError("tile_offsets must be strictly increasing (no empty blocks)")
        n_tiles = int(offsets[-1])
        for name, arr in (
            ("gemm_ids", self.gemm_ids),
            ("strategy_ids", self.strategy_ids),
            ("y_coords", self.y_coords),
            ("x_coords", self.x_coords),
        ):
            if arr.shape != (n_tiles,):
                raise ValueError(
                    f"{name} has shape {arr.shape}, expected ({n_tiles},) to match "
                    "tile_offsets"
                )

    @property
    def num_blocks(self) -> int:
        return len(self.tile_offsets) - 1

    @property
    def num_tiles(self) -> int:
        return int(self.tile_offsets[-1])

    def tiles_of_block(self, block_id: int, batch: GemmBatch) -> list[Tile]:
        """Decode the tiles assigned to one block (the Figure 7 walk).

        Each tile's K is its GEMM's K in ``batch``.
        """
        if not 0 <= block_id < self.num_blocks:
            raise IndexError(f"block_id {block_id} out of range 0-{self.num_blocks - 1}")
        begin = int(self.tile_offsets[block_id])
        end = int(self.tile_offsets[block_id + 1])
        gemm_ids = self.gemm_ids[begin:end]
        _check_gemm_ids(gemm_ids, len(batch))
        return [
            Tile(gemm_index=g, y=y, x=x, strategy_index=s, k=batch[g].k)
            for g, y, x, s in zip(
                gemm_ids.tolist(),
                self.y_coords[begin:end].tolist(),
                self.x_coords[begin:end].tolist(),
                self.strategy_ids[begin:end].tolist(),
            )
        ]

    def to_dict(self) -> dict:
        """Serialize the schedule (JSON-compatible).

        Real deployments cache plans keyed by batch signature; this is
        the persistence format: the five arrays and the fused
        footprint.
        """
        return {
            "tile_offsets": self.tile_offsets.tolist(),
            "gemm_ids": self.gemm_ids.tolist(),
            "strategy_ids": self.strategy_ids.tolist(),
            "y_coords": self.y_coords.tolist(),
            "x_coords": self.x_coords.tolist(),
            "threads_per_block": self.threads_per_block,
            "shared_memory_bytes": self.shared_memory_bytes,
            "registers_per_thread": self.registers_per_thread,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BatchSchedule":
        """Rebuild a schedule serialized by :meth:`to_dict`.

        Older payloads also carry a per-slot ``slot_k`` list; it is
        ignored, since K is read from the batch.
        """
        try:
            return cls(
                tile_offsets=np.asarray(data["tile_offsets"], dtype=np.int32),
                gemm_ids=np.asarray(data["gemm_ids"], dtype=np.int32),
                strategy_ids=np.asarray(data["strategy_ids"], dtype=np.int32),
                y_coords=np.asarray(data["y_coords"], dtype=np.int32),
                x_coords=np.asarray(data["x_coords"], dtype=np.int32),
                threads_per_block=int(data["threads_per_block"]),
                shared_memory_bytes=int(data["shared_memory_bytes"]),
                registers_per_thread=int(data["registers_per_thread"]),
            )
        except KeyError as exc:
            raise ValueError(f"serialized schedule missing field {exc}") from exc

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (
            self.tile_offsets,
            self.gemm_ids,
            self.strategy_ids,
            self.y_coords,
            self.x_coords,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BatchSchedule):
            return NotImplemented
        return all(map(np.array_equal, self._arrays(), other._arrays())) and (
            self.threads_per_block,
            self.shared_memory_bytes,
            self.registers_per_thread,
        ) == (
            other.threads_per_block,
            other.shared_memory_bytes,
            other.registers_per_thread,
        )

    __hash__ = None  # type: ignore[assignment]

    def block_classes(
        self, batch: GemmBatch, precision: PrecisionLike = "fp32"
    ) -> tuple[tuple[BlockWork, ...], tuple[int, ...]]:
        """Lower the schedule to cost-model block classes.

        Returns the distinct block compositions as :class:`BlockWork`
        objects, in first-issue order, and each block's index into
        them -- what :meth:`KernelLaunch.of_classes
        <repro.gpu.simulator.KernelLaunch.of_classes>` takes.  A ragged
        batch's ~100 blocks hold a handful of distinct compositions,
        and equal (strategy, K) tiles share one :class:`TileWork`.
        Each tile's K is its GEMM's K in ``batch``.

        Every tile runs with the full unified thread count (the unified
        thread structure leaves no idle threads); the block footprint is
        the schedule's fused-kernel footprint.  ``precision`` prices the
        kernel at FP32 (default) or half-width/Tensor-Core rates; the
        serialized footprint is stated at fp32 width, so the fused
        shared-memory allocation is rescaled to the storage width here
        (staging tiles are linear in element bytes) -- halving the
        footprint is what lets occupancy admit more fp16/bf16 blocks.
        """
        prec = Precision.coerce(precision)
        _check_gemm_ids(self.gemm_ids, len(batch))
        slot_k = np.array([g.k for g in batch], dtype=np.int64)[self.gemm_ids]
        # One integer per slot names its (strategy, K) pair: K < base.
        base = int(slot_k.max()) + 1
        keys = tuple((self.strategy_ids.astype(np.int64) * base + slot_k).tolist())
        bounds = self.tile_offsets.tolist()
        index: dict[tuple[int, ...], int] = {}
        class_of = tuple(
            [index.setdefault(keys[b:e], len(index)) for b, e in zip(bounds, bounds[1:])]
        )
        tiles = {
            key: TileWork(
                strategy=strategy_by_index(key // base),
                k=key % base,
                active_threads=self.threads_per_block,
                precision=prec,
            )
            for key in {key for composition in index for key in composition}
        }
        smem = self.shared_memory_bytes * prec.storage_bytes // 4
        classes = tuple(
            BlockWork(
                threads=self.threads_per_block,
                registers_per_thread=self.registers_per_thread,
                shared_memory_bytes=smem,
                tiles=tuple(map(tiles.__getitem__, composition)),
            )
            for composition in index
        )
        return classes, class_of


def _gemm_id_error(gemm_id: int, n_gemms: int) -> IndexError:
    return IndexError(f"gemm id {gemm_id} out of range 0-{n_gemms - 1}")


def _check_gemm_ids(gemm_ids: np.ndarray, n_gemms: int) -> None:
    """Raise the contract's error for the first GEMM id outside the batch."""
    if gemm_ids.size and (gemm_ids.min() < 0 or gemm_ids.max() >= n_gemms):
        bad = gemm_ids[(gemm_ids < 0) | (gemm_ids >= n_gemms)]
        raise _gemm_id_error(int(bad[0]), n_gemms)


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
    y0, x0, faults = _schedule_faults(schedule, batch)
    if faults:
        raise faults[0][1]
    return y0, x0


def _schedule_faults(
    schedule: BatchSchedule, batch: GemmBatch
) -> tuple[np.ndarray, np.ndarray, list[tuple[int | None, Exception]]]:
    """Each slot's element origin, and every fault, as ``(slot, error)`` pairs.

    The errors carry the reference walk's types and messages: each slot
    outside its matrix or the batch, in slot order, or else each GEMM
    not tiled exactly once, in batch order, with ``slot`` ``None``.
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
        faults: list[tuple[int | None, Exception]] = []
        for i in np.flatnonzero(bad).tolist():
            # The reference walk's checks, in its order.
            error: Exception
            if bad_gemm[i]:
                error = _gemm_id_error(int(gemm_ids[i]), n_gemms)
            elif bad_strat[i]:
                try:
                    strategy_by_index(int(strat_ids[i]))
                except IndexError as canonical:
                    error = canonical
            elif negative[i]:
                error = ValueError("tile origin must be non-negative")
            else:
                error = ValueError(
                    f"tile origin ({y0[i]},{x0[i]}) outside matrix {m_of[i]}x{n_of[i]}"
                )
            faults.append((i, error))
        return y0, x0, faults
    y1 = np.minimum(y0 + _BY[strat_ids], m_of)
    x1 = np.minimum(x0 + _BX[strat_ids], n_of)
    uncovered = _coverage_faults(ms[:-1], ns[:-1], gemm_ids, y0, y1, x0, x1)
    return y0, x0, [(None, error) for error in uncovered]


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``values`` sorted, duplicates dropped (without bare ``np.unique``)."""
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _coverage_faults(
    ms: np.ndarray,
    ns: np.ndarray,
    gemm_ids: np.ndarray,
    y0: np.ndarray,
    y1: np.ndarray,
    x0: np.ndarray,
    x1: np.ndarray,
) -> list[ValueError]:
    """Check exactly-once output coverage in one pass over the batch.

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
    exceeds one.  Returns one error per GEMM that fails, in batch
    order; a cell's area weights it in the message, which counts the
    GEMM's elements like the reference walk.
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
        return []
    faults = []
    for gi in range(n_gemms):
        grid = cov[base[gi] : base[gi + 1]].reshape(ny[gi] - 1, nx[gi])[:, :-1]
        if (grid == 1).all():
            continue
        ys = edges[first[gi] : first[gi + 1]]
        xs = edges[first[n_gemms + gi] : first[n_gemms + gi + 1]]
        area = np.outer(np.diff(ys), np.diff(xs))
        uncovered = int(area[grid == 0].sum())
        duplicated = int(area[grid > 1].sum())
        faults.append(
            ValueError(
                f"schedule does not tile GEMM {gi} exactly once: "
                f"{uncovered} elements uncovered, {duplicated} covered repeatedly"
            )
        )
    return faults


def _tile_grid(
    batch: GemmBatch, decision: TilingDecision
) -> tuple[np.ndarray, np.ndarray]:
    """Per GEMM, the ``(rows, cols)`` tile grid its strategy induces."""
    grid = np.array(
        [s.tiles_for(g) for g, s in zip(batch, decision.strategies)], dtype=np.int64
    ).reshape(-1, 2)
    return grid[:, 0], grid[:, 1]


def tile_columns(batch: GemmBatch, decision: TilingDecision) -> TileColumns:
    """Expand a tiling decision into tile columns, natural order.

    GEMMs in batch order; within a GEMM, tiles row-major over the tile
    grid.  This is the order threshold batching consumes.  The five
    ``int64`` columns ``(gemm, y, x, strategy, k)`` are built with
    ``np.repeat`` and ``divmod``, with no Python loop per tile.
    """
    rows, cols = _tile_grid(batch, decision)
    counts = rows * cols
    n_gemms = len(counts)
    gemm = np.repeat(np.arange(n_gemms, dtype=np.int64), counts)
    local = np.arange(len(gemm), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    y, x = np.divmod(local, np.repeat(cols, counts))
    strategy = np.repeat(
        np.array([s.index for s in decision.strategies[:n_gemms]], dtype=np.int64),
        counts,
    )
    k = np.repeat(np.array([g.k for g in batch][:n_gemms], dtype=np.int64), counts)
    return TileColumns(gemm=gemm, y=y, x=x, strategy=strategy, k=k)


def enumerate_tiles(batch: GemmBatch, decision: TilingDecision) -> list[Tile]:
    """Expand a tiling decision into the flat tile list, natural order.

    The :class:`Tile` view of :func:`tile_columns`, for callers that
    index or edit individual tiles.
    """
    return tile_columns(batch, decision).tiles()


def build_schedule(
    batch: GemmBatch,
    decision: TilingDecision,
    batching: BatchingResult,
) -> BatchSchedule:
    """Assemble the five auxiliary arrays from a batching result.

    Validates that the batching covers exactly the tiles the tiling
    decision induces (every tile once, none invented).
    """
    with get_tracer().span(
        "schedule.build", blocks=batching.num_blocks, tiles=batching.num_tiles
    ):
        return _build_schedule(batch, decision, batching)


def _build_schedule(
    batch: GemmBatch,
    decision: TilingDecision,
    batching: BatchingResult,
) -> BatchSchedule:
    slots = batching.slots()
    gemm_ids, ys, xs, strategy_ids, ks = slots.arrays

    # The tile grid the decision induces: GEMM g owns the linear tile
    # ids [first[g], first[g + 1]), row-major over its rows x cols grid.
    want_strategy = np.array([s.index for s in decision.strategies], dtype=np.int64)
    want_k = np.array([g.k for g in batch], dtype=np.int64)
    rows, cols = _tile_grid(batch, decision)
    first = np.concatenate(([0], np.cumsum(rows * cols)))

    in_batch = (gemm_ids >= 0) & (gemm_ids < len(batch))
    g = np.where(in_batch, gemm_ids, 0)
    produced = (
        in_batch
        & (strategy_ids == want_strategy[g])
        & (ks == want_k[g])
        & (ys >= 0)
        & (xs >= 0)
        & (ys < rows[g])
        & (xs < cols[g])
    )
    if not produced.all():
        bad = slots.tile(int(np.argmin(produced)))
        raise ValueError(f"batching refers to a tile not produced by tiling: {bad}")
    tile_ids = first[gemm_ids] + ys * cols[gemm_ids] + xs
    counts = np.bincount(tile_ids, minlength=int(first[-1]))
    if (counts > 1).any():
        first_seen = np.zeros(len(tile_ids), dtype=bool)
        first_seen[np.unique(tile_ids, return_index=True)[1]] = True
        bad = slots.tile(int(np.argmin(first_seen)))
        raise ValueError(f"batching assigns tile {bad} to more than one block")
    missing = int(np.count_nonzero(counts == 0))
    if missing:
        raise ValueError(f"batching leaves {missing} tiles unassigned")

    strategies = [strategy_by_index(s) for s in set(strategy_ids.tolist())]
    threads = decision.threads
    for s in strategies:
        if s.threads != threads:
            raise ValueError(
                f"strategy {s} violates the unified thread structure "
                f"({s.threads} != {threads} threads)"
            )
    smem = max(s.shared_memory_bytes for s in strategies)
    regs = max(s.registers_per_thread for s in strategies)

    return BatchSchedule(
        tile_offsets=batching.offsets.astype(np.int32),
        gemm_ids=gemm_ids.astype(np.int32),
        strategy_ids=strategy_ids.astype(np.int32),
        y_coords=ys.astype(np.int32),
        x_coords=xs.astype(np.int32),
        threads_per_block=threads,
        shared_memory_bytes=smem,
        registers_per_thread=regs,
    )
