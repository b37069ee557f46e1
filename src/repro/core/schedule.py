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
from repro.core.tiling import TilingDecision, strategy_by_index
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

    Schedules compare by value (equal arrays, per-slot K and
    footprint) and are unhashable.
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

    def tiles_of_block(self, block_id: int) -> list[Tile]:
        """Decode the tiles assigned to one block (the Figure 7 walk)."""
        if not 0 <= block_id < self.num_blocks:
            raise IndexError(f"block_id {block_id} out of range 0-{self.num_blocks - 1}")
        begin = int(self.tile_offsets[block_id])
        end = int(self.tile_offsets[block_id + 1])
        out = []
        for slot in range(begin, end):
            strat_id = int(self.strategy_ids[slot])
            out.append(
                Tile(
                    gemm_index=int(self.gemm_ids[slot]),
                    y=int(self.y_coords[slot]),
                    x=int(self.x_coords[slot]),
                    strategy_index=strat_id,
                    k=self._tile_k(slot),
                )
            )
        return out

    def _tile_k(self, slot: int) -> int:
        # K is not stored in the device arrays (the kernel reads it from
        # the GEMM size array, Figure 7 line 10); we stash the per-slot
        # K alongside for host-side consumers.
        return int(self._slot_k[slot])

    # Populated by build_schedule via object.__setattr__ (frozen dataclass).
    _slot_k: np.ndarray = None  # type: ignore[assignment]

    def to_dict(self) -> dict:
        """Serialize the schedule (JSON-compatible).

        Real deployments cache plans keyed by batch signature; this is
        the persistence format (five arrays + the fused footprint +
        the per-slot K values the host keeps alongside).
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
            "slot_k": self._slot_k.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BatchSchedule":
        """Rebuild a schedule serialized by :meth:`to_dict`."""
        try:
            schedule = cls(
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
        slot_k = np.asarray(data["slot_k"], dtype=np.int64)
        if slot_k.shape != (schedule.num_tiles,):
            raise ValueError("serialized slot_k does not match the tile count")
        object.__setattr__(schedule, "_slot_k", slot_k)
        return schedule

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (
            self.tile_offsets,
            self.gemm_ids,
            self.strategy_ids,
            self.y_coords,
            self.x_coords,
            self._slot_k,
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
        self, precision: PrecisionLike = "fp32"
    ) -> tuple[tuple[BlockWork, ...], tuple[int, ...]]:
        """Lower the schedule to cost-model block classes.

        Returns the distinct block compositions as :class:`BlockWork`
        objects, in first-issue order, and each block's index into
        them -- what :meth:`KernelLaunch.of_classes
        <repro.gpu.simulator.KernelLaunch.of_classes>` takes.  A ragged
        batch's ~100 blocks hold a handful of distinct compositions,
        and equal (strategy, K) tiles share one :class:`TileWork`.

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
        # One integer per slot names its (strategy, K) pair: K < base.
        base = int(self._slot_k.max()) + 1
        keys = tuple((self.strategy_ids.astype(np.int64) * base + self._slot_k).tolist())
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

    schedule = BatchSchedule(
        tile_offsets=batching.offsets.astype(np.int32),
        gemm_ids=gemm_ids.astype(np.int32),
        strategy_ids=strategy_ids.astype(np.int32),
        y_coords=ys.astype(np.int32),
        x_coords=xs.astype(np.int32),
        threads_per_block=threads,
        shared_memory_bytes=smem,
        registers_per_thread=regs,
    )
    object.__setattr__(schedule, "_slot_k", ks)
    return schedule
