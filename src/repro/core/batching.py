"""The batching engine (paper Section 5).

After the tiling phase the batch of GEMMs becomes a batch of tiles;
the batching engine assigns tiles to thread blocks.  Assigning more
than one tile to a block raises the block's total K-depth, which
amortizes the pipeline-fill prologue and improves instruction-level
parallelism -- valuable exactly when K is small -- at the cost of
reducing the block count (thread-level parallelism).

Two heuristics, both parameterized by the architecture-dependent
K-depth threshold ``theta`` (256 on V100):

* **Threshold batching** (TLP priority).  Tiles are consumed in order;
  before opening a new block, the prospective TLP -- (remaining tiles
  + blocks already formed) x threads per block -- is compared against
  half the tiling engine's TLP threshold.  While TLP is plentiful, the
  new block accumulates tiles until their summed K exceeds theta;
  once TLP becomes scarce, every remaining tile gets its own block.
* **Binary batching** (ILP priority).  Tiles are sorted by K ascending
  and paired min-with-max, at most two per block, approximating the
  paper's objective ``minimize | sum_pairs (K_i + K_j - theta) |`` --
  and stopping the pairing (singleton blocks for the rest) once even
  the smallest available pair already meets theta, where further
  pairing could only overshoot the objective.

A heuristic reads nothing of a tile but its K.  Each one is a function
of the tiles' K column that returns the *slot order* (which input tile
each schedule slot holds) and the *block offsets* (block ``b`` runs
slots ``[offsets[b], offsets[b + 1])``) -- the "Tile" array of the
programming interface.  Tiles travel as :class:`TileColumns`, five
integer columns, so a planner never builds a Python object per tile;
:attr:`BatchingResult.blocks` rebuilds the per-block :class:`Tile`
tuples on first access, for tests and introspection.

The online choice between the two is made by the random-forest
selector in :mod:`repro.core.selector`.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence, Union

import numpy as np

from repro.core.problem import Tile
from repro.telemetry import get_tracer


@dataclass(frozen=True, eq=False)
class TileColumns:
    """A tile list as five ``int64`` columns, one entry per tile.

    The columns follow :class:`Tile`'s field order: ``gemm`` (the
    GEMM index), ``y`` / ``x`` (tile-grid coordinates), ``strategy``
    (the 0-11 strategy index) and ``k`` (the reduction depth).
    Columns compare by value and are unhashable, like the arrays they
    hold.
    """

    gemm: np.ndarray
    y: np.ndarray
    x: np.ndarray
    strategy: np.ndarray
    k: np.ndarray

    @classmethod
    def of_tiles(cls, tiles: Sequence[Tile]) -> "TileColumns":
        """The columns of a :class:`Tile` sequence, in its order."""
        rows = np.array(
            [(t.gemm_index, t.y, t.x, t.strategy_index, t.k) for t in tiles],
            dtype=np.int64,
        ).reshape(-1, 5)
        return cls(*rows.T.copy())

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """``(gemm, y, x, strategy, k)``."""
        return (self.gemm, self.y, self.x, self.strategy, self.k)

    def __len__(self) -> int:
        return len(self.k)

    def take(self, index: np.ndarray) -> "TileColumns":
        """The tiles at ``index``, in that order."""
        return TileColumns(*(column[index] for column in self.arrays))

    def tile(self, i: int) -> Tile:
        """Tile ``i`` as a :class:`Tile`."""
        return Tile(*(int(column[i]) for column in self.arrays))

    def tiles(self) -> list[Tile]:
        """Every tile as a :class:`Tile`, in column order."""
        return [Tile(*row) for row in zip(*(c.tolist() for c in self.arrays))]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TileColumns):
            return NotImplemented
        return all(map(np.array_equal, self.arrays, other.arrays))

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=False)
class BatchingResult:
    """Blocks produced by a batching heuristic.

    ``columns`` are the batched tiles in input order; slot ``i`` of the
    schedule holds tile ``order[i]``, and thread block ``b`` runs the
    slots ``[offsets[b], offsets[b + 1])``.  Every input tile appears
    in exactly one block (an invariant the property tests enforce).
    :meth:`from_blocks` builds a result from hand-made blocks.

    Results compare by value -- the same tiles in the same blocks under
    the same heuristic name and theta -- and are unhashable.
    """

    columns: TileColumns
    order: np.ndarray
    offsets: np.ndarray
    heuristic: str
    theta: int

    def __post_init__(self) -> None:
        if np.any(np.diff(self.offsets) <= 0):
            raise ValueError("batching produced an empty thread block")

    @classmethod
    def from_blocks(
        cls, blocks: Sequence[Sequence[Tile]], heuristic: str, theta: int
    ) -> "BatchingResult":
        """A batching whose block ``i`` runs the tiles ``blocks[i]``."""
        flat = [tile for block in blocks for tile in block]
        return cls(
            columns=TileColumns.of_tiles(flat),
            order=np.arange(len(flat)),
            offsets=np.array(list(accumulate(map(len, blocks), initial=0))),
            heuristic=heuristic,
            theta=theta,
        )

    def slots(self) -> TileColumns:
        """The tiles in slot order: block 0's tiles, then block 1's, ..."""
        return self.columns.take(self.order)

    @cached_property
    def blocks(self) -> tuple[tuple[Tile, ...], ...]:
        """``blocks[i]`` is the ordered tuple of tiles block ``i`` runs."""
        tiles = self.slots().tiles()
        bounds = self.offsets.tolist()
        return tuple(tuple(tiles[b:e]) for b, e in zip(bounds, bounds[1:]))

    @property
    def num_blocks(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_tiles(self) -> int:
        return len(self.order)

    @property
    def max_tiles_per_block(self) -> int:
        return int(np.diff(self.offsets).max())

    @property
    def mean_k_per_block(self) -> float:
        return int(self.columns.k[self.order].sum()) / self.num_blocks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BatchingResult):
            return NotImplemented
        return (
            (self.heuristic, self.theta) == (other.heuristic, other.theta)
            and np.array_equal(self.offsets, other.offsets)
            and self.slots() == other.slots()
        )

    __hash__ = None  # type: ignore[assignment]


#: What the batching entry points accept as tiles.
TilesLike = Union[TileColumns, Sequence[Tile]]

#: A heuristic's answer: the slot order and the block offsets.
_Layout = tuple[np.ndarray, np.ndarray]


def _threshold(
    k: np.ndarray, threads_per_block: int, theta: int, tlp_threshold: int
) -> _Layout:
    n = len(k)
    # "We make sure the workload of each block is not less than theta":
    # a block opened at tile i takes tiles until their summed K reaches
    # theta, so it ends at ends[i].  reach[i] is the summed K of the
    # first i tiles, which rises (K >= 1).
    reach = np.concatenate(([0], np.cumsum(k)))
    ends = np.minimum(np.searchsorted(reach, reach[:-1] + theta), n).tolist()
    half = tlp_threshold // 2
    offsets = [0]
    pos = 0
    while pos < n:
        if (n - pos + len(offsets) - 1) * threads_per_block < half:
            # TLP is scarce: every remaining tile gets its own block.
            offsets.extend(range(pos + 1, n + 1))
            break
        pos = ends[pos]
        offsets.append(pos)
    return np.arange(n), np.array(offsets, dtype=np.int64)


def _binary(
    k: np.ndarray, threads_per_block: int, theta: int, tlp_threshold: int
) -> _Layout:
    n = len(k)
    ordered = np.argsort(k, kind="stable")
    sorted_k = k[ordered]
    # Pair i joins the i-th smallest tile with the i-th largest.  The
    # smallest available pair sums K_i + K_{i+1}, which never falls
    # along the sorted order: pairing stops at the first pair that
    # already meets theta, and the rest ride as singletons.
    meets = np.flatnonzero(sorted_k[:-1] + sorted_k[1:] >= theta)
    pairs = min(n // 2, int(meets[0]) if len(meets) else n)
    lo, hi = ordered[:pairs], ordered[n - pairs :][::-1]
    order = np.concatenate(
        (np.stack((lo, hi), axis=1).reshape(-1), ordered[pairs : n - pairs])
    )
    offsets = np.concatenate(
        (np.arange(0, 2 * pairs, 2), np.arange(2 * pairs, n + 1))
    )
    return order, offsets


def _one_per_block(
    k: np.ndarray, threads_per_block: int, theta: int, tlp_threshold: int
) -> _Layout:
    return np.arange(len(k)), np.arange(len(k) + 1)


def _bins_layout(bins: list[list[int]]) -> _Layout:
    """Slot order and offsets of non-empty bins of tile indices."""
    order = np.array([i for b in bins for i in b], dtype=np.int64)
    offsets = np.array(list(accumulate(map(len, bins), initial=0)), dtype=np.int64)
    return order, offsets


def _greedy_packing(
    k: np.ndarray, threads_per_block: int, theta: int, tlp_threshold: int
) -> _Layout:
    ks = k.tolist()
    bins: list[list[int]] = []
    # Open blocks only, as parallel arrays sorted by load ascending.
    open_loads: list[int] = []
    open_bins: list[int] = []

    def _open(load: int, index: int) -> None:
        if load < theta:  # a full block can never take another tile
            at = bisect.bisect_left(open_loads, load)
            open_loads.insert(at, load)
            open_bins.insert(at, index)

    for i in sorted(range(len(ks)), key=ks.__getitem__, reverse=True):
        depth = ks[i]
        pos = -1
        if depth < theta:
            # Best fit: the largest load still accommodating this tile.
            pos = bisect.bisect_right(open_loads, theta - depth) - 1
        if pos >= 0:
            load = open_loads.pop(pos)
            index = open_bins.pop(pos)
            bins[index].append(i)
            _open(load + depth, index)
        else:
            bins.append([i])
            _open(depth, len(bins) - 1)
    return _bins_layout(bins)


def _balanced(
    k: np.ndarray, threads_per_block: int, theta: int, tlp_threshold: int
) -> _Layout:
    ks = k.tolist()
    n = len(ks)
    # Blocks needed to keep TLP at half the threshold, but never more
    # than one per tile and always enough that blocks average >= theta
    # when the workload allows it.
    tlp_blocks = max(1, (tlp_threshold // 2) // threads_per_block)
    depth_blocks = max(1, sum(ks) // theta)
    n_blocks = min(n, max(tlp_blocks, min(depth_blocks, n)))

    heap = [(0, b) for b in range(n_blocks)]
    heapq.heapify(heap)
    bins: list[list[int]] = [[] for _ in range(n_blocks)]
    for i in sorted(range(n), key=ks.__getitem__, reverse=True):
        load, b = heapq.heappop(heap)
        bins[b].append(i)
        heapq.heappush(heap, (load + ks[i], b))
    return _bins_layout([b for b in bins if b])


_HEURISTICS = {
    "threshold": _threshold,
    "binary": _binary,
    "one-per-block": _one_per_block,
    "greedy-packing": _greedy_packing,
    "balanced": _balanced,
}

#: The paper's own heuristics.
PAPER_HEURISTICS = ("threshold", "binary")

#: Everything this library ships, including the future-work extensions.
ALL_HEURISTICS = tuple(_HEURISTICS)


def _batch(
    heuristic: str,
    tiles: TilesLike,
    threads_per_block: int,
    theta: int,
    tlp_threshold: int,
) -> BatchingResult:
    layout = _HEURISTICS[heuristic]
    columns = tiles if isinstance(tiles, TileColumns) else TileColumns.of_tiles(tiles)
    _validate_batching_args(columns, threads_per_block, theta)
    order, offsets = layout(columns.k, threads_per_block, theta, tlp_threshold)
    return BatchingResult(
        columns=columns, order=order, offsets=offsets, heuristic=heuristic, theta=theta
    )


def threshold_batching(
    tiles: TilesLike,
    threads_per_block: int,
    theta: int = 256,
    tlp_threshold: int = 65536,
) -> BatchingResult:
    """TLP-first batching (Section 5, "Threshold Batching").

    Parameters
    ----------
    tiles:
        The tiles produced by the tiling engine, in natural order.
    threads_per_block:
        The unified block size chosen by the tiling engine.
    theta:
        K-depth target per block; a block stops accumulating tiles once
        its summed K reaches this.
    tlp_threshold:
        The tiling engine's TLP threshold; batching continues only
        while prospective TLP stays at or above half of it ("not less
        than" in the paper's wording -- the exact-half boundary still
        batches).

    One sorted search over the running K sum gives the end of a block
    opened at any tile; the walk that chains them takes one step per
    block, not one per tile.
    """
    return _batch("threshold", tiles, threads_per_block, theta, tlp_threshold)


def binary_batching(
    tiles: TilesLike,
    threads_per_block: int,
    theta: int = 256,
) -> BatchingResult:
    """ILP-first batching (Section 5, "Binary Batching").

    Sorts tiles by K ascending (stably) and pairs the smallest-K tile
    with the largest-K tile, at most two tiles per block.  An odd tile
    count leaves the median tile alone in its block.

    Pairing serves the paper's objective ``minimize | sum_pairs (K_i +
    K_j - theta) |``, so it is theta-aware: a pair only helps while it
    lands *below* theta's reach.  The smallest remaining tile forms
    the least-overshooting pair available, so the moment even ``K_lo +
    K_next >= theta`` -- every possible pair would only pile K on top
    of an already-met target -- pairing stops and the remaining tiles
    are emitted as singleton blocks, each closer to theta alone than
    any pair could be.
    """
    return _batch("binary", tiles, threads_per_block, theta, 0)


def one_tile_per_block(
    tiles: TilesLike,
    threads_per_block: int,
    theta: int = 256,
) -> BatchingResult:
    """The classic one-tile-per-block assignment (no ILP batching).

    Used by the ablation benchmarks to isolate the batching engine's
    contribution, and by baselines that predate the batching idea.
    """
    return _batch("one-per-block", tiles, threads_per_block, theta, 0)


def greedy_packing_batching(
    tiles: TilesLike,
    threads_per_block: int,
    theta: int = 256,
) -> BatchingResult:
    """Best-fit-decreasing bin packing of tiles toward theta.

    An *extension* beyond the paper's two heuristics (Section 5 closes
    with "it is possible to use other algorithms; we leave a more
    thorough investigation for future work").  Tiles are sorted by K
    descending (stably) and placed into the *fullest* open block that
    still keeps the summed K within theta (best fit); a tile with K >=
    theta always gets its own block.  Compared to threshold batching
    this balances block depths instead of building monster blocks from
    runs of tiny-K tiles.

    Open-block loads live in a sorted array probed by bisection, so
    placement is O(log blocks) per tile.  A block whose load reaches
    theta can never accept another tile (K >= 1) and is retired from
    the search structure outright.
    """
    return _batch("greedy-packing", tiles, threads_per_block, theta, 0)


def balanced_batching(
    tiles: TilesLike,
    threads_per_block: int,
    theta: int = 256,
    tlp_threshold: int = 65536,
) -> BatchingResult:
    """Longest-processing-time balancing onto a TLP-derived block count.

    Another future-work extension: choose the block count that keeps
    TLP at half the tiling threshold (the same budget threshold
    batching protects), then distribute tiles LPT-style so every block
    carries a similar total K -- minimizing the makespan imbalance
    that hurts the simpler heuristics on mixed-K batches.
    """
    return _batch("balanced", tiles, threads_per_block, theta, tlp_threshold)


def batch_tiles(
    tiles: TilesLike,
    threads_per_block: int,
    heuristic: str,
    theta: int = 256,
    tlp_threshold: int = 65536,
) -> BatchingResult:
    """Dispatch to a batching heuristic by name.

    ``heuristic`` is one of ``"threshold"``, ``"binary"``,
    ``"one-per-block"``, ``"greedy-packing"`` or ``"balanced"`` (the
    last two are this library's future-work extensions).  ``tiles`` is
    a :class:`TileColumns` (what :func:`repro.core.schedule.tile_columns`
    returns) or any sequence of :class:`Tile`.
    """
    if heuristic not in _HEURISTICS:
        raise ValueError(
            f"unknown batching heuristic {heuristic!r}; known: {sorted(_HEURISTICS)}"
        )
    tracer = get_tracer()
    with tracer.span("batching", heuristic=heuristic, tiles=len(tiles)) as span:
        result = _batch(heuristic, tiles, threads_per_block, theta, tlp_threshold)
        if span.enabled:
            # Underfilled blocks (summed K below theta) keep pipeline
            # bubbles the ILP batching exists to remove.
            block_k = np.add.reduceat(result.slots().k, result.offsets[:-1])
            bubbles = int(np.count_nonzero(block_k < theta))
            span.set_attr("blocks", result.num_blocks)
            span.set_attr("bubble_blocks", bubbles)
            tracer.counter("bubble_blocks", bubbles)
            tracer.counter("blocks_formed", result.num_blocks)
            tracer.histogram("block_k_depth", result.mean_k_per_block)
    return result


def _validate_batching_args(
    tiles: TileColumns, threads_per_block: int, theta: int
) -> None:
    if not len(tiles):
        raise ValueError("no tiles to batch")
    if threads_per_block <= 0:
        raise ValueError(f"threads_per_block must be positive, got {threads_per_block}")
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
