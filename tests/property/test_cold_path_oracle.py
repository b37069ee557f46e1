"""Differential oracle for the array-based cold plan path.

The planner batches tile columns, builds the schedule from a slot
permutation, and hands the simulator block classes.  The reference
below is a copy of the object-per-tile implementation it replaced: the
five heuristics over lists of :class:`Tile`, the tile walk that
enumerated them, and the lowering that built one :class:`BlockWork`
per block.  Hypothesis draws ragged batches the
pinned digest case sets do not reach -- K far below theta, a TLP guard
that trips mid-batch, GEMMs of one tile -- and every heuristic must give
the reference's blocks, schedule arrays, per-block lowering and
simulated kernel, exactly.
"""

from __future__ import annotations

import bisect
import heapq

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.batching import ALL_HEURISTICS, batch_tiles
from repro.core.precision import Precision
from repro.core.problem import Gemm, GemmBatch, Tile
from repro.core.schedule import build_schedule, tile_columns
from repro.core.tiling import (
    BATCHED_STRATEGIES_128,
    BATCHED_STRATEGIES_256,
    TilingDecision,
    available_strategies,
    strategy_by_index,
)
from repro.gpu.costmodel import BlockWork, TileWork
from repro.gpu.simulator import KernelLaunch, simulate_kernel
from repro.gpu.specs import VOLTA_V100 as V100

# -- the reference: one Python object per tile and per block -----------


def ref_enumerate_tiles(batch, decision):
    tiles = []
    for gi, (gemm, strat) in enumerate(zip(batch, decision.strategies)):
        rows, cols = strat.tiles_for(gemm)
        for y in range(rows):
            for x in range(cols):
                tiles.append(
                    Tile(gemm_index=gi, y=y, x=x, strategy_index=strat.index, k=gemm.k)
                )
    return tiles


def ref_threshold(tiles, threads_per_block, theta, tlp_threshold):
    blocks = []
    remaining = list(tiles)
    while remaining:
        prospective_tlp = (len(remaining) + len(blocks)) * threads_per_block
        if prospective_tlp >= tlp_threshold // 2:
            current = []
            k_sum = 0
            while remaining and k_sum < theta:
                tile = remaining.pop(0)
                current.append(tile)
                k_sum += tile.k
            blocks.append(tuple(current))
        else:
            blocks.extend((t,) for t in remaining)
            remaining.clear()
    return tuple(blocks)


def ref_binary(tiles, threads_per_block, theta, tlp_threshold):
    ordered = sorted(tiles, key=lambda t: t.k)
    blocks = []
    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        if ordered[lo].k + ordered[lo + 1].k >= theta:
            break
        blocks.append((ordered[lo], ordered[hi]))
        lo += 1
        hi -= 1
    for i in range(lo, hi + 1):
        blocks.append((ordered[i],))
    return tuple(blocks)


def ref_one_per_block(tiles, threads_per_block, theta, tlp_threshold):
    return tuple((t,) for t in tiles)


def ref_greedy_packing(tiles, threads_per_block, theta, tlp_threshold):
    ordered = sorted(tiles, key=lambda t: t.k, reverse=True)
    bins = []
    open_loads = []
    open_bins = []

    def _open(load, index):
        if load < theta:
            at = bisect.bisect_left(open_loads, load)
            open_loads.insert(at, load)
            open_bins.insert(at, index)

    for tile in ordered:
        pos = -1
        if tile.k < theta:
            pos = bisect.bisect_right(open_loads, theta - tile.k) - 1
        if pos >= 0:
            load = open_loads.pop(pos)
            index = open_bins.pop(pos)
            bins[index].append(tile)
            _open(load + tile.k, index)
        else:
            bins.append([tile])
            _open(tile.k, len(bins) - 1)
    return tuple(tuple(b) for b in bins)


def ref_balanced(tiles, threads_per_block, theta, tlp_threshold):
    total_k = sum(t.k for t in tiles)
    tlp_blocks = max(1, (tlp_threshold // 2) // threads_per_block)
    depth_blocks = max(1, total_k // theta)
    n_blocks = min(len(tiles), max(tlp_blocks, min(depth_blocks, len(tiles))))
    heap = [(0, i) for i in range(n_blocks)]
    heapq.heapify(heap)
    bins = [[] for _ in range(n_blocks)]
    for tile in sorted(tiles, key=lambda t: t.k, reverse=True):
        load, i = heapq.heappop(heap)
        bins[i].append(tile)
        heapq.heappush(heap, (load + tile.k, i))
    return tuple(tuple(b) for b in bins if b)


REFERENCE = {
    "threshold": ref_threshold,
    "binary": ref_binary,
    "one-per-block": ref_one_per_block,
    "greedy-packing": ref_greedy_packing,
    "balanced": ref_balanced,
}


def ref_block_works(offsets, strategy_ids, slot_k, threads, regs, smem_fp32, precision):
    """One BlockWork per block; equal blocks share one object."""
    prec = Precision.coerce(precision)
    smem = smem_fp32 * prec.storage_bytes // 4
    slots = list(zip(strategy_ids, slot_k))
    tiles = {}
    blocks = {}
    works = []
    for begin, end in zip(offsets[:-1], offsets[1:]):
        key = tuple(slots[begin:end])
        work = blocks.get(key)
        if work is None:
            for sk in key:
                if sk not in tiles:
                    tiles[sk] = TileWork(
                        strategy=strategy_by_index(sk[0]),
                        k=sk[1],
                        active_threads=threads,
                        precision=prec,
                    )
            work = blocks[key] = BlockWork(
                threads=threads,
                registers_per_thread=regs,
                shared_memory_bytes=smem,
                tiles=tuple(tiles[sk] for sk in key),
            )
        works.append(work)
    return tuple(works)


# -- the draw ------------------------------------------------------------

#: Tiles per GEMM are capped so the reference's O(n^2) threshold walk
#: and multi-wave launches stay quick; the smallest strategies still
#: apply to small GEMMs.
MAX_TILES_PER_GEMM = 64


@st.composite
def cold_case(draw):
    threads = draw(st.sampled_from((128, 256)))
    pool = BATCHED_STRATEGIES_256 if threads == 256 else BATCHED_STRATEGIES_128
    dim = st.one_of(st.integers(1, 48), st.integers(1, 600))
    depth = st.one_of(st.integers(1, 32), st.integers(1, 2048))
    gemms, strategies = [], []
    for _ in range(draw(st.integers(1, 12))):
        gemm = Gemm(draw(dim), draw(dim), draw(depth))
        options = available_strategies(gemm, pool)
        small = [s for s in options if s.num_tiles(gemm) <= MAX_TILES_PER_GEMM]
        gemms.append(gemm)
        strategies.append(draw(st.sampled_from(small or options[-1:])))
    decision = TilingDecision(
        strategies=tuple(strategies), threads=threads, tlp=0, trace=()
    )
    theta = draw(st.one_of(st.integers(1, 64), st.integers(1, 4096)))
    tlp_threshold = draw(st.integers(1, 1 << 19))
    precision = draw(st.sampled_from(("fp32", "fp16", "bf16")))
    return GemmBatch(gemms), decision, theta, tlp_threshold, precision


@settings(max_examples=200, deadline=None)
@given(case=cold_case())
def test_array_path_matches_the_object_per_tile_reference(case):
    batch, decision, theta, tlp_threshold, precision = case
    columns = tile_columns(batch, decision)
    ref_tiles = ref_enumerate_tiles(batch, decision)
    assert columns.tiles() == ref_tiles
    compulsory = float(batch.compulsory_ab_bytes)
    for heuristic in ALL_HEURISTICS:
        batching = batch_tiles(
            columns, decision.threads, heuristic, theta=theta, tlp_threshold=tlp_threshold
        )
        blocks = REFERENCE[heuristic](ref_tiles, decision.threads, theta, tlp_threshold)
        assert batching.blocks == blocks, heuristic

        schedule = build_schedule(batch, decision, batching)
        flat = [t for block in blocks for t in block]
        offsets = [0]
        for block in blocks:
            offsets.append(offsets[-1] + len(block))
        assert schedule.tile_offsets.tolist() == offsets
        assert schedule.gemm_ids.tolist() == [t.gemm_index for t in flat]
        assert schedule.strategy_ids.tolist() == [t.strategy_index for t in flat]
        assert schedule.y_coords.tolist() == [t.y for t in flat]
        assert schedule.x_coords.tolist() == [t.x for t in flat]

        works = ref_block_works(
            offsets,
            [t.strategy_index for t in flat],
            [t.k for t in flat],
            schedule.threads_per_block,
            schedule.registers_per_thread,
            schedule.shared_memory_bytes,
            precision,
        )
        launch = KernelLaunch.of_classes(
            "coordinated", *schedule.block_classes(batch, precision), compulsory_ab_bytes=compulsory
        )
        assert launch.blocks == works, heuristic
        want = simulate_kernel(V100, KernelLaunch("coordinated", works, compulsory))
        assert simulate_kernel(V100, launch) == want, heuristic


def test_reference_agrees_on_a_fixed_ragged_batch():
    """A fixed case next to the drawn ones: one tile, a ragged edge, small K."""
    batch = GemmBatch.from_shapes([(8, 8, 4), (65, 33, 17), (128, 256, 512)])
    decision = TilingDecision(
        strategies=tuple(available_strategies(g)[0] for g in batch),
        threads=256,
        tlp=0,
        trace=(),
    )
    columns = tile_columns(batch, decision)
    for heuristic in ALL_HEURISTICS:
        batching = batch_tiles(columns, 256, heuristic, theta=256, tlp_threshold=4096)
        want = REFERENCE[heuristic](ref_enumerate_tiles(batch, decision), 256, 256, 4096)
        assert batching.blocks == want
        assert np.array_equal(
            build_schedule(batch, decision, batching).tile_offsets,
            np.cumsum([0] + [len(b) for b in want]),
        )
