"""Tests for the auxiliary-array schedule (Section 6 / Figure 6)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.batching import batch_tiles, BatchingResult
from repro.core.problem import Gemm, GemmBatch, Tile
from repro.core.schedule import BatchSchedule, build_schedule, enumerate_tiles
from repro.core.tiling import ALL_BATCHED_STRATEGIES, select_tiling, strategy_by_index


def plan(batch, heuristic="one-per-block", threshold=65536):
    decision = select_tiling(batch, threshold)
    tiles = enumerate_tiles(batch, decision)
    batching = batch_tiles(tiles, decision.threads, heuristic)
    return decision, batching, build_schedule(batch, decision, batching)


class TestFigure6WorkedExample:
    """Two GEMMs: two 128x128 tiles and eight 128x64 tiles; six blocks,
    the third block running two tiles of GEMM 1 at coordinates (0,0),
    (0,1) -- the exact structure of the paper's Figure 6."""

    @pytest.fixture
    def schedule(self):
        from repro.core.tiling import TilingDecision, strategy_by_name

        batch = GemmBatch.from_shapes([(128, 256, 512), (128, 512, 512)])
        # The figure's solution is hand-constructed in the paper ("a
        # possible tiling and batching solution"): huge tiles for GEMM0,
        # tall (128x64) tiles for GEMM1 -- the interface must describe
        # any scheme, not only the tiling algorithm's output.
        huge = strategy_by_name("huge", 256)
        tall = strategy_by_name("tall", 256)
        decision = TilingDecision(
            strategies=(huge, tall), threads=256, tlp=0, trace=()
        )
        tiles = enumerate_tiles(batch, decision)
        t0 = [t for t in tiles if t.gemm_index == 0]
        t1 = [t for t in tiles if t.gemm_index == 1]
        blocks = [(t,) for t in t0] + [
            tuple(t1[i : i + 2]) for i in range(0, len(t1), 2)
        ]
        batching = BatchingResult.from_blocks(blocks, heuristic="manual", theta=256)
        return batch, decision, build_schedule(batch, decision, batching)

    def test_block_structure(self, schedule):
        batch, decision, sched = schedule
        # GEMM0: huge tiles 128x128 -> 1x2 grid = 2 tiles; GEMM1:
        # tall tiles 128x64 -> 1x8 grid = 8 tiles; 2 + 4 blocks.
        assert decision.strategies[0].name == "huge"
        assert decision.strategies[1].name == "tall"
        assert sched.num_blocks == 6
        assert sched.num_tiles == 10

    def test_tile_offsets(self, schedule):
        _, _, sched = schedule
        np.testing.assert_array_equal(sched.tile_offsets, [0, 1, 2, 4, 6, 8, 10])

    def test_third_block_decodes_like_the_paper(self, schedule):
        """Block 2 runs tiles [2,4) of GEMM 1 at (0,0) and (0,1)."""
        batch, _, sched = schedule
        tiles = sched.tiles_of_block(2, batch)
        assert len(tiles) == 2
        assert all(t.gemm_index == 1 for t in tiles)
        assert [(t.y, t.x) for t in tiles] == [(0, 0), (0, 1)]

    def test_gemm_array(self, schedule):
        _, _, sched = schedule
        np.testing.assert_array_equal(sched.gemm_ids, [0, 0] + [1] * 8)

    def test_strategy_ids_decode(self, schedule):
        _, decision, sched = schedule
        for slot in range(sched.num_tiles):
            strat = strategy_by_index(int(sched.strategy_ids[slot]))
            gemm = int(sched.gemm_ids[slot])
            assert strat == decision.strategies[gemm]


class TestEnumerateTiles:
    def test_row_major_order(self):
        batch = GemmBatch([Gemm(32, 48, 8)])
        decision = select_tiling(batch, 65536)  # small tiles
        tiles = enumerate_tiles(batch, decision)
        assert [(t.y, t.x) for t in tiles] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    def test_tiles_carry_gemm_k(self, small_batch):
        decision = select_tiling(small_batch, 65536)
        for t in enumerate_tiles(small_batch, decision):
            assert t.k == small_batch[t.gemm_index].k

    def test_counts_match_strategy(self, paper_example_batch):
        decision = select_tiling(paper_example_batch, 65536)
        tiles = enumerate_tiles(paper_example_batch, decision)
        expected = sum(
            s.num_tiles(g) for g, s in zip(paper_example_batch, decision.strategies)
        )
        assert len(tiles) == expected


class TestBuildScheduleValidation:
    def test_missing_tile_rejected(self, uniform_batch):
        decision = select_tiling(uniform_batch, 65536)
        tiles = enumerate_tiles(uniform_batch, decision)
        bad = BatchingResult.from_blocks([(t,) for t in tiles[:-1]], heuristic="x", theta=1)
        with pytest.raises(ValueError, match="unassigned"):
            build_schedule(uniform_batch, decision, bad)

    def test_duplicate_tile_rejected(self, uniform_batch):
        decision = select_tiling(uniform_batch, 65536)
        tiles = enumerate_tiles(uniform_batch, decision)
        blocks = tuple((t,) for t in tiles) + ((tiles[0],),)
        bad = BatchingResult.from_blocks(blocks, heuristic="x", theta=1)
        with pytest.raises(ValueError, match="more than one block"):
            build_schedule(uniform_batch, decision, bad)

    def test_invented_tile_rejected(self, uniform_batch):
        decision = select_tiling(uniform_batch, 65536)
        tiles = enumerate_tiles(uniform_batch, decision)
        alien = Tile(gemm_index=0, y=99, x=99, strategy_index=tiles[0].strategy_index, k=64)
        bad = BatchingResult.from_blocks(
            [(t,) for t in tiles] + [(alien,)], heuristic="x", theta=1
        )
        with pytest.raises(ValueError, match="not produced by tiling"):
            build_schedule(uniform_batch, decision, bad)

    @staticmethod
    def _swap_first(batch, **changes):
        decision = select_tiling(batch, 65536)
        tiles = enumerate_tiles(batch, decision)
        tiles[0] = replace(tiles[0], **changes)
        return decision, BatchingResult.from_blocks(
            [(t,) for t in tiles], heuristic="x", theta=1
        )

    def test_tile_with_wrong_k_rejected(self, uniform_batch):
        # Same (gemm, y, x) as a real tile, but 64x deeper than its GEMM:
        # accepting it would price a K=4096 tile into the schedule.
        decision, bad = self._swap_first(uniform_batch, k=4096)
        with pytest.raises(ValueError, match="not produced by tiling"):
            build_schedule(uniform_batch, decision, bad)

    def test_tile_with_wrong_strategy_rejected(self, uniform_batch):
        chosen = select_tiling(uniform_batch, 65536).strategies[0]
        other = next(
            s
            for s in ALL_BATCHED_STRATEGIES
            if s.threads == chosen.threads and s.index != chosen.index
        )
        decision, bad = self._swap_first(uniform_batch, strategy_index=other.index)
        with pytest.raises(ValueError, match="not produced by tiling"):
            build_schedule(uniform_batch, decision, bad)

    def test_tile_of_unknown_gemm_rejected(self, uniform_batch):
        decision, bad = self._swap_first(uniform_batch, gemm_index=len(uniform_batch))
        with pytest.raises(ValueError, match="not produced by tiling"):
            build_schedule(uniform_batch, decision, bad)


class TestScheduleEquality:
    def test_serialized_round_trip_compares_equal(self, small_batch):
        _, _, sched = plan(small_batch, heuristic="binary")
        assert BatchSchedule.from_dict(sched.to_dict()) == sched

    def test_one_changed_coordinate_compares_unequal(self, small_batch):
        _, _, sched = plan(small_batch, heuristic="binary")
        data = sched.to_dict()
        data["x_coords"][-1] += 1
        assert BatchSchedule.from_dict(data) != sched

    def test_changed_footprint_compares_unequal(self, small_batch):
        _, _, sched = plan(small_batch)
        data = sched.to_dict()
        assert BatchSchedule.from_dict({**data, "registers_per_thread": 1}) != sched

    def test_older_payload_slot_k_is_ignored(self, small_batch):
        """K is read from the batch: a payload's ``slot_k`` list is not read."""
        _, _, sched = plan(small_batch)
        data = sched.to_dict()
        assert "slot_k" not in data
        assert BatchSchedule.from_dict({**data, "slot_k": [0]}) == sched

    def test_unhashable(self, small_batch):
        _, batching, sched = plan(small_batch)
        with pytest.raises(TypeError):
            hash(sched)
        with pytest.raises(TypeError):
            hash(batching)


class TestBatchScheduleInvariants:
    def test_arrays_are_int32(self, uniform_batch):
        _, _, sched = plan(uniform_batch)
        for arr in (sched.tile_offsets, sched.gemm_ids, sched.strategy_ids,
                    sched.y_coords, sched.x_coords):
            assert arr.dtype == np.int32

    def test_fused_footprint_is_max_over_strategies(self, small_batch):
        decision, _, sched = plan(small_batch)
        used = {s for s in decision.strategies}
        assert sched.shared_memory_bytes == max(s.shared_memory_bytes for s in used)
        assert sched.registers_per_thread == max(s.registers_per_thread for s in used)
        assert sched.threads_per_block == decision.threads

    def test_tiles_of_block_bounds(self, uniform_batch):
        _, _, sched = plan(uniform_batch)
        with pytest.raises(IndexError):
            sched.tiles_of_block(sched.num_blocks, uniform_batch)
        with pytest.raises(IndexError):
            sched.tiles_of_block(-1, uniform_batch)

    def test_block_works_lowering(self, uniform_batch):
        _, batching, sched = plan(uniform_batch, heuristic="binary")
        classes, class_of = sched.block_classes(uniform_batch)
        works = [classes[c] for c in class_of]
        assert len(works) == sched.num_blocks
        assert sum(len(w.tiles) for w in works) == sched.num_tiles
        for w in works:
            assert w.threads == sched.threads_per_block
            for t in w.tiles:
                assert t.active_threads == sched.threads_per_block

    def test_constructor_validation(self):
        good = dict(
            gemm_ids=np.zeros(2, np.int32),
            strategy_ids=np.zeros(2, np.int32),
            y_coords=np.zeros(2, np.int32),
            x_coords=np.zeros(2, np.int32),
            threads_per_block=256,
            shared_memory_bytes=1024,
            registers_per_thread=32,
        )
        with pytest.raises(ValueError, match="start at 0"):
            BatchSchedule(tile_offsets=np.array([1, 2], np.int32), **good)
        with pytest.raises(ValueError, match="strictly increasing"):
            BatchSchedule(tile_offsets=np.array([0, 0, 2], np.int32), **good)
        with pytest.raises(ValueError, match="expected"):
            BatchSchedule(tile_offsets=np.array([0, 3], np.int32), **good)


class TestDecodingChecksGemmIds:
    """Decoding a schedule raises the contract's error for a stray GEMM id.

    Without the check, ``block_classes`` priced an id of -1 at the last
    GEMM's K and ``tiles_of_block`` raised unrelated errors.
    """

    BATCH = GemmBatch.from_shapes([(16, 16, 8), (16, 16, 512)])

    @staticmethod
    def one_slot(gemm_id: int) -> BatchSchedule:
        def one(value):
            return np.array([value], np.int32)

        return BatchSchedule(
            tile_offsets=np.array([0, 1], np.int32),
            gemm_ids=one(gemm_id),
            strategy_ids=one(0),
            y_coords=one(0),
            x_coords=one(0),
            threads_per_block=256,
            shared_memory_bytes=1024,
            registers_per_thread=32,
        )

    @pytest.mark.parametrize("gemm_id", [-1, 2])
    def test_block_classes_rejects_stray_id(self, gemm_id):
        with pytest.raises(IndexError) as exc:
            self.one_slot(gemm_id).block_classes(self.BATCH)
        assert str(exc.value) == f"gemm id {gemm_id} out of range 0-1"

    @pytest.mark.parametrize("gemm_id", [-1, 2])
    def test_tiles_of_block_rejects_stray_id(self, gemm_id):
        with pytest.raises(IndexError) as exc:
            self.one_slot(gemm_id).tiles_of_block(0, self.BATCH)
        assert str(exc.value) == f"gemm id {gemm_id} out of range 0-1"
