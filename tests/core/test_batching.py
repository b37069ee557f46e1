"""Tests for the batching engine (Section 5)."""

import pytest

from repro.core.batching import (
    BatchingResult,
    batch_tiles,
    binary_batching,
    greedy_packing_batching,
    one_tile_per_block,
    threshold_batching,
)
from repro.core.problem import Tile


def make_tiles(ks, strategy_index=0):
    return [
        Tile(gemm_index=i, y=0, x=i, strategy_index=strategy_index, k=k)
        for i, k in enumerate(ks)
    ]


def flatten(result: BatchingResult):
    return [t for block in result.blocks for t in block]


class TestThresholdBatching:
    def test_accumulates_until_theta(self):
        tiles = make_tiles([64] * 8)
        r = threshold_batching(tiles, threads_per_block=256, theta=256, tlp_threshold=2)
        # 64*4 = 256 >= theta after four tiles.
        assert [len(b) for b in r.blocks] == [4, 4]

    def test_stops_at_theta_exactly(self):
        tiles = make_tiles([256, 256])
        r = threshold_batching(tiles, 256, theta=256, tlp_threshold=2)
        assert [len(b) for b in r.blocks] == [1, 1]

    def test_tlp_guard_degenerates_to_one_per_block(self):
        """When prospective TLP is strictly below half the threshold,
        every remaining tile gets its own block."""
        tiles = make_tiles([16] * 10)
        # prospective = 10 * 256 = 2560 < threshold // 2 = 3840.
        r = threshold_batching(tiles, threads_per_block=256, theta=256, tlp_threshold=3 * 10 * 256)
        assert all(len(b) == 1 for b in r.blocks)
        assert r.num_blocks == 10

    def test_tlp_guard_boundary_still_batches(self):
        """Prospective TLP exactly at half the threshold keeps batching.

        The paper says the per-block workload guard applies while TLP
        is "not less than" the budget, so the exact-half boundary is on
        the batching side; regression for the historical off-by-one
        that switched to one-per-block at exact equality.
        """
        tiles = make_tiles([64] * 8)
        # prospective = 8 * 256 = 2048 == 4096 // 2 -> must batch:
        # first block takes four tiles (64 * 4 = 256 >= theta); the
        # projection then drops below half, so the rest ride alone.
        r = threshold_batching(tiles, threads_per_block=256, theta=256, tlp_threshold=4096)
        assert [len(b) for b in r.blocks] == [4, 1, 1, 1, 1]

    def test_guard_trips_midway(self):
        """Batching proceeds while TLP is plentiful, then switches to
        one-per-block as the projection falls below threshold/2."""
        tiles = make_tiles([16] * 100)
        # threshold/2 = 40*256 -> batching stops once remaining+blocks <= 40.
        r = threshold_batching(tiles, 256, theta=256, tlp_threshold=80 * 256)
        sizes = [len(b) for b in r.blocks]
        assert max(sizes) > 1 and min(sizes) == 1
        assert r.num_tiles == 100

    def test_preserves_order_within_blocks(self):
        tiles = make_tiles([100, 100, 100, 100])
        r = threshold_batching(tiles, 256, theta=256, tlp_threshold=2)
        assert flatten(r) == tiles

    def test_heuristic_name(self):
        r = threshold_batching(make_tiles([8]), 256)
        assert r.heuristic == "threshold"


class TestBinaryBatching:
    def test_pairs_min_with_max(self):
        tiles = make_tiles([10, 500, 40, 200])
        r = binary_batching(tiles, 256, theta=256)
        pairs = sorted(tuple(sorted(t.k for t in b)) for b in r.blocks)
        assert pairs == [(10, 500), (40, 200)]

    def test_odd_count_leaves_median_alone(self):
        tiles = make_tiles([10, 20, 30])
        r = binary_batching(tiles, 256)
        sizes = sorted(len(b) for b in r.blocks)
        assert sizes == [1, 2]
        singleton = next(b for b in r.blocks if len(b) == 1)
        assert singleton[0].k == 20

    def test_single_tile(self):
        r = binary_batching(make_tiles([77]), 256)
        assert r.num_blocks == 1 and r.max_tiles_per_block == 1

    def test_at_most_two_tiles_per_block(self):
        tiles = make_tiles(list(range(8, 520, 8)))
        r = binary_batching(tiles, 256)
        assert r.max_tiles_per_block <= 2

    def test_every_tile_exactly_once(self):
        tiles = make_tiles([3, 1, 4, 1, 5, 9, 2, 6])
        r = binary_batching(tiles, 256)
        assert sorted(t.x for t in flatten(r)) == list(range(8))

    def test_theta_stop_emits_singletons(self):
        """Regression for the theta-blind pairing bug.

        Four tiles of K=300 against theta=256: the old unconditional
        min-with-max pairing produced two K=600 blocks with objective
        |2 * (600 - 256)| = 688, while singleton blocks achieve
        |4 * (300 - 256)| = 176.  Since even the smallest available
        pair (300 + 300) meets theta, pairing must stop.
        """
        theta = 256
        tiles = make_tiles([300] * 4)
        r = binary_batching(tiles, 256, theta=theta)
        assert [len(b) for b in r.blocks] == [1, 1, 1, 1]
        objective = abs(sum(sum(t.k for t in b) - theta for b in r.blocks))
        old_pairing_objective = abs(2 * (600 - theta))
        assert objective == 176 < old_pairing_objective == 688

    def test_theta_stop_midway_keeps_earlier_pairs(self):
        """Pairing runs min-with-max until the smallest remaining pair
        meets theta, then the rest become singletons."""
        tiles = make_tiles([10, 20, 240, 250])
        r = binary_batching(tiles, 256, theta=256)
        shapes = sorted(tuple(sorted(t.k for t in b)) for b in r.blocks)
        # (10, 250) pairs (10 + 20 < theta); then 20 + 240 >= theta
        # stops the pairing, so 20 and 240 ride alone.
        assert shapes == [(10, 250), (20,), (240,)]

    def test_all_pairs_below_theta_keeps_full_pairing(self):
        tiles = make_tiles([10, 20, 30, 40])
        r = binary_batching(tiles, 256, theta=256)
        assert sorted(len(b) for b in r.blocks) == [2, 2]


class TestOneTilePerBlock:
    def test_identity_partition(self):
        tiles = make_tiles([8, 16, 24])
        r = one_tile_per_block(tiles, 256)
        assert [len(b) for b in r.blocks] == [1, 1, 1]
        assert flatten(r) == tiles


class TestDispatch:
    @pytest.mark.parametrize("name", ["threshold", "binary", "one-per-block"])
    def test_by_name(self, name):
        r = batch_tiles(make_tiles([8, 8]), 256, heuristic=name)
        assert r.heuristic == name

    def test_unknown_heuristic(self):
        with pytest.raises(ValueError, match="unknown batching heuristic"):
            batch_tiles(make_tiles([8]), 256, heuristic="magic")

    def test_empty_tiles_rejected(self):
        with pytest.raises(ValueError):
            batch_tiles([], 256, heuristic="binary")

    @pytest.mark.parametrize("threads,theta", [(0, 256), (256, 0), (-1, 256)])
    def test_invalid_params_rejected(self, threads, theta):
        with pytest.raises(ValueError):
            batch_tiles(make_tiles([8]), threads, heuristic="binary", theta=theta)


class TestBatchingResult:
    def test_statistics(self):
        tiles = make_tiles([10, 20, 30, 40])
        r = binary_batching(tiles, 256)
        assert r.num_blocks == 2
        assert r.num_tiles == 4
        assert r.mean_k_per_block == 50.0

    def test_equal_results_compare_equal(self):
        tiles = make_tiles([10, 20, 30, 40, 50])
        for name in ("threshold", "binary", "one-per-block"):
            assert batch_tiles(tiles, 256, name) == batch_tiles(list(tiles), 256, name)

    def test_equality_is_by_blocks_not_representation(self):
        r = binary_batching(make_tiles([10, 500, 40, 200]), 256)
        assert BatchingResult.from_blocks(r.blocks, "binary", 256) == r
        assert BatchingResult.from_blocks(r.blocks, "binary", 128) != r
        assert BatchingResult.from_blocks(r.blocks[::-1], "binary", 256) != r
        assert batch_tiles(make_tiles([10, 20]), 256, "threshold") != batch_tiles(
            make_tiles([10, 21]), 256, "threshold"
        )

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            BatchingResult.from_blocks(((),), heuristic="x", theta=1)
