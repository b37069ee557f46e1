"""Tests for the implicit-GEMM convolution path."""

import numpy as np
import pytest

from repro.core.batching import batch_tiles
from repro.core.problem import GemmBatch
from repro.core.schedule import build_schedule, enumerate_tiles
from repro.core.tiling import select_tiling
from repro.nn.googlenet import GOOGLENET_INCEPTIONS
from repro.nn.im2col import conv2d_direct, im2col
from repro.nn.implicit_gemm import (
    conv2d_implicit_gemm,
    execute_schedule_implicit,
    gather_b_tile,
)
from repro.nn.layers import ConvLayer, conv_to_gemm


@pytest.fixture
def layer():
    return ConvLayer("t", in_channels=2, out_channels=4, kernel=3, in_h=7, in_w=7, padding=1)


@pytest.fixture
def conv_data(rng, layer):
    x = rng.standard_normal((2, 7, 7)).astype(np.float32)
    w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
    return x, w


class TestGatherBTile:
    def test_matches_materialized_im2col(self, conv_data, layer):
        x, _ = conv_data
        full = im2col(x, layer)
        gemm = conv_to_gemm(layer)
        tile = gather_b_tile(x, layer, 3, 11, 5, 20)
        np.testing.assert_array_equal(tile, full[3:11, 5:20])

    def test_whole_matrix(self, conv_data, layer):
        x, _ = conv_data
        gemm = conv_to_gemm(layer)
        tile = gather_b_tile(x, layer, 0, gemm.k, 0, gemm.n)
        np.testing.assert_array_equal(tile, im2col(x, layer))

    def test_padding_reads_zero(self, layer, rng):
        x = np.ones((2, 7, 7), dtype=np.float32)
        # Row 0 = channel 0, tap (dy=0, dx=0); column 0 = output (0,0):
        # with padding 1 that tap is out of bounds.
        tile = gather_b_tile(x, layer, 0, 1, 0, 1)
        assert tile[0, 0] == 0.0

    def test_invalid_bounds(self, conv_data, layer):
        x, _ = conv_data
        with pytest.raises(ValueError):
            gather_b_tile(x, layer, -1, 2, 0, 2)


class TestImplicitConv:
    def test_matches_direct(self, conv_data, layer):
        x, w = conv_data
        got = conv2d_implicit_gemm(x, w, layer)
        want = conv2d_direct(x, w, layer)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_strided(self, rng):
        layer = ConvLayer("s", 3, 2, 3, 9, 9, stride=2, padding=1)
        x = rng.standard_normal((3, 9, 9)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            conv2d_implicit_gemm(x, w, layer),
            conv2d_direct(x, w, layer),
            rtol=1e-4,
            atol=1e-4,
        )

    def test_tile_shape_invariance(self, conv_data, layer):
        x, w = conv_data
        a = conv2d_implicit_gemm(x, w, layer, by=4, bx=8, bk=3)
        b = conv2d_implicit_gemm(x, w, layer, by=16, bx=16, bk=8)
        np.testing.assert_allclose(a, b, rtol=1e-5)

    def test_weight_validation(self, conv_data, layer, rng):
        x, _ = conv_data
        with pytest.raises(ValueError):
            conv2d_implicit_gemm(x, rng.standard_normal((4, 2, 2, 2)).astype(np.float32), layer)


class TestBatchedImplicit:
    def test_framework_schedule_drives_implicit_convs(self, rng):
        """The paper's claim: the framework batches implicit GEMM
        unchanged.  Plan an inception-style batch of 1x1 convs, then
        execute the schedule through the implicit path."""
        layers = [
            ConvLayer(f"b{i}", in_channels=24, out_channels=oc, kernel=1, in_h=6, in_w=6)
            for i, oc in enumerate((8, 12, 4, 6))
        ]
        batch = GemmBatch(conv_to_gemm(l) for l in layers)
        decision = select_tiling(batch, 65536)
        tiles = enumerate_tiles(batch, decision)
        schedule = build_schedule(
            batch, decision, batch_tiles(tiles, decision.threads, "binary")
        )
        inputs = [rng.standard_normal((24, 6, 6)).astype(np.float32) for _ in layers]
        weights = [
            rng.standard_normal((l.out_channels, 24, 1, 1)).astype(np.float32)
            for l in layers
        ]
        outs = execute_schedule_implicit(schedule, batch, layers, inputs, weights)
        for out, l, x, w in zip(outs, layers, inputs, weights):
            want = conv2d_direct(x, w, l)
            np.testing.assert_allclose(out, want, rtol=1e-3, atol=1e-3)

    def test_schedule_not_tiling_the_batch_rejected(self, rng):
        """A repeated tile leaves another uncovered: an error, not zeros."""
        layers = [ConvLayer("a", 2, 4, 3, 7, 7, padding=1), ConvLayer("b", 3, 8, 1, 5, 5)]
        batch = GemmBatch(conv_to_gemm(l) for l in layers)
        decision = select_tiling(batch, 65536)
        tiles = enumerate_tiles(batch, decision)
        schedule = build_schedule(
            batch, decision, batch_tiles(tiles, decision.threads, "one-per-block")
        )
        assert schedule.gemm_ids[:2].tolist() == [0, 0]
        schedule.y_coords[0], schedule.x_coords[0] = schedule.y_coords[1], schedule.x_coords[1]
        inputs = [
            rng.standard_normal((l.in_channels, l.in_h, l.in_w)).astype(np.float32)
            for l in layers
        ]
        weights = [
            rng.standard_normal((l.out_channels, l.in_channels, l.kernel, l.kernel)).astype(
                np.float32
            )
            for l in layers
        ]
        with pytest.raises(ValueError, match="does not tile GEMM 0 exactly once"):
            execute_schedule_implicit(schedule, batch, layers, inputs, weights)

    def test_mismatched_batch_rejected(self, rng):
        layers = [ConvLayer("b", 4, 4, 1, 4, 4)]
        wrong_batch = GemmBatch.from_shapes([(3, 3, 3)])
        decision = select_tiling(wrong_batch, 65536)
        tiles = enumerate_tiles(wrong_batch, decision)
        schedule = build_schedule(
            wrong_batch, decision, batch_tiles(tiles, decision.threads, "one-per-block")
        )
        with pytest.raises(ValueError):
            execute_schedule_implicit(
                schedule,
                wrong_batch,
                layers,
                [np.zeros((4, 4, 4), np.float32)],
                [np.zeros((4, 4, 1, 1), np.float32)],
            )
