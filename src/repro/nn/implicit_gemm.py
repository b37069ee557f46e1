"""Implicit-GEMM convolution.

The paper closes its case study with: "The other algorithm to compute
convolution is implicit GEMM, which can also be batched using our
proposed framework."  Implicit GEMM never materializes the im2col
matrix; each tile of the (virtual) GEMM gathers its B-operand entries
directly from the input tensor through index arithmetic.  The GEMM
*shape* -- and hence everything the tiling and batching engines see --
is identical to the explicit path, so the same schedules drive both.

This module provides the functional executor: given a schedule for the
conv-induced GEMM batch, compute each tile by on-the-fly patch
gathering, with memory-footprint parity to the device kernel (only one
``BK x BX`` B-tile is ever materialized at a time).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.problem import GemmBatch
from repro.core.schedule import BatchSchedule, check_schedule
from repro.core.tiling import strategy_by_index
from repro.nn.layers import ConvLayer, conv_to_gemm


def gather_b_tile(
    x: np.ndarray,
    layer: ConvLayer,
    k0: int,
    k_hi: int,
    n0: int,
    n_hi: int,
) -> np.ndarray:
    """Materialize rows ``[k0, k_hi)`` x columns ``[n0, n_hi)`` of the
    virtual im2col matrix directly from the input tensor.

    Row index k encodes ``(channel, dy, dx)`` (channel-major, matching
    :func:`repro.nn.im2col.im2col`); column index n encodes the output
    pixel ``(oy, ox)`` row-major.  Out-of-bounds taps (padding) read
    zero, exactly as the predicated device loads would.
    """
    if not (0 <= k0 <= k_hi and 0 <= n0 <= n_hi):
        raise ValueError("invalid tile bounds")
    kh = kw = layer.kernel
    ow = layer.out_w
    s, p = layer.stride, layer.padding
    tile = np.zeros((k_hi - k0, n_hi - n0), dtype=x.dtype)
    for k in range(k0, k_hi):
        ci, rem = divmod(k, kh * kw)
        dy, dx = divmod(rem, kw)
        for n in range(n0, n_hi):
            oy, ox = divmod(n, ow)
            iy = oy * s + dy - p
            ix = ox * s + dx - p
            if 0 <= iy < layer.in_h and 0 <= ix < layer.in_w:
                tile[k - k0, n - n0] = x[ci, iy, ix]
    return tile


def conv2d_implicit_gemm(
    x: np.ndarray,
    weights: np.ndarray,
    layer: ConvLayer,
    by: int = 16,
    bx: int = 16,
    bk: int = 8,
) -> np.ndarray:
    """Convolution via tiled implicit GEMM (no materialized im2col).

    Walks the C tiles of the virtual ``M x N`` output like the device
    kernel: for each K segment, gather the B tile from the input
    tensor, slice the A tile from the (reshaped) weights, accumulate.
    """
    if weights.shape != (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel):
        raise ValueError(
            f"weights shape {weights.shape} does not match layer {layer.name}"
        )
    gemm = conv_to_gemm(layer)
    a = weights.reshape(gemm.m, gemm.k)
    out = np.zeros((gemm.m, gemm.n), dtype=np.float64)
    for y0 in range(0, gemm.m, by):
        y_hi = min(y0 + by, gemm.m)
        for x0 in range(0, gemm.n, bx):
            x_hi = min(x0 + bx, gemm.n)
            acc = np.zeros((y_hi - y0, x_hi - x0), dtype=np.float64)
            for k0 in range(0, gemm.k, bk):
                k_hi = min(k0 + bk, gemm.k)
                b_tile = gather_b_tile(x, layer, k0, k_hi, x0, x_hi)
                acc += a[y0:y_hi, k0:k_hi].astype(np.float64) @ b_tile
            out[y0:y_hi, x0:x_hi] = acc
    return out.reshape(layer.out_channels, layer.out_h, layer.out_w).astype(x.dtype)


def execute_schedule_implicit(
    schedule: BatchSchedule,
    batch: GemmBatch,
    layers: Sequence[ConvLayer],
    inputs: Sequence[np.ndarray],
    weights: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Run a framework schedule as batched *implicit-GEMM* convolutions.

    ``batch`` must be the conv-induced GEMM batch
    (``conv_to_gemm(layer)`` per layer, batch size 1); the schedule is
    whatever the coordinated framework planned for it.  Each scheduled
    tile gathers its B operand from the layer's input tensor on the
    fly -- demonstrating the paper's claim that the framework batches
    implicit GEMM unchanged.  The schedule is checked first
    (:func:`~repro.core.schedule.check_schedule`).
    """
    if not (len(layers) == len(inputs) == len(weights) == len(batch)):
        raise ValueError("layers, inputs, weights and batch must align")
    for gemm, layer in zip(batch, layers):
        if gemm.shape != conv_to_gemm(layer).shape:
            raise ValueError(
                f"batch entry {gemm} does not match layer {layer.name}'s GEMM "
                f"{conv_to_gemm(layer)}"
            )

    origin_y, origin_x = check_schedule(schedule, batch)
    outputs = [
        np.zeros((g.m, g.n), dtype=inputs[i].dtype) for i, g in enumerate(batch)
    ]
    for block_id in range(schedule.num_blocks):
        begin = int(schedule.tile_offsets[block_id])
        end = int(schedule.tile_offsets[block_id + 1])
        for slot in range(begin, end):
            ind = int(schedule.gemm_ids[slot])
            gemm = batch[ind]
            layer = layers[ind]
            a = weights[ind].reshape(gemm.m, gemm.k)
            strat = strategy_by_index(int(schedule.strategy_ids[slot]))
            y0, x0 = int(origin_y[slot]), int(origin_x[slot])
            y_hi = min(y0 + strat.by, gemm.m)
            x_hi = min(x0 + strat.bx, gemm.n)
            acc = np.zeros((y_hi - y0, x_hi - x0), dtype=np.float64)
            for k0 in range(0, gemm.k, strat.bk):
                k_hi = min(k0 + strat.bk, gemm.k)
                b_tile = gather_b_tile(inputs[ind], layer, k0, k_hi, x0, x_hi)
                acc += a[y0:y_hi, k0:k_hi].astype(np.float64) @ b_tile
            outputs[ind][y0:y_hi, x0:x_hi] = acc.astype(outputs[ind].dtype)
    return [
        out.reshape(layer.out_channels, layer.out_h, layer.out_w)
        for out, layer in zip(outputs, layers)
    ]
