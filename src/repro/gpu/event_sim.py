"""Discrete-event kernel simulator (cross-check for the fixed point).

The production simulator (:mod:`repro.gpu.simulator`) prices every
block under one *converged average* context -- fast, but an
approximation when the launch is imbalanced (bandwidth shares really
change as blocks retire).  This module simulates the same launch as a
discrete-event system: blocks occupy SM slots, and whenever the set of
running blocks changes, the remaining work of every running block is
re-priced under the *current* contention.

It is O(events x running-blocks), so it is used for validation and
diagnostics rather than inside the planning loop.  The test suite
checks the two simulators agree within a tolerance across workload
shapes; large disagreement on a new workload is the signal to revisit
the fixed point's assumptions.

Model per block: total work is summarized as (FMA cycles at full
lanes, DRAM bytes, L2 bytes, issue cycles, serial overhead).  At any
instant a block progresses at a rate set by its most contended
resource, with device bandwidth divided among runners (capped by each
block's MLP ceiling) and SM lanes/issue divided among blocks resident
on the same SM.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from repro.gpu.costmodel import (
    EPILOGUE_CONST_CYCLES,
    PIPELINE_FILL_ITERS,
    TILE_SWITCH_CYCLES,
    BlockWork,
    TileTerms,
    l2_hit_fraction,
)
from repro.gpu.occupancy import occupancy
from repro.gpu.specs import DeviceSpec

#: Relative progress step per event round (numerical guard).
_EPS = 1e-9


@dataclass
class _RunState:
    """Mutable execution state of one running block."""

    index: int
    sm: int
    # Remaining demands, all in "cycles at exclusive use" except bytes.
    fma_cycles: float
    dram_bytes: float
    l2_bytes: float
    issue_cycles: float
    serial_cycles: float
    little_bw: float
    little_l2_bw: float
    warps: int


def _summarize(device: DeviceSpec, block: BlockWork, hit: float) -> _RunState:
    """Collapse a block's tiles into aggregate resource demands."""
    fma = 0.0
    dram = 0.0
    l2 = 0.0
    issue = 0.0
    serial = float(device.block_dispatch_cycles)
    little = 0.0
    little_l2 = 0.0
    warps = 0
    for i, tile in enumerate(block.tiles):
        # The cost model's per-tile terms: the same bytes, FMAs, lanes
        # (fp16 and bf16 share the half-width datapath), Tensor-Core
        # issue packing and ceilings.  The packing divides last, so
        # fp32 (divisor 1.0) keeps its exact issue cycles.
        terms = TileTerms.of(device, tile, hit)
        n = terms.n_iterations
        fma += n * terms.fmas / terms.lanes
        dram += (1.0 - hit) * n * terms.ab_bytes + tile.epilogue_bytes
        l2 += hit * n * terms.ab_bytes
        issue += (
            n
            * tile.active_warps
            * tile.insts_per_thread_per_iteration
            / device.warp_schedulers_per_sm
            / terms.issue_divisor
        )
        if i == 0:
            # Fill: one exposed round trip plus the pipeline ramp,
            # charged as serial time (approximating the cost model's
            # PIPELINE_FILL_ITERS x AB-only iteration).
            serial += device.mem_latency_cycles
            serial += PIPELINE_FILL_ITERS * (
                terms.ab_bytes / max(terms.little_dram, _EPS) if terms.ab_bytes else 0.0
            )
        else:
            serial += TILE_SWITCH_CYCLES
        serial += EPILOGUE_CONST_CYCLES
        little = max(little, terms.little_dram)
        little_l2 = max(little_l2, terms.little_l2)
        warps = max(warps, tile.active_warps)
    return _RunState(
        index=-1,
        sm=-1,
        fma_cycles=fma,
        dram_bytes=dram,
        l2_bytes=l2,
        issue_cycles=issue,
        serial_cycles=serial,
        little_bw=max(little, _EPS),
        little_l2_bw=max(little_l2, _EPS),
        warps=warps,
    )


def _finish_time(state: _RunState, dram_share: float, l2_share: float, sm_blocks: int) -> float:
    """Remaining wall time of a block under current contention.

    The block's streams progress concurrently; the slowest bounds it.
    Serial overhead adds on top (it overlaps with nothing of its own).
    """
    dram_bw = min(dram_share, state.little_bw)
    l2_bw = min(l2_share, state.little_l2_bw)
    times = [
        state.fma_cycles * sm_blocks,
        state.issue_cycles * sm_blocks,
        state.dram_bytes / dram_bw,
        state.l2_bytes / l2_bw,
    ]
    return max(times) + state.serial_cycles


def _drain(state: _RunState, dt: float, dram_share: float, l2_share: float, sm_blocks: int) -> None:
    """Advance a block's state by ``dt`` wall cycles."""
    total = _finish_time(state, dram_share, l2_share, sm_blocks)
    if total <= 0:
        return
    frac = min(1.0, dt / total)
    state.fma_cycles *= 1.0 - frac
    state.dram_bytes *= 1.0 - frac
    state.l2_bytes *= 1.0 - frac
    state.issue_cycles *= 1.0 - frac
    state.serial_cycles *= 1.0 - frac


def simulate_kernel_events(
    device: DeviceSpec,
    blocks: Sequence[BlockWork],
    blocks_per_sm: int | None = None,
    compulsory_ab_bytes: float | None = None,
) -> float:
    """Event-driven makespan (cycles) of a launch.

    Blocks are dispatched in issue order to the SM with the most free
    slots; whenever a block finishes, shares are recomputed and every
    running block is advanced.  Returns the makespan in cycles.
    """
    if not blocks:
        raise ValueError("no blocks to simulate")
    first = blocks[0]
    if blocks_per_sm is None:
        occ = occupancy(
            device, first.threads, first.registers_per_thread, first.shared_memory_bytes
        )
        if occ.blocks_per_sm == 0:
            raise ValueError("unlaunchable footprint")
        blocks_per_sm = occ.blocks_per_sm

    traffic_ab = float(
        sum(t.bytes_per_iteration * t.n_iterations for b in blocks for t in b.tiles)
    )
    hit = l2_hit_fraction(device, compulsory_ab_bytes, traffic_ab)

    pending = list(range(len(blocks)))
    pending.reverse()  # pop() dispatches in issue order
    sm_load = [0] * device.num_sms
    running: list[_RunState] = []
    now = 0.0
    total_l2_bw = device.l2_bandwidth_gbps / device.clock_ghz

    def dispatch() -> None:
        while pending:
            sm = min(range(device.num_sms), key=lambda i: sm_load[i])
            if sm_load[sm] >= blocks_per_sm:
                break
            idx = pending.pop()
            state = _summarize(device, blocks[idx], hit)
            state.index = idx
            state.sm = sm
            sm_load[sm] += 1
            running.append(state)

    dispatch()
    guard = 0
    max_events = 4 * len(blocks) + 16
    while running:
        guard += 1
        if guard > max_events:
            raise RuntimeError("event simulation failed to converge")
        n_running = len(running)
        dram_share = device.bytes_per_cycle_per_device / n_running
        l2_share = total_l2_bw / n_running
        finish = [
            _finish_time(s, dram_share, l2_share, sm_load[s.sm]) for s in running
        ]
        dt = max(min(finish), _EPS)
        now += dt
        survivors = []
        for s, f in zip(running, finish):
            if f <= dt * (1.0 + _EPS):
                sm_load[s.sm] -= 1
            else:
                _drain(s, dt, dram_share, l2_share, sm_load[s.sm])
                survivors.append(s)
        running = survivors
        dispatch()
    return now
