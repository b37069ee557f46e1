"""ASCII timeline rendering of a simulated kernel schedule.

Given a launch, render how blocks pack onto SM residency slots over
time -- the visual intuition behind waves, tails, and why batching
monster blocks hurts.  Text-only (this repository ships no plotting
dependency); each row is one slot, each glyph one time bucket.  Block
durations come from the simulator's fixed point over the launch's
block classes (:class:`~repro.gpu.simulator.KernelLaunch`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.gpu.occupancy import occupancy
from repro.gpu.simulator import KernelLaunch, _converge_kernel
from repro.gpu.specs import DeviceSpec

#: Glyphs cycle per block so adjacent blocks are distinguishable.
_GLYPHS = "#@%*+=o"


@dataclass(frozen=True)
class TimelineSlot:
    """One residency slot's occupancy segments: (start, end, block_id)."""

    segments: tuple[tuple[float, float, int], ...]


def build_timeline(
    device: DeviceSpec,
    launch: KernelLaunch,
    max_slots: int = 16,
) -> tuple[list[TimelineSlot], float]:
    """List-schedule the launch and return per-slot segments + makespan.

    Only the first ``max_slots`` slots are materialized (a V100 can
    have 560+; the picture repeats).
    """
    first = launch.classes[0]
    occ = occupancy(
        device, first.threads, first.registers_per_thread, first.shared_memory_bytes
    )
    if occ.blocks_per_sm == 0:
        raise ValueError("unlaunchable footprint")
    durations, makespan, _conc, _ctx = _converge_kernel(
        device, launch, occ.blocks_per_sm
    )
    slots = device.num_sms * occ.blocks_per_sm
    heap = [(0.0, i) for i in range(slots)]
    heapq.heapify(heap)
    segments: list[list[tuple[float, float, int]]] = [[] for _ in range(slots)]
    for block_id, d in enumerate(durations):
        start, slot = heapq.heappop(heap)
        end = start + d
        segments[slot].append((start, end, block_id))
        heapq.heappush(heap, (end, slot))
    out = [TimelineSlot(segments=tuple(s)) for s in segments[:max_slots]]
    return out, makespan


def render_timeline(
    device: DeviceSpec,
    launch: KernelLaunch,
    width: int = 72,
    max_slots: int = 12,
) -> str:
    """Render the launch as an ASCII gantt chart.

    Each row is one SM residency slot; time flows left to right across
    ``width`` buckets; '.' is idle.
    """
    if width < 8:
        raise ValueError(f"width must be >= 8, got {width}")
    slots, makespan = build_timeline(device, launch, max_slots)
    if makespan <= 0:
        makespan = 1.0
    scale = width / makespan
    lines = [
        f"makespan {device.cycles_to_ms(makespan) * 1e3:.1f} us across "
        f"{launch.num_blocks} blocks ('.'=idle, one row per SM slot, "
        f"first {len(slots)} slots):"
    ]
    for si, slot in enumerate(slots):
        row = ["."] * width
        for start, end, block_id in slot.segments:
            lo = min(width - 1, int(start * scale))
            hi = min(width, max(lo + 1, int(end * scale)))
            glyph = _GLYPHS[block_id % len(_GLYPHS)]
            for x in range(lo, hi):
                row[x] = glyph
        lines.append(f"slot{si:3d} |{''.join(row)}|")
    return "\n".join(lines)
