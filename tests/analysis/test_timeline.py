"""Tests for the ASCII timeline renderer."""

import pytest

from repro.analysis.timeline import build_timeline, render_timeline
from repro.core.framework import CoordinatedFramework
from repro.core.problem import GemmBatch
from repro.core.tiling import strategy_by_name
from repro.gpu.costmodel import BlockWork, TileWork
from repro.gpu.simulator import KernelLaunch
from repro.gpu.specs import VOLTA_V100 as V100

MEDIUM = strategy_by_name("medium", 256)


def blocks_of(n, k=64):
    tile = TileWork(MEDIUM, k=k)
    block = BlockWork(
        threads=MEDIUM.threads,
        registers_per_thread=MEDIUM.registers_per_thread,
        shared_memory_bytes=MEDIUM.shared_memory_bytes,
        tiles=(tile,),
    )
    return KernelLaunch("t", (block,) * n)


class TestBuildTimeline:
    def test_segments_cover_all_blocks(self):
        slots, makespan = build_timeline(V100, blocks_of(40), max_slots=10**6)
        placed = sum(len(s.segments) for s in slots)
        assert placed == 40
        assert makespan > 0

    def test_segments_do_not_overlap_within_slot(self):
        slots, _ = build_timeline(V100, blocks_of(2000), max_slots=10**6)
        for slot in slots:
            segs = sorted(slot.segments)
            for (s1, e1, _), (s2, _e2, _) in zip(segs, segs[1:]):
                assert s2 >= e1 - 1e-9

    def test_max_slots_truncates(self):
        slots, _ = build_timeline(V100, blocks_of(100), max_slots=5)
        assert len(slots) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_timeline(V100, KernelLaunch("t", ()))


class TestRenderTimeline:
    def test_renders_rows(self):
        text = render_timeline(V100, blocks_of(30), max_slots=4, width=40)
        lines = text.splitlines()
        assert lines[0].startswith("makespan")
        assert len(lines) == 5
        assert all(len(l.split("|")[1]) == 40 for l in lines[1:])

    def test_busy_launch_fills_rows(self):
        text = render_timeline(V100, blocks_of(5000), max_slots=3, width=30)
        body = "".join(l.split("|")[1] for l in text.splitlines()[1:])
        assert body.count(".") < len(body) * 0.2

    def test_sparse_launch_mostly_idle_rows(self):
        """A 4-block launch on 560 slots: later slots stay idle."""
        text = render_timeline(V100, blocks_of(4), max_slots=8, width=30)
        rows = [l.split("|")[1] for l in text.splitlines()[1:]]
        assert any(set(r) == {"."} for r in rows[4:])

    def test_width_validation(self):
        with pytest.raises(ValueError):
            render_timeline(V100, blocks_of(4), width=4)

    def test_framework_schedule_renders(self, framework):
        batch = GemmBatch.uniform(64, 64, 32, 6)
        plan = framework.plan(batch, heuristic="binary")
        text = render_timeline(V100, plan.kernel_launch())
        assert "makespan" in text
