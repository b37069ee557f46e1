"""Tests for the event-driven cross-check simulator."""

import numpy as np
import pytest

from repro.core.framework import CoordinatedFramework
from repro.core.options import Heuristic
from repro.core.problem import GemmBatch
from repro.core.tiling import strategy_by_name
from repro.gpu.costmodel import BlockWork, TileWork
from repro.gpu.event_sim import simulate_kernel_events
from repro.gpu.simulator import KernelLaunch, simulate_kernel
from repro.gpu.specs import VOLTA_V100 as V100
from repro.nn.googlenet import GOOGLENET_INCEPTIONS, inception_branch_batch
from repro.workloads.synthetic import fig8_grid, random_cases

MEDIUM = strategy_by_name("medium", 256)


def uniform_blocks(n, k=64, tiles=1):
    tile = TileWork(MEDIUM, k=k)
    block = BlockWork(
        threads=MEDIUM.threads,
        registers_per_thread=MEDIUM.registers_per_thread,
        shared_memory_bytes=MEDIUM.shared_memory_bytes,
        tiles=(tile,) * tiles,
    )
    return (block,) * n


class TestEventSim:
    def test_positive_makespan(self):
        assert simulate_kernel_events(V100, uniform_blocks(100)) > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            simulate_kernel_events(V100, [])

    def test_scales_with_blocks_beyond_capacity(self):
        small = simulate_kernel_events(V100, uniform_blocks(500))
        big = simulate_kernel_events(V100, uniform_blocks(4000))
        assert big > 3 * small

    def test_deterministic(self):
        blocks = uniform_blocks(321, k=72)
        assert simulate_kernel_events(V100, blocks) == simulate_kernel_events(V100, blocks)

    def test_more_work_takes_longer(self):
        shallow = simulate_kernel_events(V100, uniform_blocks(200, k=16))
        deep = simulate_kernel_events(V100, uniform_blocks(200, k=512))
        assert deep > shallow

    def test_imbalanced_launch_completes(self):
        """Monsters next to minnows -- the shape the static fixed point
        approximates worst -- must still terminate and be tail-bound."""
        monster = BlockWork(
            threads=MEDIUM.threads,
            registers_per_thread=MEDIUM.registers_per_thread,
            shared_memory_bytes=MEDIUM.shared_memory_bytes,
            tiles=(TileWork(MEDIUM, k=2048),) * 4,
        )
        blocks = uniform_blocks(200, k=16) + (monster,)
        makespan = simulate_kernel_events(V100, blocks)
        alone = simulate_kernel_events(V100, (monster,))
        assert makespan >= alone * 0.9


class TestAgreementWithFixedPoint:
    """The validation contract: the fast static estimate stays within a
    bounded factor of the event-driven reference across workloads."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_cases_within_band(self, seed):
        fw = CoordinatedFramework(V100)
        for batch in random_cases(n_cases=4, seed=seed):
            plan = fw.plan(batch, heuristic="best")
            comp = float(batch.compulsory_ab_bytes)
            launch = KernelLaunch.of_classes(
                "k", *plan.schedule.block_classes(plan.batch), compulsory_ab_bytes=comp
            )
            static = simulate_kernel(V100, launch, include_launch_overhead=False).cycles
            event = simulate_kernel_events(V100, launch.blocks, compulsory_ab_bytes=comp)
            assert 0.5 <= event / static <= 2.0, (batch, event / static)

    def test_grid_cases_within_band(self):
        fw = CoordinatedFramework(V100)
        ratios = []
        for cell in fig8_grid(batch_sizes=(4, 16), mn_values=(128,), k_values=(16, 256)):
            plan = fw.plan(cell.batch, heuristic="best")
            comp = float(cell.batch.compulsory_ab_bytes)
            launch = KernelLaunch.of_classes(
                "k", *plan.schedule.block_classes(plan.batch), compulsory_ab_bytes=comp
            )
            static = simulate_kernel(V100, launch, include_launch_overhead=False).cycles
            ratios.append(
                simulate_kernel_events(V100, launch.blocks, compulsory_ab_bytes=comp)
                / static
            )
        assert 0.7 <= float(np.median(ratios)) <= 1.4


class TestHalfWidth:
    def test_bf16_priced_on_the_fp16_datapath(self):
        """fp16 and bf16 share the half-width datapath in the cost model,
        so the cross-check must not price bf16 at the fp32 FMA rate."""
        module = next(m for m in GOOGLENET_INCEPTIONS if m.name == "inception4b")
        batch = inception_branch_batch(module)
        makespans = {}
        for precision in ("fp32", "fp16", "bf16"):
            fw = CoordinatedFramework(V100, precision=precision)
            launch = fw.plan(batch, Heuristic.THRESHOLD).kernel_launch()
            makespans[precision] = simulate_kernel_events(
                V100, launch.blocks, compulsory_ab_bytes=launch.compulsory_ab_bytes
            )
        assert makespans["bf16"] == makespans["fp16"] < makespans["fp32"]

    def test_tensor_core_issue_packing_applied(self):
        """The cost model divides a half-width tile's issue term by the
        Tensor-Core packing factor on parts that have Tensor Cores; the
        cross-check must too, or fp16 launches run issue-bound in it and
        drift from the fixed point (ratio 1.36 on inception4b without
        the packing)."""
        module = next(m for m in GOOGLENET_INCEPTIONS if m.name == "inception4b")
        batch = inception_branch_batch(module)
        fw = CoordinatedFramework(V100, precision="fp16")
        launch = fw.plan(batch, Heuristic.THRESHOLD).kernel_launch()
        events = simulate_kernel_events(
            V100, launch.blocks, compulsory_ab_bytes=launch.compulsory_ab_bytes
        )
        assert events / simulate_kernel(V100, launch).cycles < 1.2
