"""Tests for the planner stage's plan-derived state."""

from __future__ import annotations

import gc
import weakref

from repro.core.framework import CoordinatedFramework
from repro.core.plancache import PlanCache
from repro.core.problem import Gemm
from repro.gpu.specs import PASCAL_P100, VOLTA_V100
from repro.serve.batcher import FormedBatch
from repro.serve.planner import PlannerStage
from repro.serve.request import ServeRequest


def formed(batch_id: int, m: int) -> FormedBatch:
    request = ServeRequest(request_id=batch_id, gemm=Gemm(m, 16, 16), arrival_us=0.0)
    return FormedBatch(batch_id=batch_id, formed_us=0.0, trigger="size", requests=[request])


class TestSimulationLifetime:
    def test_repeat_batch_reuses_its_simulation(self, framework, threshold):
        stage = PlannerStage(framework, PlanCache(framework), heuristic=threshold)
        first = stage.plan(formed(0, 32))
        second = stage.plan(formed(1, 32))
        assert second.cache_hit and second.report is first.report
        assert second.sim is first.sim

    def test_simulations_die_with_their_plans(self, framework, threshold):
        # The cache's capacity bounds every plan the stage keeps alive,
        # its simulation included: nothing else holds an evicted plan.
        stage = PlannerStage(
            framework, PlanCache(framework, capacity=8), heuristic=threshold
        )
        schedules = [
            weakref.ref(stage.plan(formed(i, 8 + i)).report.schedule)
            for i in range(30)
        ]
        gc.collect()
        assert sum(ref() is not None for ref in schedules) == 8

    def test_stages_of_two_devices_price_a_shared_plan_each_on_its_own(
        self, threshold
    ):
        v100 = CoordinatedFramework(device=VOLTA_V100)
        p100 = CoordinatedFramework(device=PASCAL_P100)
        cache = PlanCache(v100)
        on_v100 = PlannerStage(v100, cache, heuristic=threshold)
        on_p100 = PlannerStage(p100, cache, heuristic=threshold)
        first = on_v100.plan(formed(0, 32))
        second = on_p100.plan(formed(1, 32))
        assert second.cache_hit and second.report is first.report
        assert first.sim.time_us == v100.simulate_plan(first.report).time_us
        assert second.sim.time_us == p100.simulate_plan(first.report).time_us
        assert first.sim.time_us != second.sim.time_us
        assert on_v100.plan(formed(2, 32)).sim is first.sim
        assert on_p100.plan(formed(3, 32)).sim is second.sim
