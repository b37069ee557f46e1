"""Tests for the planner stage's plan-derived state."""

from __future__ import annotations

import gc
import weakref

from repro.core.plancache import PlanCache
from repro.core.problem import Gemm
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
