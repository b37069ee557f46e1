"""Tests for schedule serialization and plan explanation."""

import json

import numpy as np
import pytest

from repro.core.schedule import BatchSchedule


class TestScheduleSerialization:
    def test_round_trip(self, framework, small_batch):
        report = framework.plan(small_batch, heuristic="binary")
        data = json.loads(json.dumps(report.schedule.to_dict()))
        rebuilt = BatchSchedule.from_dict(data)
        np.testing.assert_array_equal(rebuilt.tile_offsets, report.schedule.tile_offsets)
        np.testing.assert_array_equal(rebuilt.gemm_ids, report.schedule.gemm_ids)
        np.testing.assert_array_equal(rebuilt.strategy_ids, report.schedule.strategy_ids)
        assert rebuilt.threads_per_block == report.schedule.threads_per_block
        assert rebuilt.shared_memory_bytes == report.schedule.shared_memory_bytes

    def test_rebuilt_schedule_executes(self, framework, small_batch, rng):
        from repro.kernels.persistent import execute_schedule
        from repro.kernels.reference import reference_batched_gemm

        report = framework.plan(small_batch, heuristic="threshold")
        rebuilt = BatchSchedule.from_dict(report.schedule.to_dict())
        ops = small_batch.random_operands(rng)
        got = execute_schedule(rebuilt, small_batch, ops)
        want = reference_batched_gemm(small_batch, ops)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-4)

    def test_missing_field_rejected(self, framework, small_batch):
        data = framework.plan(small_batch).schedule.to_dict()
        del data["gemm_ids"]
        with pytest.raises(ValueError, match="missing field"):
            BatchSchedule.from_dict(data)

    def test_dict_is_json_compatible(self, framework, uniform_batch):
        data = framework.plan(uniform_batch).schedule.to_dict()
        json.dumps(data)  # must not raise


class TestExplainPlan:
    def test_mentions_key_quantities(self, framework, small_batch):
        report = framework.plan(small_batch, heuristic="binary")
        text = framework.explain_plan(report)
        assert "occupancy" in text
        assert "concurrency" in text
        assert "L2 hit fraction" in text
        assert "block" in text

    def test_top_parameter(self, framework, uniform_batch):
        report = framework.plan(uniform_batch, heuristic="one-per-block")
        short = framework.explain_plan(report, top=1)
        long = framework.explain_plan(report, top=4)
        assert len(long.splitlines()) > len(short.splitlines())

    def test_critical_blocks_sorted(self, framework, small_batch):
        report = framework.plan(small_batch, heuristic="threshold")
        text = framework.explain_plan(report, top=3)
        costs = [
            float(line.rsplit("-> ", 1)[1].split(" us")[0])
            for line in text.splitlines()
            if "-> " in line
        ]
        assert costs == sorted(costs, reverse=True)

    @pytest.mark.parametrize("keep_options", [True, False])
    @pytest.mark.parametrize("precision", ["fp32", "fp16", "bf16"])
    def test_makespan_matches_simulation(self, precision, keep_options):
        """explain_plan and the span-tree timeline price the simulated launch.

        A report that carries no options is priced at fp32 by all three,
        whatever the framework's own precision.
        """
        from dataclasses import replace

        from repro.analysis import render_plan_trace
        from repro.core.framework import CoordinatedFramework
        from repro.core.options import Heuristic
        from repro.nn.googlenet import GOOGLENET_INCEPTIONS, inception_branch_batch
        from repro.telemetry import tracing

        fw = CoordinatedFramework(precision=precision)
        batch = inception_branch_batch(GOOGLENET_INCEPTIONS[0])
        with tracing() as tracer:
            report = fw.plan(batch, Heuristic.THRESHOLD)
        if not keep_options:
            report = replace(report, options=None)
        us = fw.device.cycles_to_ms(fw.simulate_plan(report).cycles) * 1e3
        assert f"makespan {us:.1f} us" in fw.explain_plan(report)
        assert f"makespan {us:.1f} us" in render_plan_trace(tracer, fw.device, report)
