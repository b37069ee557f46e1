"""Tests for the CoordinatedFramework facade."""

import dataclasses
import logging

import numpy as np
import pytest

from repro.core.framework import CoordinatedFramework, PlanReport
from repro.core.options import Heuristic
from repro.core.problem import Gemm, GemmBatch, Tile
from repro.gpu.simulator import KernelLaunch
from repro.kernels import ExecutionPolicy
from repro.kernels.compiled import compiled_plan_for
from repro.kernels.reference import reference_batched_gemm
from repro.workloads.synthetic import random_cases


class TestPlanning:
    def test_plan_returns_report(self, framework, small_batch):
        report = framework.plan(small_batch, heuristic="threshold")
        assert isinstance(report, PlanReport)
        assert report.heuristic_used == "threshold"
        assert report.schedule.num_tiles == report.batching.num_tiles

    def test_best_picks_a_paper_heuristic(self, framework, uniform_batch):
        report = framework.plan(uniform_batch, heuristic="best")
        assert report.heuristic_used in ("threshold", "binary")
        assert report.heuristic_requested == "best"

    def test_best_is_no_slower_than_either(self, framework, uniform_batch):
        best = framework.simulate(uniform_batch, heuristic="best").time_ms
        t = framework.simulate(uniform_batch, heuristic="threshold").time_ms
        b = framework.simulate(uniform_batch, heuristic="binary").time_ms
        assert best <= min(t, b) + 1e-12

    def test_best_logs_its_candidates_only_at_debug(
        self, framework, uniform_batch, caplog
    ):
        """The candidates summary is built and logged when DEBUG is on."""
        with caplog.at_level(logging.INFO, logger="repro.framework"):
            framework.plan(uniform_batch, heuristic="best")
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="repro.framework"):
            report = framework.plan(uniform_batch, heuristic="best")
        messages = [r.getMessage() for r in caplog.records]
        (message,) = [text for text in messages if "candidates" in text]
        head = f"plan(best): 256 -> {report.heuristic_used} (candidates: "
        assert message.startswith(head)
        assert "threshold=" in message and "binary=" in message

    def test_auto_without_selector_falls_back_to_best(self, framework, uniform_batch):
        report = framework.plan(uniform_batch, heuristic="auto")
        assert report.heuristic_used in ("threshold", "binary")

    def test_auto_with_selector(self, uniform_batch):
        class FakeSelector:
            def predict(self, batch):
                return "binary"

        fw = CoordinatedFramework(selector=FakeSelector())
        report = fw.plan(uniform_batch, heuristic="auto")
        assert report.heuristic_used == "binary"

    def test_unknown_heuristic_raises(self, framework, uniform_batch):
        with pytest.raises(ValueError):
            framework.plan(uniform_batch, heuristic="nonsense")

    def test_summary_mentions_key_facts(self, framework, small_batch):
        report = framework.plan(small_batch, heuristic="binary")
        text = report.summary()
        assert "binary" in text
        assert "256 threads" in text or "128 threads" in text
        assert "GEMM0" in text


class TestPlanEquality:
    def test_two_plans_of_one_batch_compare_equal(self, framework, small_batch):
        first = framework.plan(small_batch, heuristic="best")
        second = framework.plan(small_batch, heuristic="best")
        assert first.schedule == second.schedule
        assert first.batching == second.batching
        assert first == second

    def test_plans_of_different_heuristics_differ(self, framework, uniform_batch):
        threshold = framework.plan(uniform_batch, heuristic="threshold")
        binary = framework.plan(uniform_batch, heuristic="binary")
        assert threshold.schedule != binary.schedule
        assert threshold != binary

    @pytest.mark.parametrize("part", ["schedule", "report"])
    def test_derived_state_is_not_part_of_the_value(self, framework, small_batch, part):
        """An artifact or a simulation kept on a plan leaves its value alone."""
        held = framework.plan(small_batch, heuristic="binary")
        bare = framework.plan(small_batch, heuristic="binary")
        compiled_plan_for(held.schedule, small_batch)
        held.derived[framework.device] = framework.simulate_plan(held)
        if part == "schedule":
            held, bare = held.schedule, bare.schedule
            assert held.to_dict() == bare.to_dict()
        assert held.derived and not bare.derived
        assert held == bare
        assert repr(held) == repr(bare)
        assert dataclasses.replace(held).derived == {}


class TestColdPlanShape:
    """A cold ``Heuristic.BEST`` plan stays on integer arrays: no
    per-tile objects, and the simulator receives block classes instead
    of regrouping blocks by value."""

    def test_best_plan_builds_no_tile_and_groups_nothing(self, monkeypatch):
        batch = max(random_cases(64, seed=0, max_batch=8), key=len)
        framework = CoordinatedFramework()
        counts = {"tiles": 0, "groupings": 0}
        tile_post_init = Tile.__post_init__
        launch_init = KernelLaunch.__init__

        def counting_tile(self):
            counts["tiles"] += 1
            tile_post_init(self)

        def counting_launch(self, *args, **kwargs):
            counts["groupings"] += 1
            launch_init(self, *args, **kwargs)

        monkeypatch.setattr(Tile, "__post_init__", counting_tile)
        monkeypatch.setattr(KernelLaunch, "__init__", counting_launch)
        report = framework.plan(batch, Heuristic.BEST)
        assert report.schedule.num_tiles > 100
        assert counts == {"tiles": 0, "groupings": 0}
        # The wrappers do count: expanding the plan's blocks builds Tiles,
        # and a launch built from blocks groups them.
        assert len(report.batching.blocks) == report.schedule.num_blocks
        KernelLaunch("k", report.kernel_launch().blocks)
        assert counts == {"tiles": report.schedule.num_tiles, "groupings": 1}


class TestSimulation:
    def test_simulate_positive_time(self, framework, small_batch):
        r = framework.simulate(small_batch)
        assert r.time_ms > 0

    def test_tiling_only_uses_one_tile_per_block(self, framework, uniform_batch):
        report = framework.plan(uniform_batch, heuristic="one-per-block")
        assert report.batching.max_tiles_per_block == 1
        assert framework.tiling_only_simulate(uniform_batch).num_blocks == (
            report.schedule.num_tiles
        )

    def test_more_work_takes_longer(self, framework):
        small = framework.simulate(GemmBatch.uniform(64, 64, 64, 2))
        big = framework.simulate(GemmBatch.uniform(512, 512, 512, 8))
        assert big.time_ms > small.time_ms

    def test_deterministic(self, framework, small_batch):
        t1 = framework.simulate(small_batch).time_ms
        t2 = framework.simulate(small_batch).time_ms
        assert t1 == t2


class TestExecution:
    @pytest.mark.parametrize("heuristic", ["threshold", "binary", "one-per-block"])
    def test_matches_reference(self, framework, small_batch, rng, heuristic):
        ops = small_batch.random_operands(rng)
        result = framework.execute(small_batch, ops, heuristic=heuristic)
        expected = reference_batched_gemm(small_batch, ops)
        for got, want in zip(result, expected):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_alpha_beta_respected(self, framework, rng):
        batch = GemmBatch([Gemm(20, 20, 20, alpha=2.5, beta=-0.5)])
        ops = batch.random_operands(rng)
        result = framework.execute(batch, ops)
        expected = reference_batched_gemm(batch, ops)
        np.testing.assert_allclose(result[0], expected[0], rtol=1e-4, atol=1e-4)

    def test_inputs_not_modified(self, framework, small_batch, rng):
        ops = small_batch.random_operands(rng)
        copies = [(a.copy(), b.copy(), c.copy()) for a, b, c in ops]
        framework.execute(small_batch, ops)
        for (a, b, c), (a2, b2, c2) in zip(ops, copies):
            np.testing.assert_array_equal(a, a2)
            np.testing.assert_array_equal(c, c2)

    def test_engines_bit_identical(self, framework, small_batch, rng):
        ops = small_batch.random_operands(rng)
        compiled = framework.execute(
            small_batch, ops, policy=ExecutionPolicy(engine="compiled")
        )
        reference = framework.execute(
            small_batch, ops, policy=ExecutionPolicy(engine="reference")
        )
        for c, r in zip(compiled, reference):
            np.testing.assert_array_equal(c, r)

    def test_unknown_engine_rejected(self, framework, small_batch, rng):
        ops = small_batch.random_operands(rng)
        with pytest.raises(ValueError, match="unknown execution engine"):
            framework.execute(
                small_batch, ops, policy=ExecutionPolicy(engine="quantum")
            )
