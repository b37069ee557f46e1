"""Tests for the standalone schedule validator."""

import numpy as np
import pytest

from repro.core.validation import ValidationReport, validate_schedule
from repro.core.problem import GemmBatch


def plan_schedule(framework, batch, heuristic="binary"):
    return framework.plan(batch, heuristic=heuristic).schedule


class TestValidSchedules:
    @pytest.mark.parametrize("heuristic", ["one-per-block", "threshold", "binary", "greedy-packing"])
    def test_framework_output_validates(self, framework, small_batch, heuristic):
        sched = plan_schedule(framework, small_batch, heuristic)
        report = validate_schedule(sched, small_batch)
        assert report.ok, report.errors

    def test_round_tripped_schedule_validates(self, framework, uniform_batch):
        from repro.core.schedule import BatchSchedule

        sched = plan_schedule(framework, uniform_batch)
        rebuilt = BatchSchedule.from_dict(sched.to_dict())
        assert validate_schedule(rebuilt, uniform_batch).ok

    def test_raise_if_invalid_noop_when_ok(self, framework, uniform_batch):
        sched = plan_schedule(framework, uniform_batch)
        validate_schedule(sched, uniform_batch).raise_if_invalid()


class TestBrokenSchedules:
    def test_gemm_id_out_of_range(self, framework, small_batch):
        sched = plan_schedule(framework, small_batch)
        sched.gemm_ids[0] = 99
        report = validate_schedule(sched, small_batch)
        assert not report.ok
        assert any("out of range" in e for e in report.errors)

    def test_strategy_id_out_of_range(self, framework, small_batch):
        sched = plan_schedule(framework, small_batch)
        sched.strategy_ids[0] = 55
        assert any(
            "strategy index" in e for e in validate_schedule(sched, small_batch).errors
        )

    def test_coordinate_outside_grid(self, framework, small_batch):
        sched = plan_schedule(framework, small_batch)
        sched.y_coords[0] = 1000
        assert any("outside" in e for e in validate_schedule(sched, small_batch).errors)

    def test_duplicate_tile(self, framework, small_batch):
        sched = plan_schedule(framework, small_batch, heuristic="one-per-block")
        sched.y_coords[1] = sched.y_coords[0]
        sched.x_coords[1] = sched.x_coords[0]
        sched.gemm_ids[1] = sched.gemm_ids[0]
        sched.strategy_ids[1] = sched.strategy_ids[0]
        errors = validate_schedule(sched, small_batch).errors
        assert any("covered repeatedly" in e for e in errors)

    def test_wrong_batch_detected(self, framework, small_batch):
        """A schedule validated against the wrong batch must fail."""
        sched = plan_schedule(framework, small_batch)
        other = GemmBatch.from_shapes([(500, 500, 500)] * 2)
        report = validate_schedule(sched, other)
        assert not report.ok

    def test_thread_structure_violation(self, framework, uniform_batch):
        sched = plan_schedule(framework, uniform_batch)
        # Point a slot at a 128-thread strategy in a 256-thread kernel.
        sched.strategy_ids[0] = 6  # small/128
        errors = validate_schedule(sched, uniform_batch).errors
        assert any("unified thread structure" in e for e in errors)

    def test_understated_footprint(self, framework, uniform_batch):
        import dataclasses

        sched = plan_schedule(framework, uniform_batch)
        shrunk = dataclasses.replace(sched, shared_memory_bytes=16)
        errors = validate_schedule(shrunk, uniform_batch).errors
        assert any("understates" in e for e in errors)

    def test_raise_if_invalid_lists_errors(self, framework, small_batch):
        sched = plan_schedule(framework, small_batch)
        sched.gemm_ids[0] = 99
        with pytest.raises(ValueError, match="invalid schedule"):
            validate_schedule(sched, small_batch).raise_if_invalid()


class TestWarnings:
    def test_monster_block_warning(self, framework):
        """theta-batching many tiny-K tiles builds monster blocks; the
        validator flags them as a performance smell."""
        batch = GemmBatch.uniform(256, 256, 8, 64)
        sched = plan_schedule(framework, batch, heuristic="threshold")
        report = validate_schedule(sched, batch)
        assert report.ok
        assert any("monster" in w for w in report.warnings)
