"""Tests for the grouped vectorized execution engine.

The contract under test is strict: ``execute_grouped`` must be
**bit-identical** (``np.array_equal``, not allclose) to the reference
persistent-threads walk for every schedule the planner can produce --
all twelve Table-2 strategies, transposed operands, alpha/beta
epilogues, and ragged edge tiles.
"""

from __future__ import annotations

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.batching import batch_tiles
from repro.core.problem import Gemm, GemmBatch
from repro.core.schedule import BatchSchedule, build_schedule, enumerate_tiles
from repro.core.tiling import ALL_BATCHED_STRATEGIES, select_tiling
from repro.kernels.grouped import (
    GroupedPlan,
    execute_grouped,
    grouped_plan_for,
    lower_schedule,
)
from repro.kernels.persistent import execute_schedule
from repro.kernels.reference import reference_batched_gemm


def make_schedule(batch, heuristic="threshold", threshold=65536):
    decision = select_tiling(batch, threshold)
    tiles = enumerate_tiles(batch, decision)
    batching = batch_tiles(tiles, decision.threads, heuristic)
    return build_schedule(batch, decision, batching)


def forced_schedule(batch: GemmBatch, strategy_index: int) -> BatchSchedule:
    """A one-block schedule that tiles every GEMM with one strategy.

    The planner picks strategies by shape, so exercising all twelve
    table entries requires building the five arrays by hand (the
    executors read only the arrays, exactly like the device kernel).
    """
    strat = ALL_BATCHED_STRATEGIES[strategy_index]
    gemm_ids, y_coords, x_coords = [], [], []
    for gi, gemm in enumerate(batch):
        grid_y = -(-gemm.m // strat.by)
        grid_x = -(-gemm.n // strat.bx)
        for ty in range(grid_y):
            for tx in range(grid_x):
                gemm_ids.append(gi)
                y_coords.append(ty)
                x_coords.append(tx)
    n = len(gemm_ids)
    return BatchSchedule(
        tile_offsets=np.array([0, n], dtype=np.int32),
        gemm_ids=np.array(gemm_ids, dtype=np.int32),
        strategy_ids=np.full(n, strategy_index, dtype=np.int32),
        y_coords=np.array(y_coords, dtype=np.int32),
        x_coords=np.array(x_coords, dtype=np.int32),
        threads_per_block=strat.threads,
        shared_memory_bytes=strat.shared_memory_bytes,
        registers_per_thread=strat.registers_per_thread,
    )


def assert_bit_identical(schedule, batch, ops):
    ref = execute_schedule(schedule, batch, ops)
    got = execute_grouped(schedule, batch, ops)
    for gi, (want, have) in enumerate(zip(ref, got)):
        assert want.dtype == have.dtype, f"GEMM {gi} dtype drift"
        assert np.array_equal(want, have), (
            f"GEMM {gi}: grouped engine diverges from the reference walk "
            f"(max |delta| = {np.max(np.abs(want - have))})"
        )
    return got


class TestBitExactEquivalence:
    @pytest.mark.parametrize("strategy_index", range(len(ALL_BATCHED_STRATEGIES)))
    def test_all_table2_strategies(self, rng, strategy_index):
        """Every Table-2 entry, on shapes ragged in M, N, and K."""
        strat = ALL_BATCHED_STRATEGIES[strategy_index]
        batch = GemmBatch(
            [
                Gemm(2 * strat.by + 3, 2 * strat.bx + 5, 20),
                Gemm(strat.by, strat.bx, strat.bk),  # exactly one interior tile
            ]
        )
        ops = batch.random_operands(rng)
        sched = forced_schedule(batch, strategy_index)
        got = assert_bit_identical(sched, batch, ops)
        oracle = reference_batched_gemm(batch, ops)
        for have, want in zip(got, oracle):
            np.testing.assert_allclose(have, want, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("trans_a", [False, True])
    @pytest.mark.parametrize("trans_b", [False, True])
    def test_transposed_operands(self, rng, trans_a, trans_b):
        batch = GemmBatch(
            [
                Gemm(33, 47, 21, trans_a=trans_a, trans_b=trans_b),
                Gemm(64, 64, 64, trans_a=trans_a, trans_b=trans_b),
            ]
        )
        ops = batch.random_operands(rng)
        assert_bit_identical(make_schedule(batch, "binary"), batch, ops)

    @pytest.mark.parametrize(
        "alpha,beta", [(1.0, 0.0), (1.5, 0.5), (0.0, 2.0), (-0.75, 1.0)]
    )
    def test_alpha_beta_epilogue(self, rng, alpha, beta):
        batch = GemmBatch(
            [Gemm(40, 40, 40, alpha=alpha, beta=beta), Gemm(17, 23, 9, alpha=alpha, beta=beta)]
        )
        ops = batch.random_operands(rng)
        assert_bit_identical(make_schedule(batch, "threshold"), batch, ops)

    @pytest.mark.parametrize("heuristic", ["one-per-block", "threshold", "binary"])
    def test_planned_schedules(self, small_batch, rng, heuristic):
        ops = small_batch.random_operands(rng)
        assert_bit_identical(make_schedule(small_batch, heuristic), small_batch, ops)

    def test_uniform_batch(self, uniform_batch, rng):
        ops = uniform_batch.random_operands(rng)
        assert_bit_identical(make_schedule(uniform_batch, "threshold"), uniform_batch, ops)

    def test_float32_outputs(self, rng):
        batch = GemmBatch.from_shapes([(48, 48, 32), (30, 70, 11)])
        ops = [
            tuple(arr.astype(np.float32) for arr in op)
            for op in batch.random_operands(rng)
        ]
        got = assert_bit_identical(make_schedule(batch, "binary"), batch, ops)
        assert all(o.dtype == np.float32 for o in got)


@pytest.mark.usefixtures("blas_fallback")
class TestBitExactEquivalenceFallback(TestBitExactEquivalence):
    """The same equivalences on the ``np.matmul`` + ``np.add`` chunk loop."""


class TestExecuteGroupedContract:
    def test_operand_mismatch_rejected(self, small_batch, rng):
        ops = small_batch.random_operands(rng)[:-1]
        with pytest.raises(ValueError):
            execute_grouped(make_schedule(small_batch), small_batch, ops)

    def test_broken_coverage_detected(self, small_batch, rng):
        """Same detection contract as the reference walk."""
        ops = small_batch.random_operands(rng)
        sched = make_schedule(small_batch, "one-per-block")
        sched.y_coords[1] = sched.y_coords[0]
        sched.x_coords[1] = sched.x_coords[0]
        sched.gemm_ids[1] = sched.gemm_ids[0]
        sched.strategy_ids[1] = sched.strategy_ids[0]
        with pytest.raises(ValueError, match="exactly once"):
            execute_grouped(sched, small_batch, ops)

    def test_coverage_error_counts_elements(self, small_batch, rng):
        """The edge-grid check reports the reference walk's element counts."""
        ops = small_batch.random_operands(rng)
        sched = make_schedule(small_batch, "one-per-block")
        sched.y_coords[1] = sched.y_coords[0]
        sched.x_coords[1] = sched.x_coords[0]
        with pytest.raises(ValueError) as want:
            execute_schedule(sched, small_batch, ops)
        with pytest.raises(ValueError) as got:
            execute_grouped(sched, small_batch, ops)
        assert str(got.value) == str(want.value)

    def test_out_of_range_ids_rejected(self, small_batch, rng):
        ops = small_batch.random_operands(rng)
        sched = make_schedule(small_batch)
        sched.gemm_ids[0] = len(small_batch)
        with pytest.raises(IndexError):
            execute_grouped(sched, small_batch, ops)
        sched.gemm_ids[0] = 0
        sched.strategy_ids[0] = len(ALL_BATCHED_STRATEGIES)
        with pytest.raises(IndexError):
            execute_grouped(sched, small_batch, ops)

    def test_outputs_fresh_arrays(self, small_batch, rng):
        ops = small_batch.random_operands(rng)
        outs = execute_grouped(make_schedule(small_batch), small_batch, ops)
        for out, (_, _, c) in zip(outs, ops):
            assert out is not c

    def test_inputs_unmodified(self, small_batch, rng):
        ops = small_batch.random_operands(rng)
        copies = [tuple(arr.copy() for arr in op) for op in ops]
        execute_grouped(make_schedule(small_batch), small_batch, ops)
        for op, saved in zip(ops, copies):
            for arr, keep in zip(op, saved):
                assert np.array_equal(arr, keep)


class TestOutOfMatrixTiles:
    """Hand-built tiles that lie outside their matrix, or outside the batch.

    The reference walk rejects the first such slot when it reaches it,
    before it counts coverage.  Every other engine must raise the same
    error rather than clip the tile to zero area (origin at row ``m``),
    fail on an index (origin beyond row ``m``), wrap a negative GEMM id
    to the last GEMM, report the first bad tile in another order, or
    report a coverage error instead.
    """

    # Strategy 1 is 32x32, so tile (y, x) starts at element (32y, 32x)
    # and one tile covers a 32x32 GEMM.
    STRATEGY = ALL_BATCHED_STRATEGIES[1]
    # name: (number of 32x32x32 GEMMs, (gemm, y, x) per slot, error type, message)
    CASES = {
        "row m": (
            1,
            [(0, 0, 0), (0, 1, 0)],
            ValueError,
            "tile origin (32,0) outside matrix 32x32",
        ),
        "beyond row m": (
            1,
            [(0, 0, 0), (0, 2, 0)],
            ValueError,
            "tile origin (64,0) outside matrix 32x32",
        ),
        "negative": (
            1,
            [(0, 0, 0), (0, -1, 0)],
            ValueError,
            "tile origin must be non-negative",
        ),
        # Python indexing would wrap GEMM -1 to the last GEMM.
        "negative gemm id": (
            1,
            [(0, 0, 0), (-1, 0, 0)],
            IndexError,
            "gemm id -1 out of range 0-0",
        ),
        # GEMM 0 has no tile at all, but the outside origin is reported.
        "after an uncovered GEMM": (
            2,
            [(1, 0, 0), (1, 1, 0)],
            ValueError,
            "tile origin (32,0) outside matrix 32x32",
        ),
        # Grouping sorts GEMM 0 first; the walk meets GEMM 1's slot first.
        "first in slot order": (
            2,
            [(1, 1, 0), (0, 0, 1), (0, 0, 0)],
            ValueError,
            "tile origin (32,0) outside matrix 32x32",
        ),
    }

    @classmethod
    def schedule(cls, slots) -> BatchSchedule:
        return BatchSchedule.from_dict(
            {
                "tile_offsets": list(range(len(slots) + 1)),
                "gemm_ids": [g for g, _, _ in slots],
                "strategy_ids": [cls.STRATEGY.index] * len(slots),
                "y_coords": [y for _, y, _ in slots],
                "x_coords": [x for _, _, x in slots],
                "threads_per_block": cls.STRATEGY.threads,
                "shared_memory_bytes": cls.STRATEGY.shared_memory_bytes,
                "registers_per_thread": cls.STRATEGY.registers_per_thread,
            }
        )

    @pytest.mark.parametrize("engine", ["reference", "grouped", "compiled"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_by_every_engine(self, engine, case, rng):
        from repro.kernels import get_engine

        run = get_engine(engine)
        n_gemms, slots, error, message = self.CASES[case]
        batch = GemmBatch.from_shapes([(32, 32, 32)] * n_gemms)
        ops = batch.random_operands(rng)
        with pytest.raises(error) as err:
            run(self.schedule(slots), batch, ops)
        assert type(err.value) is error
        assert str(err.value) == message


class TestLowering:
    def test_groups_partition_tiles(self, small_batch):
        sched = make_schedule(small_batch, "binary")
        plan = lower_schedule(sched, small_batch)
        assert plan.num_tiles == sched.num_tiles
        assert sum(g.size for g in plan.groups) == sched.num_tiles
        assert plan.interior_tiles + plan.edge_tiles == sched.num_tiles
        for group in plan.groups:
            assert group.size > 0
            assert len(group.y0) == len(group.x0)

    def test_groups_homogeneous(self, small_batch):
        sched = make_schedule(small_batch, "threshold")
        plan = lower_schedule(sched, small_batch)
        seen = set()
        for g in plan.groups:
            key = (g.gemm_index, g.strategy_index, g.interior)
            assert key not in seen, "duplicate bucket"
            seen.add(key)

    def test_plan_memoized_on_schedule(self, small_batch):
        sched = make_schedule(small_batch)
        first = grouped_plan_for(sched, small_batch)
        second = grouped_plan_for(sched, small_batch)
        assert first is second
        assert isinstance(first, GroupedPlan)

    def test_fresh_lowering_not_memoized(self, small_batch):
        sched = make_schedule(small_batch)
        assert lower_schedule(sched, small_batch) is not lower_schedule(
            sched, small_batch
        )

    def test_coverage_grid_spans_each_gemms_own_edges(self):
        """A short-wide GEMM next to a tall-narrow one stays cheap to check.

        Each GEMM's coverage grid holds only its own tile edges: about
        8k cells per GEMM here, where one grid over the union of the
        batch's column edges would hold ~16.8M cells (~134 MB per array).
        """
        batch = GemmBatch([Gemm(16, 65536, 8), Gemm(65536, 16, 8)])
        sched = forced_schedule(batch, 0)  # 16x16 tiles
        tracemalloc.start()
        try:
            plan = lower_schedule(sched, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.num_tiles == 8192
        assert peak < 16 * 2**20

    def test_explicit_plan_accepted(self, small_batch, rng):
        ops = small_batch.random_operands(rng)
        sched = make_schedule(small_batch)
        plan = lower_schedule(sched, small_batch)
        got = execute_grouped(sched, small_batch, ops, plan=plan)
        want = execute_schedule(sched, small_batch, ops)
        for have, expect in zip(got, want):
            assert np.array_equal(have, expect)


class TestEngineRegistry:
    def test_get_engine_mapping(self):
        from repro.kernels import ENGINES, get_engine

        assert set(ENGINES) == {"reference", "grouped", "compiled"}
        assert get_engine("reference") is execute_schedule
        assert get_engine("grouped") is execute_grouped
        with pytest.raises(ValueError, match="unknown execution engine"):
            get_engine("warp-speed")

    @pytest.mark.parametrize(
        "kept,shunned",
        [
            ("repro.kernels.grouped", "repro.kernels.persistent"),
            ("repro.kernels.persistent", "repro.kernels.grouped"),
        ],
    )
    def test_engines_importable_independently(self, kept, shunned):
        """Either engine must import without pulling in the other."""
        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            f"import sys; import {kept}; "
            f"assert '{shunned}' not in sys.modules, "
            f"'{kept} imported {shunned}'"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
