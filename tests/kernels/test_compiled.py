"""Tests for the compiled-plan execution artifacts.

The contract is strict: ``execute_compiled`` must be **bit-identical**
(``np.array_equal``, not allclose) to the reference persistent-threads
walk for every schedule -- all twelve Table-2 strategies, transposes,
alpha/beta epilogues, ragged edges, and GEMMs tiled by more than one
strategy -- and reject every schedule the walk rejects, with the
walk's error, while doing all schedule checking once, at compile
time, and allocating nothing then.
Every GEMM a thread runs stages in that thread's one arena, so these
tests also check that nothing one GEMM leaves there reaches another's
output, that threads never share an arena, and that resident staging
follows the largest GEMM a thread ran, not the artifacts alive.
"""

from __future__ import annotations

import dataclasses
import gc
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.core.batching import batch_tiles
from repro.core.problem import Gemm, GemmBatch
from repro.core.schedule import BatchSchedule, build_schedule, enumerate_tiles
from repro.core.tiling import ALL_BATCHED_STRATEGIES, BATCHED_BK, select_tiling
from repro.kernels import blas
from repro.kernels.blas import chunk_ranges
from repro.kernels.compiled import (
    _ARENA,
    CompiledPlan,
    clear_compiled_memo,
    compile_plan,
    compiled_memo_stats,
    compiled_plan_for,
    execute_compiled,
)
from repro.kernels.persistent import execute_schedule
from repro.kernels.reference import reference_batched_gemm
from repro.nn.googlenet import GOOGLENET_INCEPTIONS, inception_branch_batch
from repro.telemetry import tracing
from repro.workloads.synthetic import random_cases


#: The GoogLeNet inception4a branch batch (Figure 10 style).
INCEPTION_4A = [
    (g.m, g.n, g.k) for g in inception_branch_batch(GOOGLENET_INCEPTIONS[2])
]


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


def mixed_strategy_schedule() -> tuple[GemmBatch, BatchSchedule]:
    """A hand schedule mixing strategies 0 and 1 on one GEMM.

    One 32x32 tile (strategy 1) covers columns 0-31; two 16x16 tiles
    (strategy 0) cover the ragged columns 32-43.  Coverage is exactly
    once, so the schedule is valid for every engine.  The planner gives
    each GEMM one strategy, so only a hand schedule tiles a GEMM with
    two.
    """
    batch = GemmBatch([Gemm(32, 44, 24, alpha=1.25, beta=-0.5)])
    gemm_ids = [0, 0, 0]
    strategy_ids = [1, 0, 0]
    y_coords = [0, 0, 1]
    x_coords = [0, 2, 2]
    strat = ALL_BATCHED_STRATEGIES[1]
    return batch, BatchSchedule(
        tile_offsets=np.array([0, 3], dtype=np.int32),
        gemm_ids=np.array(gemm_ids, dtype=np.int32),
        strategy_ids=np.array(strategy_ids, dtype=np.int32),
        y_coords=np.array(y_coords, dtype=np.int32),
        x_coords=np.array(x_coords, dtype=np.int32),
        threads_per_block=strat.threads,
        shared_memory_bytes=strat.shared_memory_bytes,
        registers_per_thread=strat.registers_per_thread,
    )


def arena_bytes(batch: GemmBatch) -> int:
    """The arena size: float64 staging for the largest GEMM.

    A GEMM stages its accumulator, its ``beta * C`` buffer and one
    K-slab of ``op(A)`` and ``op(B)``, at most 128 deep.
    """
    return 8 * max(min(g.k, 128) * (g.m + g.n) + 2 * g.m * g.n for g in batch)


def byte_range(arr: np.ndarray) -> tuple[int, int]:
    """The ``[start, end)`` addresses of a contiguous array's bytes."""
    start = arr.__array_interface__["data"][0]
    return start, start + arr.nbytes


def in_new_thread(fn):
    """``fn()`` on a fresh thread, whose arena starts empty; its result."""
    box: list = []
    errors: list = []

    def call():
        try:
            box.append(fn())
        except BaseException as exc:  # re-raised on the test thread
            errors.append(exc)

    thread = threading.Thread(target=call)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive(), "the worker thread hung"
    if errors:
        raise errors[0]
    return box[0]


def bound_views(artifact):
    """The calling thread's staging views of ``artifact`` (bound by a run)."""
    return [
        view
        for acc, c64, slabs in _ARENA.bindings[artifact]
        for view in (acc, c64, *(v for _, a64, b64, _ in slabs for v in (a64, b64)))
    ]


def hammer_in_threads(jobs, rounds=30):
    """Run each ``(artifact, batch, ops, want)`` job on its own thread.

    The threads start together and run their artifact ``rounds`` times,
    checking every output against ``want`` bit for bit.  Each records
    its arena's byte range and its staging views' ranges, then waits
    until every thread has, so all arenas are alive while they are
    compared.  Returns the per-thread records and the failed rounds.
    """
    barrier = threading.Barrier(len(jobs))
    records: list = [None] * len(jobs)
    failures: list = []
    switch = sys.getswitchinterval()

    def work(slot, artifact, batch, ops, want):
        barrier.wait(timeout=60)
        for _ in range(rounds):
            for have, expect in zip(artifact.run(batch, ops), want):
                if not np.array_equal(have, expect):
                    failures.append(slot)
        views = [byte_range(view) for view in bound_views(artifact)]
        records[slot] = (byte_range(_ARENA.buffer), views)
        barrier.wait(timeout=60)

    threads = [
        threading.Thread(target=work, args=(slot, *job))
        for slot, job in enumerate(jobs)
    ]
    sys.setswitchinterval(1e-5)  # interleave the threads' bytecode finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "a worker thread hung"
    finally:
        sys.setswitchinterval(switch)
    return records, failures


def assert_disjoint_arenas(records):
    """Every thread's views lie in its own arena, and no two arenas overlap."""
    for (lo, hi), views in records:
        assert all(lo <= start and end <= hi for start, end in views)
    spans = sorted(arena for arena, _ in records)
    for (_, first_end), (second_start, _) in zip(spans, spans[1:]):
        assert first_end <= second_start, "two threads share arena memory"


def assert_bit_identical(schedule, batch, ops):
    """Compiled output must match the reference walk bit for bit."""
    ref = execute_schedule(schedule, batch, ops)
    got = execute_compiled(schedule, batch, ops)
    for gi, (want, have) in enumerate(zip(ref, got)):
        assert want.dtype == have.dtype, f"GEMM {gi} dtype drift"
        assert np.array_equal(want, have), (
            f"GEMM {gi}: compiled engine diverges from the reference walk "
            f"(max |delta| = {np.max(np.abs(want - have))})"
        )
    return got


def assert_imports_without(kept: str, shunned: str) -> None:
    """Importing ``kept`` in a fresh interpreter leaves ``shunned`` unloaded."""
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
            [
                Gemm(40, 40, 40, alpha=alpha, beta=beta),
                Gemm(17, 23, 9, alpha=alpha, beta=beta),
            ]
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

    def test_mixed_strategy_schedule(self, rng):
        """One GEMM tiled by two strategies reads one chunk product."""
        batch, sched = mixed_strategy_schedule()
        ops = batch.random_operands(rng)
        got = assert_bit_identical(sched, batch, ops)
        oracle = reference_batched_gemm(batch, ops)
        np.testing.assert_allclose(got[0], oracle[0], rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 7, 8, 127, 128, 129, 255, 256, 257, 1000])
    def test_slab_edges_and_deep_k(self, rng, k, dtype):
        """K below BK, off a BK edge, one slab, two, and a remainder of one.

        A run stages 128 columns of ``op(A)`` at a time, so these
        depths cover a lone remainder slab, exactly one slab, full slabs
        followed by a remainder, and many slabs -- on transposed
        operands, with alpha/beta, and with NaN, -inf and -0.0 in C.
        """
        batch = GemmBatch(
            [
                Gemm(33, 47, k, trans_a=True, alpha=1.5, beta=-0.5),
                Gemm(20, 9, k, trans_b=True, alpha=-0.75, beta=0.0),
                Gemm(16, 16, k, trans_a=True, trans_b=True, beta=1.0),
            ]
        )
        ops = TestEpilogueCast.operands(batch, rng, dtype)
        sched = make_schedule(batch, "binary")
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN
            got = execute_compiled(sched, batch, ops)
            want = execute_schedule(sched, batch, ops)
        for gi, (have, expect) in enumerate(zip(got, want)):
            assert have.dtype == expect.dtype == dtype
            assert have.tobytes() == expect.tobytes(), f"GEMM {gi}"


@pytest.mark.usefixtures("blas_fallback")
class TestBitExactEquivalenceFallback(TestBitExactEquivalence):
    """The same equivalences on the ``np.matmul`` + ``np.add`` chunk loop."""


def test_mixed_strategy_schedule_validates_round_trips_and_prices():
    """A schedule from the public constructor is a whole schedule.

    It validates (with a mixed-strategy warning), serializes, decodes
    and simulates, like one :func:`build_schedule` returns.
    """
    from repro.core.validation import validate_schedule
    from repro.gpu.simulator import KernelLaunch, simulate_kernel
    from repro.gpu.specs import VOLTA_V100

    batch, sched = mixed_strategy_schedule()
    report = validate_schedule(sched, batch)
    assert report.ok, report.errors
    assert report.warnings == (
        "GEMM 0 is tiled by strategies [0, 1]; the engines run it, "
        "but the planner gives each GEMM one strategy",
    )
    assert BatchSchedule.from_dict(sched.to_dict()) == sched
    tiles = sched.tiles_of_block(0, batch)
    assert [(t.strategy_index, t.y, t.x, t.k) for t in tiles] == [
        (1, 0, 0, 24),
        (0, 0, 2, 24),
        (0, 1, 2, 24),
    ]
    launch = KernelLaunch.of_classes(
        "k", *sched.block_classes(batch), compulsory_ab_bytes=float(batch.compulsory_ab_bytes)
    )
    assert simulate_kernel(VOLTA_V100, launch).time_ms > 0


class TestBoundBuffers:
    """The bound BLAS calls hold raw pointers into a thread's arena."""

    def test_artifacts_compiled_and_dropped_in_a_loop(self, small_batch, rng):
        sched = make_schedule(small_batch)
        ops = small_batch.random_operands(rng)
        want = execute_schedule(sched, small_batch, ops)
        for _ in range(25):
            artifact = compile_plan(sched, small_batch)
            gc.collect()
            # Reuse freed memory: a dangling pointer would now hit NaNs.
            junk = [np.full((g.m, g.n), np.nan) for g in small_batch]
            got = artifact.run(small_batch, ops)
            del artifact, junk
            gc.collect()
            for have, expect in zip(got, want):
                assert np.array_equal(have, expect)

    def test_loop_keeps_its_buffers_alive(self, small_batch, rng):
        """A loop outlives its binding, its artifact and its arena's growth."""

        def probe():
            artifact = compile_plan(make_schedule(small_batch), small_batch)
            artifact.run(small_batch, small_batch.random_operands(rng))
            staged = _ARENA.bindings[artifact][0]
            _, a64, b64, loop = staged.slabs[0]
            refs = [weakref.ref(buf) for buf in (staged.acc, a64, b64)]
            refs.append(weakref.ref(_ARENA.buffer))
            # Grow the arena: the thread drops every binding and its buffer.
            big = GemmBatch.from_shapes([(128, 128, 64)])
            compile_plan(make_schedule(big), big).run(big, big.random_operands(rng))
            del artifact, staged, a64, b64
            gc.collect()
            alive = all(ref() is not None for ref in refs)
            del loop
            gc.collect()
            return alive, [ref() is None for ref in refs]

        alive, dead = in_new_thread(probe)
        assert alive
        assert all(dead)

    def test_two_artifacts_of_one_schedule_share_no_accumulator(self, small_batch, rng):
        """Run at once on two threads, they stage in two disjoint arenas."""
        sched = make_schedule(small_batch)
        artifacts = [compile_plan(sched, small_batch) for _ in range(2)]
        operands = [small_batch.random_operands(rng) for _ in range(2)]
        wants = [execute_schedule(sched, small_batch, ops) for ops in operands]
        records, failures = hammer_in_threads(
            [(art, small_batch, ops, want)
             for art, ops, want in zip(artifacts, operands, wants)]
        )
        assert not failures
        assert_disjoint_arenas(records)


class TestThreadArena:
    """Staging belongs to the executing thread: one arena, grown to need."""

    def test_resident_staging_is_the_largest_need_not_the_sum(self, rng):
        """16 live artifacts run in one thread grow memory by one arena."""
        batches = [GemmBatch.from_shapes([(192 + 8 * i, 160, 48)]) for i in range(16)]
        schedules = [make_schedule(batch) for batch in batches]
        operands = [batch.random_operands(rng) for batch in batches]
        needs = [arena_bytes(batch) for batch in batches]

        def measure():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                artifacts = [compile_plan(s, b) for s, b in zip(schedules, batches)]
                for artifact, batch, ops in zip(artifacts, batches, operands):
                    artifact.run(batch, ops)  # outputs dropped at once
                grown = tracemalloc.get_traced_memory()[0] - before
                assert len(artifacts) == 16  # all alive while measured
                return grown, _ARENA.buffer.nbytes
            finally:
                tracemalloc.stop()

        grown, arena = in_new_thread(measure)
        assert arena == max(needs)
        # Bindings (views, bound loops) cost far less than one arena.
        assert max(needs) <= grown < max(needs) + sum(needs) // 8, (grown, needs)

    def test_artifacts_dying_on_another_thread_drop_their_bindings(self, rng):
        """Four threads run memoized artifacts while a fifth keeps dropping them.

        Each artifact dies on whichever thread lets go of it last, and its
        death removes its binding from every thread that ran it; a
        binding lost or kept wrongly would stage over live views.
        """
        batches = [
            GemmBatch.from_shapes([(24 + 8 * i, 40, 24), (16, 16 + 8 * i, 40)])
            for i in range(4)
        ]
        schedules = [make_schedule(batch) for batch in batches]
        operands = [batch.random_operands(rng) for batch in batches]
        wants = [execute_schedule(*case) for case in zip(schedules, batches, operands)]
        done = threading.Event()
        failures: list = []

        def run(slot):
            for r in range(60):
                i = (slot + r) % len(batches)
                got = execute_compiled(schedules[i], batches[i], operands[i])
                if not all(np.array_equal(g, w) for g, w in zip(got, wants[i])):
                    failures.append((slot, r))

        def drop():
            while not done.is_set():
                clear_compiled_memo()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            dropper = threading.Thread(target=drop)
            dropper.start()
            hammer = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
            for t in hammer:
                t.start()
            for t in hammer:
                t.join(timeout=120)
                assert not t.is_alive(), "a worker thread hung"
        finally:
            done.set()
            dropper.join(timeout=60)
            sys.setswitchinterval(switch)
        assert not dropper.is_alive()
        assert not failures

    def test_rerun_after_the_arena_grows_rebinds_to_the_new_arena(self, rng):
        """The old buffer is freed; refilling its memory changes no bit."""
        small = GemmBatch.from_shapes([(40, 48, 24), (17, 23, 9)])
        big = GemmBatch.from_shapes([(160, 144, 64)])
        small_sched, big_sched = make_schedule(small), make_schedule(big)
        ops = small.random_operands(rng)
        want = execute_schedule(small_sched, small, ops)

        def probe():
            artifact = compile_plan(small_sched, small)
            first = artifact.run(small, ops)
            old = weakref.ref(_ARENA.buffer)
            old_bytes = _ARENA.buffer.nbytes
            compile_plan(big_sched, big).run(big, big.random_operands(rng))
            gc.collect()
            freed = old() is None
            junk = [np.full(old_bytes // 8, np.nan) for _ in range(4)]
            again = artifact.run(small, ops)
            lo, hi = byte_range(_ARENA.buffer)
            views = map(byte_range, bound_views(artifact))
            inside = all(lo <= start and end <= hi for start, end in views)
            del junk
            return first, again, freed, inside, _ARENA.buffer.nbytes

        first, again, freed, inside, arena = in_new_thread(probe)
        assert freed, "growing the arena kept the old buffer alive"
        assert inside and arena == arena_bytes(big)
        for outs in (first, again):
            for have, expect in zip(outs, want):
                assert np.array_equal(have, expect)


class TestArenaReuse:
    """GEMMs share the thread's arena: stale data must never reach an output.

    Each case fills the arena with NaN before every run, so a view read
    before it is written -- staging, the accumulator or ``beta * C`` --
    turns an output element into NaN.
    """

    ORDERS = {
        "large_then_small": [(96, 80, 40), (17, 23, 9), (40, 40, 40)],
        "small_then_large": [(17, 23, 9), (40, 40, 40), (96, 80, 40)],
        # Full slabs, then remainders of 1 and 44 staged at the slab front.
        "slab_remainders": [(40, 24, 257), (17, 23, 129), (33, 20, 300)],
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_nan_arena_never_reaches_an_output(self, rng, order, dtype):
        batch = GemmBatch(
            [Gemm(m, n, k, alpha=1.25, beta=-0.5) for m, n, k in self.ORDERS[order]]
        )
        ops = batch.random_operands(rng, dtype=dtype)
        sched = make_schedule(batch, "binary")
        want = execute_schedule(sched, batch, ops)
        artifact = compile_plan(sched, batch)
        assert artifact.scratch_bytes == arena_bytes(batch)
        artifact.run(batch, ops)  # bind to this thread's arena
        assert _ARENA.buffer.nbytes >= arena_bytes(batch)
        for _ in range(2):
            _ARENA.buffer.fill(np.nan)
            for gi, (have, expect) in enumerate(zip(artifact.run(batch, ops), want)):
                assert have.dtype == expect.dtype
                assert np.array_equal(have, expect), f"GEMM {gi} read stale arena data"

    def test_nan_arena_on_a_mixed_strategy_schedule(self, rng):
        """Two strategies' tiles of one GEMM share its zeroed accumulator."""
        batch, sched = mixed_strategy_schedule()
        ops = batch.random_operands(rng)
        want = execute_schedule(sched, batch, ops)
        artifact = compile_plan(sched, batch)
        artifact.run(batch, ops)  # bind to this thread's arena
        for _ in range(2):
            _ARENA.buffer.fill(np.nan)
            got = artifact.run(batch, ops)
            assert np.array_equal(got[0], want[0])


@pytest.mark.usefixtures("blas_fallback")
class TestArenaReuseFallback(TestArenaReuse):
    """The same arena reuse on the ``np.matmul`` + ``np.add`` chunk loop."""


class TestEpilogueCast:
    """The in-place epilogue keeps ``astype``'s semantics, byte for byte.

    The compiled epilogue computes ``beta * C`` in float64 and casts the
    float64 sum straight into the output; the reference walk evaluates
    ``(alpha * acc + beta * C64).astype(dtype)`` per tile.
    Special values in C (NaN, -inf, -0.0) and signed zeros in A make
    any change of operation order, precision or cast visible.
    """

    ALPHAS = (0.0, -0.5, 2.0)
    BETAS = (0.0, 1.0, -1.5)

    @staticmethod
    def operands(batch, rng, dtype):
        ops = []
        for a, b, c in batch.random_operands(rng, dtype=np.float64):
            a[rng.random(a.shape) < 0.2] = -0.0
            if np.issubdtype(dtype, np.integer):
                c = np.round(c * 100.0)
            else:
                flat = c.reshape(-1)
                flat[0::7] = np.nan
                flat[1::7] = -np.inf
                flat[2::7] = -0.0
            ops.append((a, b, c.astype(dtype)))
        return ops

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.int32])
    def test_output_bytes_match_reference(self, rng, small_batch, dtype):
        for alpha in self.ALPHAS:
            for beta in self.BETAS:
                batch = GemmBatch(
                    [
                        dataclasses.replace(g, alpha=alpha, beta=beta)
                        for g in small_batch
                    ]
                )
                ops = self.operands(batch, rng, dtype)
                sched = make_schedule(batch)
                with np.errstate(invalid="ignore"):  # 0 * inf is NaN
                    got = execute_compiled(sched, batch, ops)
                    want_outs = execute_schedule(sched, batch, ops)
                for gi, (have, want) in enumerate(zip(got, want_outs)):
                    assert have.dtype == want.dtype == dtype
                    assert have.tobytes() == want.tobytes(), (
                        f"alpha={alpha}, beta={beta}, GEMM {gi}"
                    )


class TestCompiledContract:
    def test_operand_mismatch_rejected(self, small_batch, rng):
        ops = small_batch.random_operands(rng)[:-1]
        with pytest.raises(ValueError):
            execute_compiled(make_schedule(small_batch), small_batch, ops)

    def test_broken_coverage_detected_at_compile(self, small_batch):
        """The exactly-once check moves to compile time, same message."""
        sched = make_schedule(small_batch, "one-per-block")
        sched.y_coords[1] = sched.y_coords[0]
        sched.x_coords[1] = sched.x_coords[0]
        sched.gemm_ids[1] = sched.gemm_ids[0]
        sched.strategy_ids[1] = sched.strategy_ids[0]
        with pytest.raises(ValueError, match="exactly once"):
            compile_plan(sched, small_batch)

    def test_coverage_error_counts_elements(self, small_batch, rng):
        """The edge-grid check reports the reference walk's element counts."""
        ops = small_batch.random_operands(rng)
        sched = make_schedule(small_batch, "one-per-block")
        sched.y_coords[1] = sched.y_coords[0]
        sched.x_coords[1] = sched.x_coords[0]
        with pytest.raises(ValueError) as want:
            execute_schedule(sched, small_batch, ops)
        with pytest.raises(ValueError) as got:
            execute_compiled(sched, small_batch, ops)
        assert str(got.value) == str(want.value)

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
            artifact = compile_plan(sched, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert artifact.num_tiles == 8192
        assert peak < 16 * 2**20

    def test_out_of_range_ids_rejected(self, small_batch):
        sched = make_schedule(small_batch)
        sched.gemm_ids[0] = len(small_batch)
        with pytest.raises(IndexError):
            compile_plan(sched, small_batch)
        sched.gemm_ids[0] = 0
        sched.strategy_ids[0] = len(ALL_BATCHED_STRATEGIES)
        with pytest.raises(IndexError):
            compile_plan(sched, small_batch)

    def test_batch_token_mismatch_rejected_by_run(self, small_batch, rng):
        sched = make_schedule(small_batch)
        artifact = compile_plan(sched, small_batch)
        other = GemmBatch.from_shapes([(8, 8, 8)])
        ops = other.random_operands(rng)
        with pytest.raises(ValueError, match="do not match the compiled plan"):
            artifact.run(other, ops)

    def test_stale_plan_argument_recompiles(self, small_batch, rng):
        """``plan=`` for the wrong shapes falls back to the memo."""
        stale = compile_plan(
            make_schedule(GemmBatch.from_shapes([(8, 8, 8)])),
            GemmBatch.from_shapes([(8, 8, 8)]),
        )
        sched = make_schedule(small_batch)
        ops = small_batch.random_operands(rng)
        got = execute_compiled(sched, small_batch, ops, plan=stale)
        want = execute_schedule(sched, small_batch, ops)
        for have, expect in zip(got, want):
            assert np.array_equal(have, expect)

    def test_outputs_fresh_arrays_every_call(self, small_batch, rng):
        ops = small_batch.random_operands(rng)
        sched = make_schedule(small_batch)
        first = execute_compiled(sched, small_batch, ops)
        second = execute_compiled(sched, small_batch, ops)
        for out1, out2, (_, _, c) in zip(first, second, ops):
            assert out1 is not c and out2 is not c
            assert out1 is not out2  # callers own their results
            assert np.array_equal(out1, out2)

    def test_inputs_unmodified(self, small_batch, rng):
        ops = small_batch.random_operands(rng)
        copies = [tuple(arr.copy() for arr in op) for op in ops]
        execute_compiled(make_schedule(small_batch), small_batch, ops)
        for op, saved in zip(ops, copies):
            for arr, keep in zip(op, saved):
                assert np.array_equal(arr, keep)

    def test_explicit_plan_accepted(self, small_batch, rng):
        ops = small_batch.random_operands(rng)
        sched = make_schedule(small_batch)
        artifact = compile_plan(sched, small_batch)
        got = execute_compiled(sched, small_batch, ops, plan=artifact)
        want = execute_schedule(sched, small_batch, ops)
        for have, expect in zip(got, want):
            assert np.array_equal(have, expect)

    def test_alpha_beta_not_baked_into_artifact(self, rng):
        """One artifact serves batches differing only in alpha/beta."""
        shapes = [(40, 40, 40), (17, 23, 9)]
        hot = GemmBatch([Gemm(m, n, k, alpha=1.5, beta=0.5) for m, n, k in shapes])
        cold = GemmBatch([Gemm(m, n, k, alpha=-0.75, beta=2.0) for m, n, k in shapes])
        sched = make_schedule(hot)
        artifact = compile_plan(sched, hot)
        ops = cold.random_operands(rng)
        got = artifact.run(cold, ops)  # token matches: shapes only
        want = execute_schedule(make_schedule(cold), cold, ops)
        for have, expect in zip(got, want):
            assert np.array_equal(have, expect)

    def test_concurrent_runs_stage_in_disjoint_arenas(self, small_batch, rng):
        """Four threads hammering one artifact each stage in their own arena."""
        sched = make_schedule(small_batch)
        ops = small_batch.random_operands(rng)
        artifact = compile_plan(sched, small_batch)
        want = execute_schedule(sched, small_batch, ops)
        records, failures = hammer_in_threads([(artifact, small_batch, ops, want)] * 4)
        assert not failures
        assert_disjoint_arenas(records)

    @pytest.mark.parametrize(
        "shapes",
        [
            [(16, 32, 24), (40, 40, 40), (65, 33, 17)],
            [(96, 80, 40), (17, 23, 9)],
            [(1, 200, 64), (200, 1, 64), (8, 8, 8)],
            [(64, 64, 64)] * 4,
            pytest.param(INCEPTION_4A, id="inception4a"),
            pytest.param([(64, 64, 4096)], id="deep-k"),
        ],
    )
    def test_scratch_is_the_largest_gemm(self, request, shapes, rng):
        """A fresh thread's arena is the largest GEMM's, on both loop paths.

        On both it is all the scratch: the ``np.matmul`` fallback takes
        its chunk temporary from the arena too.  A GEMM stages one
        K-slab at a time, so the arena equals the one of the same batch
        with K clipped to one slab: (64, 64, 4096) stages as
        (64, 64, 128).  The inception4a case is the batch
        ``benchmarks/test_bench_execute.py`` times.
        """
        batch = GemmBatch.from_shapes(shapes)
        one_slab = GemmBatch.from_shapes([(m, n, min(k, 128)) for m, n, k in shapes])

        def arena_after_a_run(batch):
            def run():
                artifact = compile_plan(make_schedule(batch), batch)
                artifact.run(batch, batch.random_operands(rng))
                return artifact.scratch_bytes, _ARENA.buffer.nbytes

            return in_new_thread(run)

        want = (arena_bytes(batch),) * 2
        if blas.DGEMM_SYMBOL is not None:
            assert arena_after_a_run(batch) == want == arena_after_a_run(one_slab)
        request.getfixturevalue("blas_fallback")
        assert arena_after_a_run(batch) == want == arena_after_a_run(one_slab)

    def test_num_calls_is_the_calls_a_run_makes(self, request, monkeypatch, rng):
        """Row panels counted, per slab, on both loop paths.

        The first GEMM's full slabs split each chunk call into three row
        panels, while its one-deep remainder fits one call.
        """
        batch = GemmBatch.from_shapes([(1000, 300, 257), (331, 381, 73), (17, 23, 9)])
        artifact = compile_plan(make_schedule(batch), batch)
        ops = batch.random_operands(rng)
        calls: list = []

        def counted(fn):
            def call(*args, **kwargs):
                calls.append(fn)
                return fn(*args, **kwargs)

            return call

        assert (artifact.num_chunks, artifact.num_calls) == (33 + 10 + 2, 97 + 20 + 2)
        if blas.DGEMM_SYMBOL is not None:
            monkeypatch.setattr(blas, "_DGEMM", counted(blas._DGEMM))
            in_new_thread(lambda: artifact.run(batch, ops))
            assert len(calls) == artifact.num_calls
        request.getfixturevalue("blas_fallback")
        calls.clear()
        monkeypatch.setattr(np, "matmul", counted(np.matmul))
        in_new_thread(lambda: artifact.run(batch, ops))
        assert len(calls) == artifact.num_calls

    def test_ragged_cold_pool_calls_and_chunks(self):
        """Over perfbench's ``ragged_cold`` pool: 173.1 calls, 169.5 chunks per op.

        Six of the pool's GEMMs split their chunk calls in two row
        panels, so a run makes more BLAS calls than chunk products.
        """
        pool = random_cases(64, seed=0, max_batch=8)
        artifacts = [compile_plan(make_schedule(batch), batch) for batch in pool]
        calls = sum(a.num_calls for a in artifacts) / len(pool)
        chunks = sum(a.num_chunks for a in artifacts) / len(pool)
        assert (round(calls, 1), round(chunks, 1)) == (173.1, 169.5)

    def test_artifact_introspection(self, small_batch):
        sched = make_schedule(small_batch)
        artifact = compile_plan(sched, small_batch)
        assert isinstance(artifact, CompiledPlan)
        assert artifact.num_tiles == sched.num_tiles
        assert artifact.num_chunks == sum(-(-g.k // BATCHED_BK) for g in small_batch)
        assert artifact.scratch_bytes == arena_bytes(small_batch)
        # One chunk table and staging need per GEMM; no buffer, no lock.
        for cg, gemm in zip(artifact.gemms, small_batch):
            assert (cg.m, cg.n, cg.k) == (gemm.m, gemm.n, gemm.k)
            assert cg.chunks == chunk_ranges(gemm.k, BATCHED_BK)
            assert 8 * cg.staging == arena_bytes(GemmBatch([gemm]))
        fields = [*vars(artifact).values()]
        fields += [value for g in artifact.gemms for value in vars(g).values()]
        lock = type(threading.Lock())
        assert not any(isinstance(value, (np.ndarray, lock)) for value in fields)

    def test_compiling_allocates_no_staging(self, small_batch):
        sched = make_schedule(small_batch)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            artifact = compile_plan(sched, small_batch)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert artifact.scratch_bytes > 4 * grown, (grown, artifact.scratch_bytes)


class TestOutOfMatrixTiles:
    """Hand-built tiles that lie outside their matrix, or outside the batch.

    The reference walk rejects the first such slot when it reaches it,
    before it counts coverage.  The compiled engine must raise the same
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
        "past row m": (
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
        # GEMM 0's tile comes later in slot order; the walk meets GEMM 1's
        # slot first.
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

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("engine", ["reference", "compiled"])
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


class TestArtifactMemo:
    def test_artifact_memoized_on_schedule(self, small_batch):
        sched = make_schedule(small_batch)
        first = compiled_plan_for(sched, small_batch)
        second = compiled_plan_for(sched, small_batch)
        assert first is second

    def test_fresh_compile_not_memoized(self, small_batch):
        sched = make_schedule(small_batch)
        assert compile_plan(sched, small_batch) is not compile_plan(
            sched, small_batch
        )

    def test_memo_released_when_schedule_dies(self, small_batch):
        clear_compiled_memo()
        sched = make_schedule(small_batch)
        compiled_plan_for(sched, small_batch)
        from repro.kernels.compiled import _COMPILED_MEMO

        assert len(_COMPILED_MEMO) == 1
        del sched
        gc.collect()
        assert len(_COMPILED_MEMO) == 0

    def test_cache_telemetry_counters(self, small_batch, rng):
        clear_compiled_memo()
        ops = small_batch.random_operands(rng)
        sched = make_schedule(small_batch)
        with tracing() as tracer:
            execute_compiled(sched, small_batch, ops)
            execute_compiled(sched, small_batch, ops)
            execute_compiled(sched, small_batch, ops)
        assert tracer.metrics.counter("compile.cache_misses").value == 1
        assert tracer.metrics.counter("compile.cache_hits").value == 2
        assert tracer.metrics.counter("compile.plans").value == 1
        (span,) = [s for s in tracer.walk() if s.name == "compile.plan"]
        artifact = compiled_plan_for(sched, small_batch)
        assert (
            span.attrs["chunks"],
            span.attrs["calls"],
            span.attrs["scratch_bytes"],
        ) == (artifact.num_chunks, artifact.num_calls, artifact.scratch_bytes)

    def test_memo_stats_snapshot(self, small_batch):
        clear_compiled_memo()
        before = compiled_memo_stats()
        sched = make_schedule(small_batch)
        compiled_plan_for(sched, small_batch)
        compiled_plan_for(sched, small_batch)
        after = compiled_memo_stats()
        assert after.misses == before.misses + 1
        assert after.hits == before.hits + 1


class TestEngineRegistry:
    def test_compiled_engine_registered(self):
        from repro.kernels import ENGINE_FALLBACKS, ENGINES, get_engine

        assert "compiled" in ENGINES
        assert get_engine("compiled") is execute_compiled
        assert ENGINE_FALLBACKS["compiled"] == ("compiled", "reference")

    def test_get_engine_mapping(self):
        from repro.kernels import ENGINES, get_engine

        assert ENGINES == ("reference", "compiled")
        assert get_engine("reference") is execute_schedule
        assert get_engine("compiled") is execute_compiled
        with pytest.raises(ValueError, match="unknown execution engine"):
            get_engine("warp-speed")

    def test_compiled_importable_independently(self):
        """The compiled engine must not pull in the persistent walk."""
        assert_imports_without("repro.kernels.compiled", "repro.kernels.persistent")

    def test_persistent_importable_independently(self):
        """The oracle must not pull in the compiled engine."""
        assert_imports_without("repro.kernels.persistent", "repro.kernels.compiled")

