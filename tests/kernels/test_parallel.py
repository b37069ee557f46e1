"""Concurrent callers of the shared execution engine.

One engine serves many threads: the serving layer's worker threads
(``ServeConfig.workers``), cluster backends and application threads
all call the same ``compiled`` engine, which shares memoized state --
compiled artifacts that each thread binds to its own staging arena on
its first run of them (:meth:`~repro.kernels.compiled.CompiledPlan.run`
takes no lock).  The contract is the sequential one, held under
concurrency: for every schedule class, with 1, 2 and 4 threads
executing the same batch at once, every thread's outputs must be
**bit-identical** (``np.array_equal``, not allclose) to the reference
walk, repeated concurrent runs byte-identical and the shared inputs
untouched, and a caller whose request fails must not disturb the
others.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.options import Heuristic, PlanOptions
from repro.core.plancache import PlanCache
from repro.core.problem import Gemm, GemmBatch
from repro.core.tiling import ALL_BATCHED_STRATEGIES, strategy_by_index
from repro.kernels import ExecutionPolicy, get_engine
from repro.kernels.compiled import compile_plan
from repro.kernels.persistent import execute_schedule

from .test_compiled import forced_schedule, make_schedule

#: Caller threads each case runs at once; 1 is the sequential contract.
THREAD_COUNTS = [1, 2, 4]

#: The engines callers share (the reference walk is the oracle).
SHARED_ENGINES = ("compiled",)


def call_concurrently(calls):
    """Run each zero-argument callable on its own thread, all released
    together by a barrier; return ``(results, errors)`` in call order."""
    barrier = threading.Barrier(len(calls))
    results: list = [None] * len(calls)
    errors: list = [None] * len(calls)

    def call(slot):
        try:
            barrier.wait(timeout=60)
            results[slot] = calls[slot]()
        except Exception as exc:  # reported to the test thread
            errors[slot] = exc

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(calls))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "a caller thread hung"
    return results, errors


def assert_outputs_equal(want, got, label):
    for gi, (w, g) in enumerate(zip(want, got)):
        assert w.dtype == g.dtype, f"GEMM {gi} dtype drift ({label})"
        assert np.array_equal(w, g), (
            f"GEMM {gi}: {label} diverges from the reference walk "
            f"(max |delta| = {np.max(np.abs(w - g))})"
        )


def assert_matches_reference(schedule, batch, ops, threads, plans=None):
    """Each shared engine, called from ``threads`` threads at once,
    returns the reference walk's outputs on every thread."""
    want = execute_schedule(schedule, batch, ops)
    for name in SHARED_ENGINES:
        run = get_engine(name)
        plan = None if plans is None else plans[name]
        results, errors = call_concurrently(
            [lambda: run(schedule, batch, ops, plan)] * threads
        )
        assert errors == [None] * threads
        for slot, got in enumerate(results):
            assert_outputs_equal(want, got, f"{name} caller {slot} of {threads}")


class TestBitExactEquivalence:
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize("strategy_index", range(len(ALL_BATCHED_STRATEGIES)))
    def test_all_table2_strategies(self, rng, strategy_index, threads):
        """Every Table-2 entry, ragged in M, N, and K, every caller count."""
        strat = ALL_BATCHED_STRATEGIES[strategy_index]
        batch = GemmBatch(
            [
                Gemm(2 * strat.by + 3, 2 * strat.bx + 5, 20),
                Gemm(strat.by, strat.bx, strat.bk),
            ]
        )
        ops = batch.random_operands(rng)
        sched = forced_schedule(batch, strategy_index)
        assert_matches_reference(sched, batch, ops, threads)

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize("trans_a", [False, True])
    @pytest.mark.parametrize("trans_b", [False, True])
    def test_transposed_operands(self, rng, trans_a, trans_b, threads):
        batch = GemmBatch(
            [
                Gemm(33, 47, 21, trans_a=trans_a, trans_b=trans_b),
                Gemm(64, 64, 64, trans_a=trans_a, trans_b=trans_b),
            ]
        )
        ops = batch.random_operands(rng)
        assert_matches_reference(make_schedule(batch, "binary"), batch, ops, threads)

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize(
        "alpha,beta", [(1.0, 0.0), (1.5, 0.5), (0.0, 2.0), (-0.75, 1.0)]
    )
    def test_alpha_beta_epilogue(self, rng, alpha, beta, threads):
        batch = GemmBatch(
            [
                Gemm(40, 40, 40, alpha=alpha, beta=beta),
                Gemm(17, 23, 9, alpha=alpha, beta=beta),
            ]
        )
        ops = batch.random_operands(rng)
        assert_matches_reference(
            make_schedule(batch, "threshold"), batch, ops, threads
        )

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize("heuristic", ["one-per-block", "threshold", "binary"])
    def test_planned_schedules(self, small_batch, rng, heuristic, threads):
        ops = small_batch.random_operands(rng)
        assert_matches_reference(
            make_schedule(small_batch, heuristic), small_batch, ops, threads
        )

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_large_k_forces_product_split(self, rng, threads):
        """A K deep enough that the dominant GEMM's product splits into
        a long run of BK-chunk calls accumulating in shared scratch."""
        batch = GemmBatch([Gemm(48, 48, 1024), Gemm(16, 16, 64)])
        ops = batch.random_operands(rng)
        sched = make_schedule(batch, "threshold")
        dominant = sched.gemm_ids == 0
        bk = strategy_by_index(int(sched.strategy_ids[dominant][0])).bk
        assert -(-batch[0].k // bk) >= 8, "workload failed to split"
        assert_matches_reference(sched, batch, ops, threads)

    def test_explicit_plan_accepted(self, small_batch, rng):
        """A freshly compiled artifact passed explicitly, shared by two callers."""
        sched = make_schedule(small_batch, "threshold")
        plans = {"compiled": compile_plan(sched, small_batch)}
        ops = small_batch.random_operands(rng)
        assert_matches_reference(sched, small_batch, ops, 2, plans)


class TestDeterminism:
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_repeated_runs_byte_identical(self, rng, threads):
        """Concurrent reruns reproduce a sequential run's bytes."""
        batch = GemmBatch([Gemm(65, 77, 512), Gemm(33, 29, 640), Gemm(96, 96, 96)])
        ops = batch.random_operands(rng)
        sched = make_schedule(batch, "binary")
        for name in SHARED_ENGINES:
            run = get_engine(name)
            first = run(sched, batch, ops)
            for _ in range(3):
                results, errors = call_concurrently(
                    [lambda: run(sched, batch, ops)] * threads
                )
                assert errors == [None] * threads
                for again in results:
                    for a, b in zip(first, again):
                        assert a.tobytes() == b.tobytes()


class TestContract:
    def test_operand_shape_mismatch_raises(self, small_batch, rng):
        """A bad request raises on its own thread; the caller sharing the
        engine with it, and every later caller, still gets exact outputs."""
        sched = make_schedule(small_batch, "threshold")
        ops = small_batch.random_operands(rng)
        bad = [
            (np.zeros((2, 2), np.float32),) * 3 for _ in range(len(small_batch))
        ]
        want = execute_schedule(sched, small_batch, ops)
        for name in SHARED_ENGINES:
            run = get_engine(name)
            results, errors = call_concurrently(
                [
                    lambda: run(sched, small_batch, bad),
                    lambda: run(sched, small_batch, ops),
                ]
            )
            assert isinstance(errors[0], ValueError)
            assert errors[1] is None
            assert_outputs_equal(want, results[1], f"{name} beside a failed call")
            assert_outputs_equal(want, run(sched, small_batch, ops), f"{name} after")

    def test_inputs_not_modified(self, small_batch, rng):
        ops = small_batch.random_operands(rng)
        copies = [(a.copy(), b.copy(), c.copy()) for a, b, c in ops]
        sched = make_schedule(small_batch, "threshold")
        for name in SHARED_ENGINES:
            run = get_engine(name)
            _, errors = call_concurrently([lambda: run(sched, small_batch, ops)] * 2)
            assert errors == [None, None]
        for (a, b, c), (ca, cb, cc) in zip(ops, copies):
            assert np.array_equal(a, ca)
            assert np.array_equal(b, cb)
            assert np.array_equal(c, cc)


class TestIntegration:
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_framework_execute(self, framework, small_batch, rng, threads):
        """One framework serving concurrent callers, per engine policy."""
        ops = small_batch.random_operands(rng)
        want = framework.execute(small_batch, ops, Heuristic.THRESHOLD)
        opts = PlanOptions(heuristic=Heuristic.THRESHOLD)
        for name in SHARED_ENGINES:
            policy = ExecutionPolicy(engine=name)

            def call():
                return framework.execute(small_batch, ops, options=opts, policy=policy)

            results, errors = call_concurrently([call] * threads)
            assert errors == [None] * threads
            for slot, got in enumerate(results):
                assert_outputs_equal(want, got, f"{name} caller {slot} of {threads}")

    def test_plancache_execute_parallel(self, framework, small_batch, rng):
        """Concurrent callers of one PlanCache share its cached plan."""
        cache = PlanCache(framework)
        ops = small_batch.random_operands(rng)
        opts = PlanOptions(heuristic=Heuristic.THRESHOLD)
        reference = ExecutionPolicy(engine="reference")
        want = cache.execute(small_batch, ops, options=opts, policy=reference)
        for name in SHARED_ENGINES:
            policy = ExecutionPolicy(engine=name)

            def call():
                return cache.execute(small_batch, ops, options=opts, policy=policy)

            results, errors = call_concurrently([call] * 2)
            assert errors == [None, None]
            for slot, got in enumerate(results):
                assert_outputs_equal(want, got, f"{name} caller {slot} of 2")
        # every concurrent run hit the plan cached by the first execute
        assert cache.stats_snapshot().hits >= 2 * len(SHARED_ENGINES)
