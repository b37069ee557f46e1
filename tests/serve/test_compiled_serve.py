"""Serving-layer tests for the compiled execution policy.

Covers the three serve-side guarantees of the compiled engine: live
requests through ``GemmServer`` return the same bits as the reference
walk; a plan cache warmed or restored from a manifest executes with
**zero** compilation on the hot path (asserted via the ``compile.*``
telemetry counters); and virtual-time replay charges
``compile_overhead_us`` exactly once per plan-cache miss, so a fully
warmed replay charges nothing (the ``serve.compiles_charged``
counter).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.options import Heuristic
from repro.core.plancache import PlanCache
from repro.core.problem import Gemm, GemmBatch
from repro.kernels import ExecutionPolicy
from repro.serve.admission import AdmissionConfig
from repro.serve.batcher import BatcherConfig
from repro.serve.config import ServeConfig
from repro.serve.driver import replay_trace
from repro.serve.loadgen import TraceRequest, poisson_trace
from repro.serve.request import RequestStatus
from repro.serve.server import GemmServer
from repro.telemetry import tracing


def compiled_config(**kw) -> ServeConfig:
    defaults = dict(
        workers=2,
        batcher=BatcherConfig(max_batch_size=4, max_wait_us=2000.0),
        admission=AdmissionConfig(queue_capacity=32),
        heuristic=Heuristic.THRESHOLD,
        policy=ExecutionPolicy(engine="compiled"),
    )
    defaults.update(kw)
    return ServeConfig(**defaults)


def uniform_trace(n=16, gap_us=1.0, shape=(32, 32, 32)):
    return [
        TraceRequest(arrival_us=(i + 1) * gap_us, gemm=Gemm(*shape))
        for i in range(n)
    ]


class TestLiveServer:
    def test_compiled_policy_serves_numeric_requests(self, framework, rng):
        a = rng.standard_normal((16, 24))
        b = rng.standard_normal((24, 8))
        config = compiled_config(
            batcher=BatcherConfig(max_batch_size=1, max_wait_us=10.0)
        )
        with GemmServer(framework, config) as server:
            t = server.submit(Gemm(16, 8, 24), operands=(a, b))
        result = t.result(timeout=10.0)
        assert result.status is RequestStatus.COMPLETED
        np.testing.assert_allclose(result.value, a @ b, rtol=1e-6)

    def test_compiled_bit_matches_reference_server(self, framework, rng):
        a = rng.standard_normal((40, 64))
        b = rng.standard_normal((64, 24))
        values = {}
        for engine in ("reference", "compiled"):
            config = compiled_config(
                policy=ExecutionPolicy(engine=engine),
                batcher=BatcherConfig(max_batch_size=1, max_wait_us=10.0),
            )
            with GemmServer(framework, config) as server:
                t = server.submit(Gemm(40, 24, 64), operands=(a, b))
            result = t.result(timeout=10.0)
            assert result.status is RequestStatus.COMPLETED
            values[engine] = result.value
        assert np.array_equal(values["compiled"], values["reference"])

    def test_repeat_requests_reuse_the_artifact(self, framework, rng):
        """A hot shape mix compiles once and then only hits its artifact."""
        config = compiled_config(
            batcher=BatcherConfig(max_batch_size=1, max_wait_us=10.0)
        )
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        with GemmServer(framework, config) as server:
            tickets = [
                server.submit(Gemm(32, 32, 32), operands=(a, b)) for _ in range(6)
            ]
        results = [t.result(timeout=10.0) for t in tickets]
        assert all(r.status is RequestStatus.COMPLETED for r in results)
        for r in results[1:]:
            assert np.array_equal(r.value, results[0].value)


class TestWarmCacheZeroCompile:
    def test_warm_cache_hot_path_compiles_nothing(self, framework, rng):
        """After a warm, execution does zero compilation.

        ``PlanCache.warm`` precompiles each plan's artifact; the
        telemetry counters then prove the hot path never compiles:
        no ``compile.plans``, no ``compile.cache_misses``.
        """
        cache = PlanCache(framework)
        batch = GemmBatch.from_shapes([(32, 32, 32)] * 4)
        policy = ExecutionPolicy(engine="compiled")
        assert cache.warm([batch], Heuristic.THRESHOLD) == 1
        ops = batch.random_operands(rng)
        with tracing() as tracer:
            for _ in range(5):
                cache.execute(batch, ops, Heuristic.THRESHOLD, policy=policy)
        counters = tracer.metrics.to_dict()["counters"]
        assert counters.get("compile.plans", 0) == 0
        assert counters.get("compile.cache_misses", 0) == 0
        assert counters.get("plancache.misses", 0) == 0

    def test_restored_plan_executes_without_a_compile(self, framework, rng):
        """A respawned shard's restored plans are compiled by ``restore``.

        The first request on a restored key hits the plan cache and the
        compiled memo: no ``compile.cache_misses``, no ``compile.plans``.
        """
        batch = GemmBatch.from_shapes([(32, 32, 32), (48, 16, 40)])
        ops = batch.random_operands(rng)
        policy = ExecutionPolicy(engine="compiled")
        lost = PlanCache(framework)
        lost.execute(batch, ops, Heuristic.THRESHOLD, policy=policy)
        fresh = PlanCache(framework)
        assert fresh.restore(lost.snapshot()) == 1
        del lost  # its schedule and artifact die with it
        with tracing() as tracer:
            fresh.execute(batch, ops, Heuristic.THRESHOLD, policy=policy)
        counters = tracer.metrics.to_dict()["counters"]
        assert counters.get("plan_cache_hit", 0) == 1
        assert counters.get("compile.cache_misses", 0) == 0
        assert counters.get("compile.plans", 0) == 0
        assert counters.get("compile.cache_hits", 0) == 1

    def test_cold_cache_compiles_exactly_once(self, framework, rng):
        cache = PlanCache(framework)
        batch = GemmBatch.from_shapes([(32, 32, 32)] * 4)
        policy = ExecutionPolicy(engine="compiled")
        ops = batch.random_operands(rng)
        with tracing() as tracer:
            for _ in range(5):
                cache.execute(batch, ops, Heuristic.THRESHOLD, policy=policy)
        counters = tracer.metrics.to_dict()["counters"]
        assert counters.get("compile.plans", 0) == 1


class TestReplayCompileCharging:
    def test_compile_charged_once_per_distinct_plan(self, framework):
        config = compiled_config()
        with tracing() as tracer:
            report = replay_trace(uniform_trace(16), framework, config)
        assert report.n_completed == 16
        counters = tracer.metrics.to_dict()["counters"]
        # Four identical 4-batches -> one distinct plan -> one charge.
        assert counters.get("serve.compiles_charged", 0) == 1

    @pytest.mark.parametrize("capacity", [1, 2, 4, 64])
    def test_every_miss_charged_once_under_eviction(self, framework, capacity):
        """A new plan is charged even when it reuses an evicted plan's id.

        Batches of 24 shapes rarely repeat, so the plan cache evicts
        at every capacity here; an evicted schedule dies, and CPython
        hands its id to a later schedule.
        """
        rng = np.random.default_rng(5)
        shapes = [tuple(int(v) for v in rng.integers(16, 257, size=3)) for _ in range(24)]
        trace = poisson_trace(20_000.0, None, n_requests=3000, shapes=shapes, seed=5)
        cache = PlanCache(framework, capacity=capacity)
        with tracing() as tracer:
            report = replay_trace(trace, framework, compiled_config(), cache=cache)
        counters = tracer.metrics.to_dict()["counters"]
        assert report.cache.evictions > 0
        assert counters["serve.compiles_charged"] == report.cache.misses

    def test_fully_warmed_replay_charges_no_compile(self, framework):
        """A cache warmed from the trace's batches serves only hits.

        ``PlanCache.warm`` compiled every plan, so the replay charges no
        compile, although each schedule's first dispatch happens here.
        """
        shapes = [(32, 32, 32), (64, 48, 16), (24, 96, 40)]
        trace = poisson_trace(4000.0, None, n_requests=120, shapes=shapes, seed=3)
        config = compiled_config()
        scout = replay_trace(trace, framework, config)
        cache = PlanCache(framework, capacity=256)
        assert cache.warm(scout.formed_batches, config.heuristic) >= 2
        before = cache.stats_snapshot()
        with tracing() as tracer:
            report = replay_trace(trace, framework, config, cache=cache)
        counters = tracer.metrics.to_dict()["counters"]
        assert report.n_completed == scout.n_completed
        assert report.cache.misses == before.misses  # every dispatch hit
        assert report.cache.hits > before.hits
        assert counters.get("serve.compiles_charged", 0) == 0

    def test_reference_policy_charges_nothing(self, framework):
        config = compiled_config(policy=ExecutionPolicy(engine="reference"))
        with tracing() as tracer:
            replay_trace(uniform_trace(8), framework, config)
        counters = tracer.metrics.to_dict()["counters"]
        assert counters.get("serve.compiles_charged", 0) == 0

    def test_compile_overhead_raises_latency(self, framework):
        trace = uniform_trace(8)
        cheap = replay_trace(
            trace, framework, compiled_config(compile_overhead_us=0.0)
        )
        dear = replay_trace(
            trace, framework, compiled_config(compile_overhead_us=50_000.0)
        )
        assert cheap.n_completed == dear.n_completed == 8
        assert dear.latency.mean_us > cheap.latency.mean_us

    def test_replay_deterministic_under_compiled_policy(self, framework):
        trace = uniform_trace(12)
        config = compiled_config()
        first = replay_trace(trace, framework, config)
        second = replay_trace(trace, framework, config)
        assert first.to_dict() == second.to_dict()
