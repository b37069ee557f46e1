"""Tests for the threaded GemmServer (live wall-clock path)."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.options import Heuristic
from repro.core.plancache import PlanCache
from repro.core.problem import Gemm
from repro.kernels import ExecutionPolicy
from repro.serve.admission import AdmissionConfig
from repro.serve.batcher import BatcherConfig
from repro.serve.config import ServeConfig
from repro.serve.request import (
    REASON_DEADLINE,
    REASON_QUEUE_FULL,
    REASON_SHUTDOWN,
    RequestStatus,
)
from repro.serve.server import GemmServer


def quick_config(**kw) -> ServeConfig:
    defaults = dict(
        workers=2,
        batcher=BatcherConfig(max_batch_size=4, max_wait_us=2000.0),
        admission=AdmissionConfig(queue_capacity=32),
        heuristic=Heuristic.THRESHOLD,
    )
    defaults.update(kw)
    return ServeConfig(**defaults)


class TestLifecycle:
    def test_context_manager_drains(self, framework):
        with GemmServer(framework, quick_config()) as server:
            tickets = [server.submit(Gemm(32, 32, 32)) for _ in range(6)]
        results = [t.result(timeout=10.0) for t in tickets]
        assert all(r.status is RequestStatus.COMPLETED for r in results)
        report = server.summary()
        assert report.n_completed == 6
        assert report.time_base == "wall"

    def test_unstarted_server_settles_on_close(self, framework):
        server = GemmServer(framework, quick_config())
        t = server.submit(Gemm(16, 16, 16))
        server.close(drain=True)
        assert t.result(timeout=5.0).status is RequestStatus.COMPLETED

    def test_close_without_drain_rejects_pending(self, framework):
        config = quick_config(
            batcher=BatcherConfig(max_batch_size=64, max_wait_us=60_000_000.0)
        )
        server = GemmServer(framework, config)
        server.start()
        tickets = [server.submit(Gemm(16, 16, 16)) for _ in range(3)]
        server.close(drain=False)
        for t in tickets:
            r = t.result(timeout=5.0)
            assert r.status is RequestStatus.REJECTED
            assert r.reason == REASON_SHUTDOWN

    def test_submit_after_close_rejected(self, framework):
        server = GemmServer(framework, quick_config())
        server.close()
        r = server.submit(Gemm(8, 8, 8)).result(timeout=1.0)
        assert r.status is RequestStatus.REJECTED and r.reason == REASON_SHUTDOWN

    def test_start_is_idempotent(self, framework):
        server = GemmServer(framework, quick_config())
        server.start()
        server.start()
        server.close()


class TestAdmission:
    def test_queue_full_rejection(self, framework):
        config = quick_config(
            batcher=BatcherConfig(max_batch_size=64, max_wait_us=60_000_000.0),
            admission=AdmissionConfig(queue_capacity=2),
        )
        server = GemmServer(framework, config)  # never started: nothing drains
        tickets = [server.submit(Gemm(16, 16, 16)) for _ in range(4)]
        rejected = [
            t.result(timeout=1.0)
            for t in tickets
            if t.done() and not t.result(timeout=1.0).ok
        ]
        assert len(rejected) == 2
        assert all(r.reason == REASON_QUEUE_FULL for r in rejected)
        server.close(drain=True)
        assert sum(t.result(timeout=5.0).ok for t in tickets) == 2

    def test_expired_deadline_shed(self, framework):
        with GemmServer(framework, quick_config()) as server:
            t = server.submit(Gemm(16, 16, 16), deadline_us=0.0)
        r = t.result(timeout=5.0)
        assert r.status is RequestStatus.REJECTED
        assert r.reason == REASON_DEADLINE

    def test_tiny_timeout_times_out(self, framework):
        config = quick_config(
            batcher=BatcherConfig(max_batch_size=1, max_wait_us=1.0)
        )
        with GemmServer(framework, config) as server:
            t = server.submit(Gemm(16, 16, 16), timeout_us=0.001)
        assert t.result(timeout=5.0).status is RequestStatus.TIMED_OUT


class TestExecution:
    def test_numeric_operands_produce_value(self, framework, rng):
        a = rng.standard_normal((16, 24))
        b = rng.standard_normal((24, 8))
        config = quick_config(batcher=BatcherConfig(max_batch_size=1, max_wait_us=10.0))
        with GemmServer(framework, config) as server:
            t = server.submit(Gemm(16, 8, 24), operands=(a, b))
        result = t.result(timeout=10.0)
        assert result.status is RequestStatus.COMPLETED
        np.testing.assert_allclose(result.value, a @ b, rtol=1e-6)

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_engine_selectable(self, framework, rng, engine):
        a = rng.standard_normal((16, 24))
        b = rng.standard_normal((24, 8))
        config = quick_config(
            policy=ExecutionPolicy(engine=engine),
            batcher=BatcherConfig(max_batch_size=1, max_wait_us=10.0),
        )
        with GemmServer(framework, config) as server:
            t = server.submit(Gemm(16, 8, 24), operands=(a, b))
        result = t.result(timeout=10.0)
        assert result.status is RequestStatus.COMPLETED
        np.testing.assert_allclose(result.value, a @ b, rtol=1e-6)

    def test_served_value_dies_with_its_caller(self, framework, rng):
        """The server keeps its settlement record, not the output array:
        once the caller drops the ticket and the result, the value is
        freed even though the server (and its measurements) live on."""
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        config = quick_config(batcher=BatcherConfig(max_batch_size=1, max_wait_us=10.0))
        with GemmServer(framework, config) as server:
            ticket = server.submit(Gemm(64, 64, 64), operands=(a, b))
        result = ticket.result(timeout=10.0)
        assert result.status is RequestStatus.COMPLETED
        value = weakref.ref(result.value)
        del ticket, result
        gc.collect()
        assert value() is None
        (record,) = server.measurements()["results"]
        assert record.status is RequestStatus.COMPLETED and record.value is None

    def test_unknown_engine_rejected_at_config(self):
        with pytest.raises(ValueError, match="engine"):
            quick_config(policy=ExecutionPolicy(engine="quantum"))

    def test_shared_cache_across_workers(self, framework):
        cache = PlanCache(framework, capacity=64)
        config = quick_config(workers=3)
        with GemmServer(framework, config, cache=cache) as server:
            tickets = [server.submit(Gemm(32, 32, 32)) for _ in range(12)]
            for t in tickets:
                assert t.result(timeout=10.0).ok
        stats = cache.stats_snapshot()
        assert stats.hits + stats.misses >= 1
        assert server.summary().cache.misses >= 1

    def test_ticket_result_timeout_raises(self, framework):
        server = GemmServer(framework, quick_config())
        t = server.submit(Gemm(8, 8, 8))
        with pytest.raises(TimeoutError):
            t.result(timeout=0.01)
        server.close(drain=True)


class TestSummary:
    def test_summary_counts_add_up(self, framework):
        with GemmServer(framework, quick_config()) as server:
            for _ in range(5):
                server.submit(Gemm(32, 32, 32))
            server.submit(Gemm(16, 16, 16), deadline_us=0.0)
        report = server.summary()
        assert report.n_requests == 6
        settled = (
            report.n_completed
            + report.n_rejected_queue
            + report.n_shed_deadline
            + report.n_rejected_other
            + report.n_timed_out
        )
        assert settled == 6
        assert report.n_shed_deadline == 1

    def test_summary_emits_deferred_telemetry(self, framework):
        from repro.telemetry import tracing

        with tracing() as tracer:
            with GemmServer(framework, quick_config()) as server:
                for _ in range(4):
                    server.submit(Gemm(32, 32, 32))
            server.summary()
        counters = tracer.metrics.to_dict()["counters"]
        assert counters["serve.requests_completed"] == 4
