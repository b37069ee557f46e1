"""Tests for the deterministic virtual-time replay driver."""

import dataclasses

import pytest

from repro.core.plancache import PlanCache
from repro.core.problem import Gemm
from repro.reliability import FaultPlan, RetryPolicy
from repro.serve import ReliabilityConfig
from repro.serve.admission import AdmissionConfig
from repro.serve.batcher import BatcherConfig
from repro.serve.config import ServeConfig
from repro.serve.driver import replay_trace
from repro.serve.loadgen import TraceRequest, poisson_trace
from repro.serve.request import RequestStatus


def small_config(threshold, **kw) -> ServeConfig:
    defaults = dict(
        workers=2,
        batcher=BatcherConfig(max_batch_size=4, max_wait_us=1000.0),
        admission=AdmissionConfig(queue_capacity=32),
        heuristic=threshold,
    )
    defaults.update(kw)
    return ServeConfig(**defaults)


def uniform_trace(n=12, gap_us=100.0, shape=(32, 32, 32), **kw):
    return [
        TraceRequest(arrival_us=(i + 1) * gap_us, gemm=Gemm(*shape), **kw)
        for i in range(n)
    ]


class TestBasicReplay:
    def test_light_load_all_complete(self, framework, threshold):
        report = replay_trace(uniform_trace(8), framework, small_config(threshold))
        assert report.n_requests == 8
        assert report.n_completed == 8
        assert report.n_shed_deadline == report.n_rejected_queue == 0
        assert report.time_base == "virtual"
        assert report.throughput_rps > 0
        assert report.latency.count == 8
        assert report.latency.p99_us >= report.latency.p50_us > 0

    def test_batch_occupancy_bounded(self, framework, threshold):
        report = replay_trace(uniform_trace(10), framework, small_config(threshold))
        assert 0 < report.mean_occupancy <= report.max_batch_size
        assert report.max_occupancy <= report.max_batch_size
        assert report.n_batches >= 3  # 10 requests, batches of <= 4

    def test_queue_latency_below_total(self, framework, threshold):
        report = replay_trace(uniform_trace(8), framework, small_config(threshold))
        assert report.queue_latency.mean_us < report.latency.mean_us

    def test_results_cover_every_request(self, framework, threshold):
        report = replay_trace(uniform_trace(9), framework, small_config(threshold))
        assert [r.request_id for r in report.results] == list(range(9))


def pinned_replay(framework, threshold, rate_rps, reliability=ReliabilityConfig()):
    """The pinned Poisson serve workload, replayed at ``rate_rps``.

    0.2 s of Poisson arrivals (trace seed 7, 50 ms deadlines) through
    two workers, batches of up to 16 requests within 2 ms, a 64-deep
    queue and the threshold heuristic.
    """
    trace = poisson_trace(rate_rps, duration_s=0.2, seed=7, deadline_us=50_000.0)
    config = small_config(
        threshold,
        batcher=BatcherConfig(max_batch_size=16, max_wait_us=2000.0),
        admission=AdmissionConfig(queue_capacity=64),
        reliability=reliability,
    )
    return replay_trace(trace, framework, config)


def n_settled(report) -> int:
    return (
        report.n_completed
        + report.n_rejected_queue
        + report.n_shed_deadline
        + report.n_rejected_other
        + report.n_timed_out
    )


class TestPinnedPoissonLoad:
    """One pinned workload below and one near saturation, plus chaos."""

    def test_below_saturation_settles_with_ordered_tail(self, framework, threshold):
        report = pinned_replay(framework, threshold, 500.0)
        assert n_settled(report) == report.n_requests
        assert report.n_completed > 0
        assert report.latency.p99_us >= report.latency.p50_us

    def test_near_saturation_settles_and_fills_batches(self, framework, threshold):
        report = pinned_replay(framework, threshold, 2000.0)
        assert n_settled(report) == report.n_requests
        assert report.n_completed > 0
        assert report.mean_occupancy >= 1.0

    def test_reliability_layer_is_free_without_faults(self, framework, threshold):
        # An eager retry policy never engages without a fault plan, so
        # no backoff reaches virtual time and the report is unchanged.
        eager = ReliabilityConfig(
            retry=RetryPolicy(max_attempts=6, base_delay_ms=25.0, max_delay_ms=500.0),
            breaker_failure_threshold=1,
        )
        report = pinned_replay(framework, threshold, 500.0, eager)
        assert report.reliability is None
        assert report.to_dict() == pinned_replay(framework, threshold, 500.0).to_dict()

    def test_retries_keep_goodput_under_planner_faults(self, framework, threshold):
        chaos = ReliabilityConfig(
            fault_plan=FaultPlan.parse(["planner_error:rate=0.05"], seed=11)
        )
        report = pinned_replay(framework, threshold, 2000.0, chaos)
        assert n_settled(report) == report.n_requests
        assert report.reliability["faults_injected"] > 0
        assert report.reliability["retries"] > 0
        assert report.n_completed / report.n_requests >= 0.9


class TestDeterminism:
    def test_same_seed_identical_reports(self, framework, threshold):
        trace = poisson_trace(
            3000.0, 0.01, shapes=((32, 32, 32), (48, 48, 16)), seed=11,
            deadline_us=50_000.0,
        )
        config = small_config(threshold)
        first = replay_trace(trace, framework, config)
        second = replay_trace(trace, framework, config)
        assert first.to_dict() == second.to_dict()

    def test_different_seed_differs(self, framework, threshold):
        config = small_config(threshold)
        a = replay_trace(poisson_trace(3000.0, 0.01, seed=1), framework, config)
        b = replay_trace(poisson_trace(3000.0, 0.01, seed=2), framework, config)
        assert a.to_dict() != b.to_dict()


class TestAdmissionAndShedding:
    def test_queue_full_rejections(self, framework, threshold):
        # Batches never form before the window, so pending piles up.
        config = small_config(
            threshold,
            batcher=BatcherConfig(max_batch_size=64, max_wait_us=1e6),
            admission=AdmissionConfig(queue_capacity=4),
            workers=1,
        )
        trace = uniform_trace(10, gap_us=1.0)
        report = replay_trace(trace, framework, config)
        assert report.n_rejected_queue == 6
        assert report.n_completed == 4

    def test_deadline_expired_shed_before_planning(self, framework, threshold):
        config = small_config(
            threshold, batcher=BatcherConfig(max_batch_size=64, max_wait_us=5000.0)
        )
        trace = [
            TraceRequest(
                arrival_us=100.0 + i, gemm=Gemm(32, 32, 32),
                deadline_us=100.0 + i + 200.0,  # expires before the 5ms window
            )
            for i in range(5)
        ]
        report = replay_trace(trace, framework, config)
        assert report.n_shed_deadline == 5
        assert report.n_completed == 0
        assert report.cache.misses == 0  # shed without planning anything

    def test_timeout_produces_timed_out(self, framework, threshold):
        config = small_config(threshold)
        trace = uniform_trace(4, timeout_us=1.0)  # far below the 1ms window
        report = replay_trace(trace, framework, config)
        assert report.n_timed_out == 4
        assert all(r.status is RequestStatus.TIMED_OUT for r in report.results)

    def test_completed_after_deadline_flagged(self, framework, threshold):
        # Admission sees estimate 0 at first, so the request is admitted,
        # but the window makes it finish late: completed, deadline_met False.
        config = small_config(
            threshold, batcher=BatcherConfig(max_batch_size=64, max_wait_us=1000.0)
        )
        trace = [
            TraceRequest(
                arrival_us=10.0, gemm=Gemm(32, 32, 32), deadline_us=10.0 + 500.0
            )
        ]
        report = replay_trace(trace, framework, config)
        # Shed at formation (expired by then), not completed-late:
        # formation happens at window expiry 1010us > deadline 510us.
        assert report.n_shed_deadline == 1 or report.n_deadline_misses == 1


def burst_then_calm():
    """A 0.2 s overload burst, then 3 s of calm traffic from t = 1 s.

    Every request carries a 20 ms deadline.  The burst drives the
    admission estimate past the deadline; returns the whole trace and
    the number of calm requests at its end.
    """
    shapes = ((512, 512, 512), (768, 768, 768), (1024, 512, 256))
    burst = poisson_trace(200_000.0, 0.2, shapes=shapes, seed=1, deadline_us=20_000.0)
    calm = [
        dataclasses.replace(r, arrival_us=r.arrival_us + 1e6, deadline_us=r.deadline_us + 1e6)
        for r in poisson_trace(50.0, 3.0, shapes=shapes, seed=2, deadline_us=20_000.0)
    ]
    return burst + calm, len(calm)


class TestAdmissionLockIn:
    def test_calm_traffic_completes_after_an_overload_burst(self, framework):
        """Refusing everything is a state the shard leaves.

        Only completed work moves the admission estimate; without
        probes, the burst's estimate outlives the burst and the calm
        phase is refused whole (0 of its 155 requests complete).
        """
        trace, n_calm = burst_then_calm()
        report = replay_trace(
            trace, framework, ServeConfig(batcher=BatcherConfig(max_batch_size=4))
        )
        calm = report.results[-n_calm:]
        assert n_calm == 155
        assert sum(r.ok for r in calm) >= 140


class TestCacheInteraction:
    def test_uniform_traffic_hits_cache(self, framework, threshold):
        trace = uniform_trace(16, gap_us=1.0)  # four identical 4-batches
        report = replay_trace(trace, framework, small_config(threshold))
        assert report.cache.hits >= 1
        assert report.cache.hit_rate > 0

    def test_warm_start_serves_all_hits(self, framework, threshold):
        trace = uniform_trace(16, gap_us=1.0)
        config = small_config(threshold)
        cold = replay_trace(trace, framework, config)
        cache = PlanCache(framework, capacity=64)
        planned = cache.warm(cold.formed_batches, threshold)
        assert planned >= 1
        warm_stats_before = cache.stats_snapshot()
        warm = replay_trace(trace, framework, config, cache=cache)
        assert warm.n_completed == cold.n_completed
        assert warm.cache.misses == warm_stats_before.misses  # no new planning
        assert warm.cache.hits > warm_stats_before.hits

    def test_warm_lowers_latency(self, framework, threshold):
        trace = uniform_trace(16, gap_us=1.0)
        config = small_config(threshold, miss_overhead_us=500.0, hit_overhead_us=1.0)
        cold = replay_trace(trace, framework, config)
        cache = PlanCache(framework, capacity=64)
        cache.warm(cold.formed_batches, threshold)
        warm = replay_trace(trace, framework, config, cache=cache)
        assert warm.latency.mean_us < cold.latency.mean_us


class TestRendering:
    def test_render_serve_report(self, framework, threshold):
        from repro.analysis.latency import render_serve_report

        report = replay_trace(uniform_trace(6), framework, small_config(threshold))
        text = render_serve_report(report)
        assert "p99" in text and "plan cache" in text and "completed" in text

    def test_to_dict_json_compatible(self, framework, threshold):
        import json

        report = replay_trace(uniform_trace(4), framework, small_config(threshold))
        assert json.loads(json.dumps(report.to_dict()))["n_completed"] == 4


class TestTelemetry:
    def test_replay_emits_serve_metrics(self, framework, threshold):
        from repro.telemetry import tracing

        with tracing() as tracer:
            replay_trace(uniform_trace(8), framework, small_config(threshold))
        counters = tracer.metrics.to_dict()["counters"]
        assert counters["serve.requests_accepted"] == 8
        assert counters["serve.requests_completed"] == 8
        assert counters["serve.batches_formed"] >= 2
        assert tracer.metrics.histogram("serve.batch_occupancy").count >= 2
        assert any(s.name == "serve.replay" for s in tracer.walk())
