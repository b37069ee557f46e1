"""Fault-tolerance tests of the serving layer.

Covers the reliability tentpole end to end: seeded chaos against the
live server (every ticket settles), poison-batch bisection, breaker
open -> half-open -> recovered on the real pipeline, crash barriers,
shutdown under load, the error-path admission EWMA feed, and the
reliability telemetry emitted by ``summary()``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.options import Heuristic
from repro.core.problem import Gemm
from repro.reliability import (
    BreakerState,
    FaultPlan,
    RetryPolicy,
)
from repro.serve import ReliabilityConfig, ServeConfig, replay_trace
from repro.serve.admission import AdmissionConfig
from repro.serve.batcher import BatcherConfig
from repro.serve.loadgen import poisson_trace
from repro.serve.request import (
    REASON_SHUTDOWN,
    REASON_STRANDED,
    RequestStatus,
    is_error_reason,
)
from repro.serve.server import GemmServer
from repro.telemetry import Tracer, set_tracer

NO_WAIT = RetryPolicy(max_attempts=2, base_delay_ms=0.0, max_delay_ms=0.0)


def rel_config(**kw) -> ReliabilityConfig:
    kw.setdefault("retry", NO_WAIT)
    return ReliabilityConfig(**kw)


def quick_config(**kw) -> ServeConfig:
    defaults = dict(
        workers=2,
        batcher=BatcherConfig(max_batch_size=4, max_wait_us=2000.0),
        admission=AdmissionConfig(queue_capacity=256),
        heuristic=Heuristic.THRESHOLD,
        reliability=rel_config(),
    )
    defaults.update(kw)
    return ServeConfig(**defaults)


def make_operands(rng, gemm: Gemm):
    return (
        rng.standard_normal((gemm.m, gemm.k)),
        rng.standard_normal((gemm.k, gemm.n)),
    )


class TestChaosRun:
    """Seeded fault injection against a 200-request live run."""

    N = 200

    def run_once(self, framework, seed: int):
        plan = FaultPlan.parse(
            ["engine_error:engine=compiled,rate=0.2"], seed=seed
        )
        config = quick_config(
            workers=1,  # serialized so the fault sequence is reproducible
            # size-trigger only: wall-clock timing must not move batch
            # boundaries, or the engine call count would vary per run
            batcher=BatcherConfig(max_batch_size=8, max_wait_us=60_000_000.0),
            reliability=rel_config(fault_plan=plan, breaker_cooldown_s=0.01),
        )
        rng = np.random.default_rng(7)
        gemm = Gemm(24, 24, 24)
        with GemmServer(framework, config) as server:
            tickets = [
                server.submit(gemm, operands=make_operands(rng, gemm))
                for _ in range(self.N)
            ]
            results = [t.result(timeout=60.0) for t in tickets]
            health = server.health()
            events = [e.as_tuple() for e in server.injector.events]
        report = server.summary()
        return results, report, health, events

    def test_every_ticket_settles_and_completes(self, framework):
        results, report, health, events = self.run_once(framework, seed=11)
        assert len(results) == self.N
        assert all(r.status is RequestStatus.COMPLETED for r in results)
        assert report.n_completed == self.N
        # the chaos actually happened and the reliability layer absorbed it
        rel = report.reliability
        assert rel["faults_injected"] > 0
        assert rel["retries"] + rel["fallbacks"] > 0
        assert events
        # nothing was stranded and the server stayed healthy
        assert health["outstanding"] == 0
        assert not health["crashes"]

    def test_same_seed_gives_identical_fault_sequence(self, framework):
        _, _, _, first = self.run_once(framework, seed=11)
        _, _, _, second = self.run_once(framework, seed=11)
        assert first == second
        _, _, _, other = self.run_once(framework, seed=12)
        assert first != other


class TestPoisonBisection:
    def serve_with_poison(self, framework, *, bisect: bool):
        config = quick_config(
            workers=1,
            # A window far longer than the eight submits take, so the
            # size trigger (8) forms one batch holding the poison and
            # all seven batchmates, however slow the host.
            batcher=BatcherConfig(max_batch_size=8, max_wait_us=5_000_000),
            reliability=rel_config(bisect=bisect),
        )
        rng = np.random.default_rng(3)
        gemm = Gemm(16, 16, 16)
        with GemmServer(framework, config) as server:
            tickets = []
            for i in range(8):
                a, b = make_operands(rng, gemm)
                if i == 5:  # the poison: a truncated A the engine rejects
                    a = a[:, :-1]
                tickets.append(server.submit(gemm, operands=(a, b)))
            results = [t.result(timeout=30.0) for t in tickets]
        return results, server.summary()

    def test_poison_is_isolated_and_batchmates_complete(self, framework):
        results, report = self.serve_with_poison(framework, bisect=True)
        statuses = [r.status for r in results]
        assert statuses.count(RequestStatus.COMPLETED) == 7
        poison = results[5]
        assert poison.status is RequestStatus.REJECTED
        assert poison.reason == "error:ValueError"
        assert report.reliability["bisections"] > 0
        assert report.n_rejected_error == 1

    def test_without_bisection_the_whole_batch_fails(self, framework):
        results, report = self.serve_with_poison(framework, bisect=False)
        rejected = [r for r in results if r.status is RequestStatus.REJECTED]
        assert len(rejected) > 1  # healthy batchmates went down with the poison
        assert all(r.reason == "error:ValueError" for r in rejected)
        assert report.reliability["bisections"] == 0


class TestBreakerLifecycle:
    def test_breaker_opens_then_recovers_on_the_live_pipeline(self, framework):
        plan = FaultPlan.parse(["engine_error:engine=compiled,at=1-3"], seed=0)
        config = quick_config(
            workers=1,
            batcher=BatcherConfig(max_batch_size=1, max_wait_us=100.0),
            reliability=rel_config(
                fault_plan=plan,
                breaker_failure_threshold=3,
                breaker_cooldown_s=0.05,
            ),
        )
        rng = np.random.default_rng(0)
        gemm = Gemm(16, 16, 16)
        with GemmServer(framework, config) as server:
            def serve_one():
                t = server.submit(gemm, operands=make_operands(rng, gemm))
                return t.result(timeout=30.0)

            # calls 1+2 fail (retry exhausted) -> fallback to reference
            assert serve_one().status is RequestStatus.COMPLETED
            # call 3 fails -> third consecutive failure -> breaker opens
            assert serve_one().status is RequestStatus.COMPLETED
            assert server.health()["breakers"]["compiled"] == "open"
            # open breaker: compiled skipped entirely, served by reference
            before = server.injector.snapshot()["calls"]["engine:compiled"]
            assert serve_one().status is RequestStatus.COMPLETED
            assert server.injector.snapshot()["calls"]["engine:compiled"] == before
            # cooldown elapses -> half-open probe (call 4) succeeds -> closed
            time.sleep(0.06)
            assert serve_one().status is RequestStatus.COMPLETED
            health = server.health()
            assert health["breakers"]["compiled"] == "closed"
            history = health["breaker_detail"]["compiled"]["history"]
            assert history == ["closed", "open", "half_open", "closed"]
            assert health["fallbacks"] >= 3


class TestCrashBarriers:
    def test_batch_loop_crash_settles_all_tickets(self, framework):
        config = quick_config(workers=1)
        server = GemmServer(framework, config)

        # queue requests first, then boot the poisoned batch loop: the
        # crash barrier must settle what was already pending
        tickets = [server.submit(Gemm(16, 16, 16)) for _ in range(4)]

        def poisoned_poll(now_us):
            raise RuntimeError("batcher blew up")

        server._batcher.poll = poisoned_poll
        server.start()
        results = [t.result(timeout=10.0) for t in tickets]
        assert all(r.status is RequestStatus.REJECTED for r in results)
        assert all(r.reason == "error:RuntimeError" for r in results)
        health = server.health()
        assert not health["ok"]
        assert any("batch-loop" in c for c in health["crashes"])
        server.close()  # joins cleanly, no hang

    def test_worker_level_failure_settles_only_that_batch(self, framework):
        config = quick_config(workers=1)
        server = GemmServer(framework, config)

        def exploding_serve(formed):
            raise RuntimeError("serve blew up")

        server._serve_batch = exploding_serve
        server.start()
        t = server.submit(Gemm(16, 16, 16))
        r = t.result(timeout=10.0)
        assert r.status is RequestStatus.REJECTED
        assert r.reason == "error:RuntimeError"
        server.close()

    def test_sweep_settles_orphaned_tickets(self, framework):
        server = GemmServer(framework, quick_config())
        server.start()
        # orphan a ticket by hand: registered but never routed anywhere
        from repro.serve.server import ServeTicket

        orphan = ServeTicket(10_000)
        server._tickets[10_000] = orphan
        server.close()
        assert orphan.result(timeout=5.0).reason == REASON_STRANDED


class TestShutdownUnderLoad:
    """close() with batches still queued in _batch_q settles everything."""

    def setup_gated_server(self, framework, n_requests: int):
        config = quick_config(
            workers=1,
            batcher=BatcherConfig(max_batch_size=1, max_wait_us=100.0),
        )
        server = GemmServer(framework, config)
        gate = threading.Event()
        inner_plan = server._planner.plan
        first_call = threading.Event()

        def gated_plan(formed, **kwargs):
            first_call.set()
            gate.wait(timeout=30.0)
            return inner_plan(formed, **kwargs)

        server._planner.plan = gated_plan
        server.start()
        tickets = [server.submit(Gemm(16, 16, 16)) for _ in range(n_requests)]
        assert first_call.wait(timeout=10.0)  # worker is inside batch 1
        deadline = time.monotonic() + 10.0
        while server._batch_q.qsize() < n_requests - 1:
            assert time.monotonic() < deadline, "batches never queued"
            time.sleep(0.005)
        return server, gate, tickets

    def run_close(self, server, gate, drain: bool):
        closer = threading.Thread(target=lambda: server.close(drain=drain))
        closer.start()
        time.sleep(0.05)
        gate.set()  # release the stuck worker only after close() began
        closer.join(timeout=30.0)
        assert not closer.is_alive(), "close() hung"

    def test_close_without_drain_settles_queued_batches(self, framework):
        server, gate, tickets = self.setup_gated_server(framework, 6)
        self.run_close(server, gate, drain=False)
        results = [t.result(timeout=10.0) for t in tickets]
        assert all(t.done() for t in tickets)
        # the in-flight batch finishes; everything still queued is shut down
        assert results[0].status is RequestStatus.COMPLETED
        for r in results[1:]:
            assert r.status is RequestStatus.REJECTED
            assert r.reason == REASON_SHUTDOWN
        assert server.health()["outstanding"] == 0

    def test_close_with_drain_completes_queued_batches(self, framework):
        server, gate, tickets = self.setup_gated_server(framework, 6)
        self.run_close(server, gate, drain=True)
        results = [t.result(timeout=10.0) for t in tickets]
        assert all(r.status is RequestStatus.COMPLETED for r in results)


class TestSatelliteRegressions:
    def test_submit_promotes_mixed_dtype_accumulator(self, framework):
        """C must use np.result_type(a, b), not a.dtype (the old bug)."""
        rng = np.random.default_rng(0)
        gemm = Gemm(8, 8, 8)
        a = rng.standard_normal((8, 8), dtype=np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float64)
        with GemmServer(framework, quick_config()) as server:
            r = server.submit(gemm, operands=(a, b)).result(timeout=10.0)
        assert r.status is RequestStatus.COMPLETED
        assert r.value.dtype == np.float64
        np.testing.assert_allclose(r.value, a.astype(np.float64) @ b)

    def test_error_path_feeds_the_admission_ewma(self, framework):
        """A failed batch must still observe_service (regression)."""
        plan = FaultPlan.parse(["engine_error:every=1"], seed=0)
        config = quick_config(
            workers=1,
            batcher=BatcherConfig(max_batch_size=1, max_wait_us=100.0),
            reliability=rel_config(fault_plan=plan, fallback=False, bisect=False),
        )
        rng = np.random.default_rng(1)
        gemm = Gemm(16, 16, 16)
        with GemmServer(framework, config) as server:
            assert server._admission.service_estimate_us == 0.0
            t = server.submit(gemm, operands=make_operands(rng, gemm))
            r = t.result(timeout=30.0)
            assert r.status is RequestStatus.REJECTED
            assert is_error_reason(r.reason)
            assert server._admission.service_estimate_us > 0.0


class TestHealthAndTelemetry:
    def test_health_on_a_fresh_server(self, framework):
        server = GemmServer(framework, quick_config())
        health = server.health()
        assert health["ok"] and health["accepting"]
        assert health["queue_depth"] == 0
        assert health["outstanding"] == 0
        assert health["breakers"] == {"compiled": "closed", "reference": "closed"}
        assert health["retries"] == health["fallbacks"] == 0
        assert health["faults_injected"] == 0
        server.close()

    def test_summary_emits_reliability_telemetry(self, framework):
        plan = FaultPlan.parse(["engine_error:engine=compiled,at=1-2"], seed=0)
        config = quick_config(
            workers=1,
            batcher=BatcherConfig(max_batch_size=1, max_wait_us=100.0),
            reliability=rel_config(fault_plan=plan),
        )
        rng = np.random.default_rng(2)
        gemm = Gemm(16, 16, 16)
        tracer = set_tracer(Tracer())
        try:
            with GemmServer(framework, config) as server:
                t = server.submit(gemm, operands=make_operands(rng, gemm))
                assert t.result(timeout=30.0).status is RequestStatus.COMPLETED
            report = server.summary()
        finally:
            set_tracer(None)  # back to the no-op singleton
        rel = report.reliability
        metrics = tracer.metrics.to_dict()
        counters = metrics["counters"]
        assert counters["serve.retries"] == rel["retries"] == 1
        assert counters["serve.fallbacks"] == rel["fallbacks"] == 1
        assert counters["faults.injected"] == rel["faults_injected"] == 2
        assert counters["serve.bisections"] == rel["bisections"] == 0
        gauges = metrics["gauges"]
        assert gauges["serve.breaker_state.compiled"] == BreakerState.CLOSED.code
        assert gauges["serve.breaker_state.reference"] == BreakerState.CLOSED.code

    def test_report_dict_round_trips_reliability(self, framework):
        with GemmServer(framework, quick_config()) as server:
            server.submit(Gemm(16, 16, 16)).result(timeout=10.0)
        d = server.summary().to_dict()
        assert d["reliability"]["fallbacks"] == 0
        assert d["n_rejected_error"] == 0


class TestReplayReliability:
    """Virtual-time replay: planner faults, virtual retries, rejection."""

    def test_planner_faults_are_deterministic_and_typed(self):
        trace = poisson_trace(rate_rps=2000, duration_s=0.05, seed=0)
        plan = FaultPlan.parse(
            ["planner_error:rate=0.2", "planner_slow:every=5,ms=2.0"], seed=3
        )
        config = ServeConfig(
            heuristic=Heuristic.THRESHOLD,
            reliability=rel_config(fault_plan=plan),
        )
        r1 = replay_trace(trace, config=config)
        r2 = replay_trace(trace, config=config)
        assert r1.to_dict() == r2.to_dict()
        rel = r1.reliability
        assert rel["faults_injected"] > 0
        assert rel["planner_retries"] > 0
        # a batch whose planning failed terminally is typed error:*
        if r1.n_rejected_error:
            bad = [
                r
                for r in r1.results
                if r.status is RequestStatus.REJECTED and is_error_reason(r.reason)
            ]
            assert all(r.reason == "error:InjectedFault" for r in bad)
        assert r1.n_completed + r1.n_rejected_error == r1.n_requests

    def test_slow_faults_are_charged_virtually(self):
        trace = poisson_trace(rate_rps=1000, duration_s=0.05, seed=1)
        slow_plan = FaultPlan.parse(["planner_slow:every=1,ms=50.0"], seed=0)
        base = ServeConfig(heuristic=Heuristic.THRESHOLD)
        slowed = ServeConfig(
            heuristic=Heuristic.THRESHOLD,
            reliability=rel_config(fault_plan=slow_plan),
        )
        t0 = time.monotonic()
        fast = replay_trace(trace, config=base)
        slow = replay_trace(trace, config=slowed)
        elapsed = time.monotonic() - t0
        # every batch was slowed by 50ms of *virtual* latency
        assert slow.latency.mean_us > fast.latency.mean_us + 40_000
        # ... yet no wall-clock sleeping happened
        assert elapsed < 30.0
        assert slow.reliability["faults_injected"] == slow.n_batches

    def test_no_fault_plan_keeps_reliability_none(self):
        trace = poisson_trace(rate_rps=1000, duration_s=0.02, seed=2)
        report = replay_trace(
            trace, config=ServeConfig(heuristic=Heuristic.THRESHOLD)
        )
        assert report.reliability is None
