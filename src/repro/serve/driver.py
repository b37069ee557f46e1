"""Deterministic virtual-time replay of a traffic trace.

:func:`replay_trace` runs the full serving pipeline -- admission,
dynamic batching, cached planning, a bounded worker pool -- as a
discrete-event simulation on a **virtual clock**.  Arrival times come
from the trace; service times come from the device model
(:meth:`CoordinatedFramework.simulate_plan`) plus the configured
planning overhead.  Nothing reads a wall clock or depends on thread
scheduling, so the same trace, config and cache state always produce
the *identical* report -- the property the serving benchmarks and the
``repro-serve`` CLI rely on.

Event kinds, in one heap ordered by (time, insertion sequence):

* ``arrive`` -- admission-check the request, queue it, schedule its
  wait-window expiry.
* ``window`` -- re-poll the batcher (the oldest waiter's window may
  have tripped).
* ``complete`` -- a worker finished a batch: resolve its requests,
  feed the admission EWMA, dispatch the next queued batch.

Batches dispatch FIFO to the first of ``config.workers`` free worker
slots; a slot stays busy for the batch's planning + simulated kernel
time, which is how queueing delay emerges under overload.  Under a
``compiled`` execution policy the first dispatch of each distinct
plan is additionally charged ``config.compile_overhead_us`` (the
one-off artifact compilation, counted as ``serve.compiles_charged``);
later dispatches of the same plan charge nothing extra, mirroring the
live server's warm hot path.

Fault tolerance: when ``config.reliability.fault_plan`` is set, a
:class:`~repro.reliability.FaultInjector` is attached to the planner
stage with ``sleep=None`` -- slow faults are *charged into virtual
time* (as extra ``plan_us``) instead of wall-sleeping, and planner
error faults are retried per the retry policy with the backoff delays
likewise charged virtually.  A batch whose planning still fails is
rejected with the typed ``error:<ExcName>`` reason and its latency is
fed to the admission EWMA, mirroring the live server's error path.
Replay never executes operands, so the engine fallback chain and
poison bisection have no virtual-time counterpart; the report's
``reliability`` dict carries the planner-side counters.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from collections import deque
from typing import Optional, Sequence

from repro.core.framework import CoordinatedFramework
from repro.core.plancache import PlanCache
from repro.reliability import FaultInjector
from repro.serve.admission import AdmissionController
from repro.serve.batcher import DynamicBatcher, FormedBatch
from repro.serve.config import ServeConfig
from repro.serve.loadgen import TraceRequest
from repro.serve.planner import PlannedBatch, PlannerStage
from repro.serve.report import ServeReport, compile_report
from repro.serve.request import (
    REASON_DEADLINE,
    Completed,
    Rejected,
    ServeRequest,
    ServeResult,
    TimedOut,
    error_reason,
)
from repro.telemetry import get_tracer


def replay_trace(
    trace: Sequence[TraceRequest],
    framework: Optional[CoordinatedFramework] = None,
    config: Optional[ServeConfig] = None,
    *,
    cache: Optional[PlanCache] = None,
) -> ServeReport:
    """Serve ``trace`` in virtual time and report what happened.

    ``cache`` may be a pre-warmed :class:`PlanCache` (see
    :meth:`PlanCache.warm` and ``ServeReport.formed_batches``); by
    default a fresh one is created, so the first batch of every
    distinct shape mix pays the miss overhead.
    """
    framework = framework if framework is not None else CoordinatedFramework()
    config = config if config is not None else ServeConfig()
    reliability_cfg = config.reliability
    # sleep=None: slow faults are charged into virtual time, not slept.
    injector = (
        FaultInjector(reliability_cfg.fault_plan, sleep=None)
        if reliability_cfg.fault_plan is not None
        else None
    )
    batcher = DynamicBatcher(config.batcher)
    admission = AdmissionController(config.admission)
    planner = PlannerStage(
        framework,
        cache,
        heuristic=config.heuristic,
        miss_overhead_us=config.miss_overhead_us,
        hit_overhead_us=config.hit_overhead_us,
        injector=injector,
    )
    tracer = get_tracer()

    seq = itertools.count()
    events: list[tuple[float, int, str, object]] = []

    def push(time_us: float, kind: str, payload: object) -> None:
        heapq.heappush(events, (time_us, next(seq), kind, payload))

    for i, tr in enumerate(sorted(trace, key=lambda t: t.arrival_us)):
        push(
            tr.arrival_us,
            "arrive",
            ServeRequest(
                request_id=i,
                gemm=tr.gemm,
                arrival_us=tr.arrival_us,
                deadline_us=tr.deadline_us,
                timeout_us=tr.timeout_us,
                priority=tr.priority,
                precision=getattr(tr, "precision", None),
            ),
        )

    results: dict[int, ServeResult] = {}
    occupancies: list[int] = []
    formed_batches: list = []
    batch_fifo: deque[FormedBatch] = deque()
    free_workers = config.workers
    makespan_us = 0.0
    planner_retries = 0
    batch_failures = 0

    def resolve_shed(fb: FormedBatch, now_us: float) -> None:
        for r in fb.shed:
            results[r.request_id] = Rejected(
                request_id=r.request_id,
                finish_us=now_us,
                latency_us=now_us - r.arrival_us,
                reason=REASON_DEADLINE,
            )
            tracer.counter("serve.requests_shed")

    def plan_with_retry(fb: FormedBatch) -> tuple[PlannedBatch, float]:
        """Plan ``fb``, retrying per policy; returns (plan, delay charged).

        Backoff delays are *virtual*: accumulated and charged into the
        batch's service interval rather than slept.
        """
        nonlocal planner_retries
        policy = config.reliability.retry
        delay_us = 0.0
        for attempt in range(1, policy.max_attempts + 1):
            try:
                return planner.plan(fb), delay_us
            except Exception:
                if attempt >= policy.max_attempts:
                    raise
                planner_retries += 1
                delay_us += policy.delay_ms(attempt, token="planner") * 1e3
        raise AssertionError("unreachable")

    def reject_failed(fb: FormedBatch, now_us: float, exc: Exception) -> None:
        nonlocal batch_failures
        batch_failures += 1
        reason = error_reason(exc)
        for r in fb.requests:
            latency_us = now_us - r.arrival_us
            results[r.request_id] = Rejected(
                request_id=r.request_id,
                finish_us=now_us,
                latency_us=latency_us,
                reason=reason,
            )
            tracer.counter("serve.requests_failed")
            # Keep the EWMA fed on the error path too, matching the
            # live server, so feasibility estimates track incidents.
            admission.observe_service(latency_us)

    # Under a compiled policy the first dispatch of each distinct plan
    # is charged the one-off artifact compilation; warm dispatches of
    # the same plan charge nothing extra (the hot path is lookup +
    # interpreter only).  A schedule's entry dies with it, as its
    # compiled artifact does: CPython reuses a dead schedule's id.
    compiled_seen: set[int] = set()

    def compile_charge_us(planned: PlannedBatch) -> float:
        if config.policy.engine != "compiled":
            return 0.0
        schedule = planned.report.schedule
        key = id(schedule)
        if key in compiled_seen:
            return 0.0
        compiled_seen.add(key)
        weakref.finalize(schedule, compiled_seen.discard, key)
        tracer.counter("serve.compiles_charged")
        return config.compile_overhead_us

    def dispatch(now_us: float) -> None:
        nonlocal free_workers
        while free_workers > 0 and batch_fifo:
            fb = batch_fifo.popleft()
            try:
                planned, retry_delay_us = plan_with_retry(fb)
            except Exception as exc:
                reject_failed(fb, now_us, exc)
                continue
            free_workers -= 1
            push(
                now_us + retry_delay_us + compile_charge_us(planned)
                + planned.service_us,
                "complete",
                (planned, now_us),
            )

    def form(now_us: float) -> None:
        while True:
            fb = batcher.poll(now_us)
            if fb is None:
                break
            resolve_shed(fb, now_us)
            if fb.requests:
                occupancies.append(fb.occupancy)
                formed_batches.append(fb.to_gemm_batch())
                tracer.histogram("serve.batch_occupancy", fb.occupancy)
                tracer.counter("serve.batches_formed")
                batch_fifo.append(fb)
        dispatch(now_us)

    def complete(planned: PlannedBatch, dispatch_us: float, now_us: float) -> None:
        nonlocal free_workers
        free_workers += 1
        batch_size = planned.formed.occupancy
        for r in planned.formed.requests:
            latency_us = now_us - r.arrival_us
            if r.timeout_us is not None and latency_us > r.timeout_us:
                results[r.request_id] = TimedOut(
                    request_id=r.request_id,
                    finish_us=now_us,
                    latency_us=latency_us,
                    batch_id=planned.formed.batch_id,
                )
                tracer.counter("serve.requests_timeout")
            else:
                results[r.request_id] = Completed(
                    request_id=r.request_id,
                    finish_us=now_us,
                    latency_us=latency_us,
                    batch_id=planned.formed.batch_id,
                    batch_size=batch_size,
                    queue_us=dispatch_us - r.arrival_us,
                    service_us=planned.service_us,
                    deadline_met=r.deadline_us is None or now_us <= r.deadline_us,
                )
                tracer.counter("serve.requests_completed")
                tracer.histogram("serve.latency_us", latency_us)
            admission.observe_service(latency_us)
        dispatch(now_us)

    with tracer.span(
        "serve.replay", requests=len(trace), workers=config.workers
    ) as span:
        while events:
            now_us, _, kind, payload = heapq.heappop(events)
            makespan_us = max(makespan_us, now_us)
            if kind == "arrive":
                req = payload  # type: ignore[assignment]
                tracer.gauge("serve.queue_depth", batcher.pending_count)
                rejection = admission.admit(req, batcher.pending_count, now_us)
                if rejection is not None:
                    results[req.request_id] = rejection
                    tracer.counter("serve.requests_rejected")
                else:
                    batcher.offer(req)
                    tracer.counter("serve.requests_accepted")
                    push(now_us + config.batcher.max_wait_us, "window", None)
                form(now_us)
            elif kind == "window":
                form(now_us)
            else:  # complete
                planned, dispatch_us = payload  # type: ignore[misc]
                complete(planned, dispatch_us, now_us)
        if span.enabled:
            span.set_attr("completed", sum(1 for r in results.values() if r.ok))
            span.set_attr("makespan_us", makespan_us)

    reliability = None
    if injector is not None:
        reliability = {
            "retries": planner_retries,
            "planner_retries": planner_retries,
            "fallbacks": 0,  # replay never executes, so no engine chain
            "bisections": 0,
            "batch_failures": batch_failures,
            "faults_injected": injector.injected_count,
        }
        tracer.counter("serve.retries", planner_retries)
        tracer.counter("faults.injected", injector.injected_count)

    return compile_report(
        results=results,
        occupancies=occupancies,
        makespan_us=makespan_us,
        cache=planner.cache.stats_snapshot(),
        max_batch_size=config.batcher.max_batch_size,
        time_base="virtual",
        formed_batches=formed_batches,
        reliability=reliability,
    )
