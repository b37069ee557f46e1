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

The per-server pipeline, :class:`ReplayPipeline`, is defined once
here; :func:`repro.cluster.driver.replay_cluster_trace` drives one per
shard.  Event kinds, in one :class:`EventHeap` ordered by (time,
insertion sequence):

* ``arrive`` -- admission-check the request, queue it, schedule its
  wait-window expiry.  A refused request settles with its typed
  rejection and polls nothing, as in the live server's ``submit``.
* ``window`` -- re-poll the batcher (the oldest waiter's window may
  have tripped).
* ``complete`` -- a worker finished a batch: resolve its requests,
  feed the admission EWMA, dispatch the next queued batch.

Batches dispatch FIFO to the first of ``config.workers`` free worker
slots; a slot stays busy for the batch's planning + simulated kernel
time, which is how queueing delay emerges under overload.  Under a
``compiled`` execution policy a dispatch whose plan missed the plan
cache is additionally charged ``config.compile_overhead_us`` (the
one-off artifact compilation of the fresh plan, counted as
``serve.compiles_charged``).  A hit charges nothing extra: its plan's
artifact was compiled when the plan was first dispatched, or when
:meth:`PlanCache.warm` or :meth:`PlanCache.restore` cached it, as on
the live server's warm hot path.

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
from collections import deque
from typing import Iterator, Optional, Sequence

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


class EventHeap:
    """Virtual-time events, popped in (time, insertion sequence) order.

    Each :class:`ReplayPipeline` pushes its ``window`` and ``complete``
    events with its ``key`` as payload, so the replay loop hands an
    event to whichever pipeline holds that key *when it fires*.  A
    ``complete`` event's sequence number is its batch's token: unique
    across every pipeline on the heap, so a killed incarnation's
    completion finds nothing in its successor's in-flight table.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, str, object]] = []
        self._seq = itertools.count()
        #: The latest event time popped so far: the run's makespan.
        self.now_us = 0.0

    def push(self, time_us: float, kind: str, payload: object) -> int:
        """Schedule one event; returns its sequence number."""
        seq = next(self._seq)
        heapq.heappush(self._heap, (time_us, seq, kind, payload))
        return seq

    def push_arrivals(self, trace: Sequence[TraceRequest]) -> None:
        """Schedule one ``arrive`` per trace entry, numbered in arrival order."""
        for i, tr in enumerate(sorted(trace, key=lambda t: t.arrival_us)):
            self.push(
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

    def __iter__(self) -> Iterator[tuple[float, int, str, object]]:
        """Pop events until none is left, including those pushed meanwhile."""
        while self._heap:
            event = heapq.heappop(self._heap)
            self.now_us = max(self.now_us, event[0])
            yield event


class ReplayPipeline:
    """One server's serving pipeline on a virtual-time :class:`EventHeap`.

    Holds admission, the batcher, the planner stage with its fault
    injector and retry loop, the worker slots, the batches in flight,
    compile charging, settlement, the ``serve.*`` telemetry, and the
    server's :class:`ServeReport`.  The replay loop feeds it the events
    carrying its ``key``: ``window`` to :meth:`poll` and ``complete``
    (with the event's sequence number) to :meth:`complete`.
    """

    def __init__(
        self,
        framework: CoordinatedFramework,
        config: ServeConfig,
        events: EventHeap,
        *,
        cache: Optional[PlanCache] = None,
        key: object = None,
    ):
        self.config = config
        self._key = key
        self._events = events
        self._tracer = get_tracer()
        fault_plan = config.reliability.fault_plan
        # sleep=None: slow faults are charged into virtual time, not slept.
        self.injector = (
            FaultInjector(fault_plan, sleep=None) if fault_plan is not None else None
        )
        self.batcher = DynamicBatcher(config.batcher)
        self.admission = AdmissionController(config.admission)
        self.planner = PlannerStage(
            framework,
            cache,
            heuristic=config.heuristic,
            miss_overhead_us=config.miss_overhead_us,
            hit_overhead_us=config.hit_overhead_us,
            injector=self.injector,
        )
        self.fifo: deque[FormedBatch] = deque()
        self.free_workers = config.workers
        # token -> (planned, dispatch_us): the batches workers hold.
        self.inflight: dict[int, tuple[PlannedBatch, float]] = {}
        self.results: dict[int, ServeResult] = {}
        self.occupancies: list[int] = []
        self.formed_batches: list = []
        self.planner_retries = 0
        self.batch_failures = 0

    @property
    def depth(self) -> int:
        """Queued work: pending + formed-but-undispatched + in flight."""
        return (
            self.batcher.pending_count
            + sum(fb.occupancy for fb in self.fifo)
            + sum(p.formed.occupancy for p, _ in self.inflight.values())
        )

    def arrive(self, request: ServeRequest, now_us: float) -> None:
        """Admit ``request`` and poll the batcher; a refusal polls nothing."""
        tracer = self._tracer
        tracer.gauge("serve.queue_depth", self.batcher.pending_count)
        rejection = self.admission.admit(request, self.batcher.pending_count, now_us)
        if rejection is not None:
            self.results[request.request_id] = rejection
            tracer.counter("serve.requests_rejected")
            return
        self.batcher.offer(request)
        tracer.counter("serve.requests_accepted")
        self._events.push(now_us + self.config.batcher.max_wait_us, "window", self._key)
        self.poll(now_us)

    def poll(self, now_us: float) -> None:
        """Form every batch due at ``now_us`` and dispatch to free workers."""
        tracer = self._tracer
        while (fb := self.batcher.poll(now_us)) is not None:
            if fb.shed:
                self.reject(fb.shed, now_us, REASON_DEADLINE)
                tracer.counter("serve.requests_shed", len(fb.shed))
            if fb.requests:
                self.occupancies.append(fb.occupancy)
                self.formed_batches.append(fb.to_gemm_batch())
                tracer.histogram("serve.batch_occupancy", fb.occupancy)
                tracer.counter("serve.batches_formed")
                self.fifo.append(fb)
        self._dispatch(now_us)

    def complete(self, token: int, now_us: float) -> None:
        """Settle the batch dispatched under ``token`` and dispatch more.

        A token the pipeline does not hold belongs to a killed
        incarnation, whose requests settled at the kill: it is dropped.
        """
        held = self.inflight.pop(token, None)
        if held is None:
            return
        planned, dispatch_us = held
        self.free_workers += 1
        tracer = self._tracer
        batch_id = planned.formed.batch_id
        for r in planned.formed.requests:
            latency_us = now_us - r.arrival_us
            if r.timeout_us is not None and latency_us > r.timeout_us:
                self.results[r.request_id] = TimedOut(
                    request_id=r.request_id,
                    finish_us=now_us,
                    latency_us=latency_us,
                    batch_id=batch_id,
                )
                tracer.counter("serve.requests_timeout")
            else:
                self.results[r.request_id] = Completed(
                    request_id=r.request_id,
                    finish_us=now_us,
                    latency_us=latency_us,
                    batch_id=batch_id,
                    batch_size=planned.formed.occupancy,
                    queue_us=dispatch_us - r.arrival_us,
                    service_us=planned.service_us,
                    deadline_met=r.deadline_us is None or now_us <= r.deadline_us,
                )
                tracer.counter("serve.requests_completed")
                tracer.histogram("serve.latency_us", latency_us)
            self.admission.observe_service(latency_us)
        self._dispatch(now_us)

    def kill(self) -> list[ServeRequest]:
        """Empty the pipeline as a crash does and return what it held.

        Pending requests come first, then the formed FIFO, then the
        batches in flight, whose ``complete`` events are then dropped.
        """
        held = self.batcher.drain_pending()
        while self.fifo:
            held.extend(self.fifo.popleft().requests)
        for planned, _ in self.inflight.values():
            held.extend(planned.formed.requests)
        self.inflight.clear()
        return held

    def reject(
        self, requests, now_us: float, reason: str, *, observe: bool = False
    ) -> None:
        """Settle ``requests`` as ``Rejected(reason)`` at ``now_us``.

        ``observe`` feeds each latency to the admission EWMA, as the
        live server's error path does.
        """
        for r in requests:
            latency_us = now_us - r.arrival_us
            self.results[r.request_id] = Rejected(
                request_id=r.request_id,
                finish_us=now_us,
                latency_us=latency_us,
                reason=reason,
            )
            if observe:
                self.admission.observe_service(latency_us)

    def report(self, makespan_us: float) -> ServeReport:
        """Compile this pipeline's :class:`ServeReport`."""
        reliability = None
        if self.injector is not None:
            reliability = {
                "retries": self.planner_retries,
                "planner_retries": self.planner_retries,
                "fallbacks": 0,  # replay never executes, so no engine chain
                "bisections": 0,
                "batch_failures": self.batch_failures,
                "faults_injected": self.injector.injected_count,
            }
            self._tracer.counter("serve.retries", self.planner_retries)
            self._tracer.counter("faults.injected", self.injector.injected_count)
        return compile_report(
            results=self.results,
            occupancies=self.occupancies,
            makespan_us=makespan_us,
            cache=self.planner.cache.stats_snapshot(),
            max_batch_size=self.config.batcher.max_batch_size,
            time_base="virtual",
            formed_batches=self.formed_batches,
            reliability=reliability,
        )

    def _plan(self, fb: FormedBatch) -> tuple[PlannedBatch, float]:
        """Plan ``fb``, retrying per policy; returns (plan, delay charged).

        Backoff delays are *virtual*: accumulated and charged into the
        batch's service interval rather than slept.
        """
        policy = self.config.reliability.retry
        delay_us = 0.0
        for attempt in range(1, policy.max_attempts + 1):
            try:
                return self.planner.plan(fb), delay_us
            except Exception:
                if attempt >= policy.max_attempts:
                    raise
                self.planner_retries += 1
                delay_us += policy.delay_ms(attempt, token="planner") * 1e3
        raise AssertionError("unreachable")

    def _compile_charge_us(self, planned: PlannedBatch) -> float:
        """The compile charge: a plan-cache miss under a compiled policy."""
        if planned.cache_hit or self.config.policy.engine != "compiled":
            return 0.0
        self._tracer.counter("serve.compiles_charged")
        return self.config.compile_overhead_us

    def _dispatch(self, now_us: float) -> None:
        while self.free_workers > 0 and self.fifo:
            fb = self.fifo.popleft()
            try:
                planned, retry_delay_us = self._plan(fb)
            except Exception as exc:
                self.batch_failures += 1
                self.reject(fb.requests, now_us, error_reason(exc), observe=True)
                self._tracer.counter("serve.requests_failed", len(fb.requests))
                continue
            self.free_workers -= 1
            done_us = (
                now_us + retry_delay_us + self._compile_charge_us(planned)
                + planned.service_us
            )
            token = self._events.push(done_us, "complete", self._key)
            self.inflight[token] = (planned, now_us)


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
    events = EventHeap()
    pipeline = ReplayPipeline(framework, config, events, cache=cache)
    events.push_arrivals(trace)
    with get_tracer().span(
        "serve.replay", requests=len(trace), workers=config.workers
    ) as span:
        for now_us, seq, kind, payload in events:
            if kind == "arrive":
                pipeline.arrive(payload, now_us)  # type: ignore[arg-type]
            elif kind == "window":
                pipeline.poll(now_us)
            else:  # complete
                pipeline.complete(seq, now_us)
        if span.enabled:
            completed = sum(1 for r in pipeline.results.values() if r.ok)
            span.set_attr("completed", completed)
            span.set_attr("makespan_us", events.now_us)
    return pipeline.report(events.now_us)
