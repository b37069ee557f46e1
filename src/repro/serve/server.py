"""The live serving loop: a threaded queue/batcher/planner/worker pipeline.

:class:`GemmServer` is the wall-clock twin of the virtual-time replay
driver, built from the same parts (``DynamicBatcher``,
``AdmissionController``, ``PlannerStage`` over a shared thread-safe
``PlanCache``) wired to real threads:

* ``submit()`` runs admission control inline and returns a
  :class:`ServeTicket` immediately (pre-resolved when rejected);
* one **batcher thread** waits on a condition variable and forms
  batches on the size/window triggers;
* ``config.workers`` **worker threads** pop formed batches, plan them
  through the cache, and resolve tickets -- numerically (the engine
  named by ``config.policy``, ``compiled`` by default, which reuses a
  precompiled artifact per cached schedule so warm requests skip
  compilation) when every request in the batch carries operands,
  otherwise on the device model (the simulator);
* ``close(drain=True)`` stops admissions, flushes whatever is pending
  through the pipeline, and joins every thread.

**Fault tolerance** (``config.reliability``, see
``docs/reliability.md``): planning and execution failures are retried
per the :class:`~repro.reliability.RetryPolicy`; engine failures
degrade along the fallback chain (``compiled`` -> ``reference``)
guarded by per-engine circuit breakers
(:class:`~repro.reliability.ReliableExecutor`); a batch that still
fails is **bisected** so healthy requests complete and only the poison
request is rejected with a typed ``error:<ExcName>`` reason.  The
batcher and worker loops carry crash barriers -- a fatal error settles
every outstanding ticket instead of stranding clients -- and
:meth:`close` finishes with a stranded-ticket sweep so
``ServeTicket.result()`` can never hang past shutdown.
:meth:`health` exposes breaker states, retry/fallback/bisection
counts, and queue depth at runtime.

Latency and occupancy are recorded internally (wall-clock) and
compiled by :meth:`summary` into the same :class:`ServeReport` the
replay driver produces.  Telemetry note: the process-global tracer is
not thread-safe, so the server does **not** emit spans/metrics from
its worker threads; :meth:`summary` emits the aggregate counters and
histograms in the calling thread instead.  For deterministic,
fully-traced runs use :func:`repro.serve.driver.replay_trace`.
"""

from __future__ import annotations

import dataclasses
import itertools
import queue
import threading
import time
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core.framework import CoordinatedFramework
from repro.core.plancache import PlanCache
from repro.core.problem import Gemm
from repro.reliability import (
    BreakerState,
    EngineUnavailable,
    FaultInjector,
    ReliableExecutor,
)
from repro.serve.admission import AdmissionController
from repro.serve.batcher import DynamicBatcher, FormedBatch
from repro.serve.budget import BudgetExhausted, DeadlineBudget
from repro.serve.config import ServeConfig
from repro.serve.planner import PlannerStage
from repro.serve.report import ServeReport, compile_report
from repro.serve.request import (
    REASON_BUDGET_EXHAUSTED,
    REASON_DEADLINE,
    REASON_SHUTDOWN,
    REASON_STRANDED,
    Completed,
    Rejected,
    ServeRequest,
    ServeResult,
    TimedOut,
    error_reason,
)
from repro.telemetry import get_tracer


class ServeTicket:
    """Caller-facing handle for one submitted request."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        self._event = threading.Event()
        self._result: Optional[ServeResult] = None

    def done(self) -> bool:
        """True once the request has settled (result available)."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> ServeResult:
        """Block until the request resolves (raises TimeoutError else)."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} unresolved after {timeout}s"
            )
        assert self._result is not None
        return self._result

    def _resolve(self, result: ServeResult) -> None:
        self._result = result
        self._event.set()


class GemmServer:
    """An online dynamic-batching GEMM server over the device model.

    Parameters
    ----------
    framework:
        The planner/executor; defaults to a V100
        :class:`CoordinatedFramework`.
    config:
        Pipeline knobs (:class:`ServeConfig`), including the
        fault-tolerance policy in ``config.reliability``.
    cache:
        Optional pre-warmed :class:`PlanCache` shared by the workers;
        a private one (capacity 256) is created otherwise.
    clock:
        Monotonic seconds source, injectable for tests; all request
        timestamps are microseconds since server construction.
    """

    def __init__(
        self,
        framework: Optional[CoordinatedFramework] = None,
        config: Optional[ServeConfig] = None,
        *,
        cache: Optional[PlanCache] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.framework = framework if framework is not None else CoordinatedFramework()
        self.config = config if config is not None else ServeConfig()
        self._clock = clock
        self._t0 = clock()
        self._sleep: Callable[[float], None] = time.sleep
        reliability = self.config.reliability
        self._injector: Optional[FaultInjector] = (
            FaultInjector(reliability.fault_plan)
            if reliability.fault_plan is not None
            else None
        )
        self._executor = ReliableExecutor(
            self.config.policy.engine,
            retry=reliability.retry,
            fallback=reliability.fallback,
            failure_threshold=reliability.breaker_failure_threshold,
            cooldown_s=reliability.breaker_cooldown_s,
            injector=self._injector,
            clock=clock,
        )
        self._batcher = DynamicBatcher(self.config.batcher)
        self._admission = AdmissionController(self.config.admission)
        self._planner = PlannerStage(
            self.framework,
            cache,
            heuristic=self.config.heuristic,
            miss_overhead_us=self.config.miss_overhead_us,
            hit_overhead_us=self.config.hit_overhead_us,
            injector=self._injector,
        )
        self._cond = threading.Condition()
        self._batch_q: "queue.Queue[Optional[FormedBatch]]" = queue.Queue()
        self._tickets: dict[int, ServeTicket] = {}
        self._next_id = itertools.count()
        self._accepting = True
        self._closing = False
        self._drain = True
        self._shutdown_reason = REASON_SHUTDOWN
        self._started = False
        self._closed = False
        self._threads: list[threading.Thread] = []
        # wall-clock measurements, guarded by _stats_lock
        self._stats_lock = threading.Lock()
        self._results: list[ServeResult] = []
        self._occupancies: list[int] = []
        self._formed_batches: list = []
        self._first_arrival_us: Optional[float] = None
        self._last_finish_us = 0.0
        self._planner_retries = 0
        self._bisections = 0
        self._budget_exhausted = 0
        self._crashes: list[str] = []

    @property
    def cache(self) -> PlanCache:
        """The shared plan cache (e.g. for :meth:`PlanCache.warm`)."""
        return self._planner.cache

    @property
    def injector(self) -> Optional[FaultInjector]:
        """The chaos harness, when a fault plan is configured."""
        return self._injector

    def _now_us(self) -> float:
        return (self._clock() - self._t0) * 1e6

    # -- lifecycle ---------------------------------------------------

    def start(self) -> "GemmServer":
        """Spawn the batcher thread and the worker pool (idempotent)."""
        if self._started:
            return self
        self._started = True
        batcher = threading.Thread(
            target=self._batch_loop, name="serve-batcher", daemon=True
        )
        self._threads.append(batcher)
        for i in range(self.config.workers):
            self._threads.append(
                threading.Thread(
                    target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
                )
            )
        for t in self._threads:
            t.start()
        return self

    def close(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop admissions, settle every pending request, join threads.

        ``drain=True`` (the default) pushes everything still queued
        through the pipeline; ``drain=False`` rejects pending requests
        with ``reason="shutdown"`` -- including batches already formed
        but not yet picked up by a worker.  Either way the method ends
        with a stranded-ticket sweep, so no :meth:`ServeTicket.result`
        call can hang past the configured join timeout.
        """
        with self._cond:
            if self._closed:
                return
            self._accepting = False
            self._closing = True
            self._drain = drain
            self._closed = True
            self._cond.notify_all()
        if self._started:
            for t in self._threads:
                t.join(timeout=timeout_s)
        else:
            # Never started: settle pending synchronously in this thread.
            self._settle_pending(drain)
            while True:
                try:
                    fb = self._batch_q.get_nowait()
                except queue.Empty:
                    break
                if fb is None:
                    continue
                if drain:
                    self._serve_batch(fb)
                else:
                    self._reject_requests(fb.requests, self._shutdown_reason)
        self._sweep_stranded()

    def kill(self, reason: str = "error:Killed", timeout_s: float = 30.0) -> None:
        """Simulate a crash: settle everything held with a typed reason.

        Like ``close(drain=False)`` but pending and formed-but-unserved
        requests reject with ``reason`` instead of ``"shutdown"`` --
        the cluster tier uses this to model a shard dying mid-run
        (``error:ShardKilled``) so every ticket still settles, typed as
        a casualty rather than an orderly shutdown.
        """
        with self._cond:
            if not self._closed:
                self._shutdown_reason = reason
        self.close(drain=False, timeout_s=timeout_s)

    def __enter__(self) -> "GemmServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # -- submission --------------------------------------------------

    def submit(
        self,
        gemm: Gemm,
        *,
        operands: Any = None,
        deadline_us: Optional[float] = None,
        timeout_us: Optional[float] = None,
        priority: int = 0,
        precision: Optional[str] = None,
    ) -> ServeTicket:
        """Submit one GEMM; never blocks.

        ``deadline_us`` is relative to now (converted to the server's
        absolute clock); ``operands`` is an optional ``(A, B)`` pair or
        ``(A, B, C)`` triple -- when every request in a formed batch
        carries operands, the batch executes numerically and each
        :class:`Completed` result carries its C output in ``value``.
        ``precision`` pins the storage precision the request should be
        planned and executed at; left ``None``, float16 operands infer
        ``"fp16"`` (bf16 rides float32 containers and cannot be
        inferred -- pin it explicitly).
        """
        if operands is not None and len(operands) == 2:
            a, b = operands
            # Accumulate in the promoted type so a mixed-dtype A/B pair
            # (e.g. float32 x float64) does not silently downcast C.
            operands = (
                a,
                b,
                np.zeros((gemm.m, gemm.n), dtype=np.result_type(a, b)),
            )
        if precision is None and operands is not None:
            from repro.core.precision import infer_precision

            inferred = infer_precision([operands])
            precision = None if inferred is None else inferred.value
        with self._cond:
            rid = next(self._next_id)
            now_us = self._now_us()
            request = ServeRequest(
                request_id=rid,
                gemm=gemm,
                arrival_us=now_us,
                deadline_us=None if deadline_us is None else now_us + deadline_us,
                timeout_us=timeout_us,
                priority=priority,
                operands=operands,
                precision=precision,
            )
            ticket = ServeTicket(rid)
            self._tickets[rid] = ticket
            with self._stats_lock:
                if self._first_arrival_us is None:
                    self._first_arrival_us = now_us
            if not self._accepting:
                self._resolve(
                    Rejected(
                        request_id=rid,
                        finish_us=now_us,
                        latency_us=0.0,
                        reason=REASON_SHUTDOWN,
                    )
                )
                return ticket
            rejection = self._admission.admit(
                request, self._batcher.pending_count, now_us
            )
            if rejection is not None:
                self._resolve(rejection)
                return ticket
            self._batcher.offer(request)
            self._cond.notify_all()
            return ticket

    # -- pipeline threads --------------------------------------------

    def _batch_loop(self) -> None:
        try:
            while True:
                formed: Optional[FormedBatch] = None
                with self._cond:
                    while not self._closing:
                        now_us = self._now_us()
                        formed = self._batcher.poll(now_us)
                        if formed is not None:
                            break
                        window = self._batcher.window_deadline_us()
                        wait_s = (
                            None
                            if window is None
                            else max((window - now_us) / 1e6, 1e-4)
                        )
                        self._cond.wait(timeout=wait_s)
                    if self._closing and formed is None:
                        self._settle_pending(self._drain)
                        for _ in range(self.config.workers):
                            self._batch_q.put(None)
                        return
                if formed is not None:
                    self._handle_formed(formed)
        except BaseException as exc:  # crash barrier: never strand clients
            self._fatal("batch-loop", exc)

    def _settle_pending(self, drain: bool) -> None:
        now_us = self._now_us()
        if drain:
            for fb in self._batcher.flush(now_us):
                self._handle_formed(fb)
        else:
            self._reject_requests(
                self._batcher.drain_pending(), self._shutdown_reason
            )

    def _handle_formed(self, formed: FormedBatch) -> None:
        self._reject_requests(formed.shed, REASON_DEADLINE)
        if formed.requests:
            with self._stats_lock:
                self._occupancies.append(formed.occupancy)
                self._formed_batches.append(formed.to_gemm_batch())
            self._batch_q.put(formed)

    def _worker_loop(self) -> None:
        try:
            while True:
                formed = self._batch_q.get()
                if formed is None:
                    return
                with self._cond:
                    fast_reject = self._closing and not self._drain
                if fast_reject:
                    self._reject_requests(formed.requests, self._shutdown_reason)
                    continue
                try:
                    self._serve_batch(formed)
                except Exception as exc:
                    # _serve_batch settles its own failures; this extra
                    # barrier catches a defect in the reliability layer
                    # itself so the batch's clients are not stranded.
                    self._reject_requests(formed.requests, error_reason(exc))
        except BaseException as exc:  # crash barrier: never strand clients
            self._fatal("worker-loop", exc)

    def _fatal(self, origin: str, exc: BaseException) -> None:
        """A pipeline thread died: settle everything it was holding."""
        with self._cond:
            self._accepting = False
            self._closing = True
            with self._stats_lock:
                self._crashes.append(f"{origin}: {type(exc).__name__}: {exc}")
            pending = self._batcher.drain_pending()
            self._cond.notify_all()
        self._reject_requests(pending, error_reason(exc))
        while True:
            try:
                fb = self._batch_q.get_nowait()
            except queue.Empty:
                break
            if fb is not None:
                self._reject_requests(fb.requests, error_reason(exc))
        for _ in range(self.config.workers):
            self._batch_q.put(None)

    # -- batch service (retry / fallback / bisection) ----------------

    def _serve_batch(self, formed: FormedBatch) -> None:
        dispatch_us = self._now_us()
        self._run_slice(formed, formed.requests, dispatch_us)

    def _sub_batch(self, formed: FormedBatch, requests) -> FormedBatch:
        if requests is formed.requests:
            return formed
        return FormedBatch(
            batch_id=formed.batch_id,
            formed_us=formed.formed_us,
            trigger=formed.trigger,
            requests=list(requests),
            shed=[],
        )

    def _plan_with_retry(
        self, sub: FormedBatch, budget: Optional[DeadlineBudget] = None
    ):
        policy = self.config.reliability.retry
        for attempt in range(1, policy.max_attempts + 1):
            try:
                return self._planner.plan(sub, budget=budget)
            except BudgetExhausted:
                # The budget itself refused the work -- retrying cannot
                # buy time back, so fail fast to the caller.
                raise
            except Exception as exc:
                if attempt >= policy.max_attempts:
                    raise
                delay_ms = policy.delay_ms(attempt, token="planner")
                if budget is not None and not budget.affords(delay_ms * 1e3):
                    # The retry backoff alone outlives the deadline:
                    # charge the failure to the budget instead of
                    # sleeping past it.
                    raise BudgetExhausted(
                        f"deadline budget cannot afford the {delay_ms:.0f}ms "
                        f"planner retry backoff"
                    ) from exc
                with self._stats_lock:
                    self._planner_retries += 1
                if delay_ms > 0:
                    self._sleep(delay_ms / 1e3)
        raise AssertionError("unreachable")

    def _run_slice(
        self,
        formed: FormedBatch,
        requests: Sequence[ServeRequest],
        dispatch_us: float,
    ) -> None:
        """Serve a slice of a formed batch, bisecting on failure.

        On success every request in the slice resolves Completed (or
        TimedOut); on terminal failure the slice is split in half and
        re-executed so a single poison request cannot take its healthy
        batchmates down with it.

        The slice's tightest deadline becomes a
        :class:`~repro.serve.budget.DeadlineBudget` that the planner
        retries and the executor's retry/fallback machinery charge
        against; a slice abandoned by the budget settles as the typed
        ``budget_exhausted`` rejection.  Bisection still applies --
        each half rebuilds its own budget, so batchmates with looser
        deadlines are not dragged down by the most urgent member.
        """
        budget = DeadlineBudget.for_requests(requests, clock_us=self._now_us)
        try:
            sub = self._sub_batch(formed, requests)
            planned = self._plan_with_retry(sub, budget)
            values: Optional[list] = None
            if all(r.operands is not None for r in requests):
                operands = [r.operands for r in requests]
                prec = None
                if sub.precision is not None:
                    from repro.core.precision import (
                        Precision,
                        quantize_operands,
                        quantize_outputs,
                    )

                    prec = Precision.coerce(sub.precision)
                    if prec.is_reduced:
                        # Stage on the storage grid the batch was
                        # planned at (mixed-precision for real).
                        operands = quantize_operands(operands, prec)
                values, _engine_used = self._executor.execute(
                    planned.report.schedule,
                    sub.to_gemm_batch(),
                    operands,
                    budget=budget,
                )
                if prec is not None and prec.is_reduced:
                    values = quantize_outputs(values, prec)
        except Exception as exc:
            # EngineUnavailable is not data-dependent: splitting the
            # batch cannot help, so reject the slice outright.
            if (
                self.config.reliability.bisect
                and len(requests) > 1
                and not isinstance(exc, EngineUnavailable)
            ):
                with self._stats_lock:
                    self._bisections += 1
                mid = len(requests) // 2
                self._run_slice(formed, requests[:mid], dispatch_us)
                self._run_slice(formed, requests[mid:], dispatch_us)
                return
            # Terminal failure: settle the tickets AND keep feeding the
            # admission EWMA so the deadline-feasibility estimate does
            # not go stale for the duration of an incident.  A budget
            # abandonment is not an engine error -- it settles under
            # the plain typed ``budget_exhausted`` reason.
            if isinstance(exc, BudgetExhausted):
                with self._stats_lock:
                    self._budget_exhausted += len(requests)
                reason = REASON_BUDGET_EXHAUSTED
            else:
                reason = error_reason(exc)
            self._reject_requests(requests, reason, observe=True)
            return
        finish_us = self._now_us()
        for i, r in enumerate(requests):
            latency_us = finish_us - r.arrival_us
            if r.timeout_us is not None and latency_us > r.timeout_us:
                self._resolve(
                    TimedOut(
                        request_id=r.request_id,
                        finish_us=finish_us,
                        latency_us=latency_us,
                        batch_id=formed.batch_id,
                    )
                )
            else:
                self._resolve(
                    Completed(
                        request_id=r.request_id,
                        finish_us=finish_us,
                        latency_us=latency_us,
                        batch_id=formed.batch_id,
                        batch_size=formed.occupancy,
                        queue_us=dispatch_us - r.arrival_us,
                        service_us=finish_us - dispatch_us,
                        deadline_met=r.deadline_us is None
                        or finish_us <= r.deadline_us,
                        value=None if values is None else values[i],
                    )
                )
            self._admission.observe_service(latency_us)

    # -- results -----------------------------------------------------

    def _reject_requests(
        self,
        requests: Sequence[ServeRequest],
        reason: str,
        *,
        observe: bool = False,
    ) -> None:
        if not requests:
            return
        finish_us = self._now_us()
        for r in requests:
            latency_us = max(0.0, finish_us - r.arrival_us)
            self._resolve(
                Rejected(
                    request_id=r.request_id,
                    finish_us=finish_us,
                    latency_us=latency_us,
                    reason=reason,
                )
            )
            if observe:
                self._admission.observe_service(latency_us)

    def _resolve(self, result: ServeResult) -> None:
        # The settlement record keeps no output array: only the ticket
        # hands the value to its caller, so it dies with the caller's
        # references instead of living as long as the server.
        record = (
            dataclasses.replace(result, value=None)
            if isinstance(result, Completed)
            else result
        )
        with self._stats_lock:
            ticket = self._tickets.pop(result.request_id, None)
            if ticket is None:
                return  # already settled (a barrier raced the pipeline)
            self._results.append(record)
            self._last_finish_us = max(self._last_finish_us, result.finish_us)
        ticket._resolve(result)

    def _sweep_stranded(self) -> None:
        """Settle any ticket still unresolved (the last crash barrier)."""
        with self._stats_lock:
            stranded = list(self._tickets)
        if not stranded:
            return
        now_us = self._now_us()
        for rid in stranded:
            self._resolve(
                Rejected(
                    request_id=rid,
                    finish_us=now_us,
                    latency_us=0.0,
                    reason=REASON_STRANDED,
                )
            )

    # -- introspection ------------------------------------------------

    def measurements(self) -> dict:
        """Raw per-incarnation measurements, for supervised aggregation.

        The cluster supervisor replaces a dead shard's server with a
        fresh one; the frontend keeps this export from each retired
        incarnation so :meth:`ClusterFrontend.summary` can merge the
        full history instead of losing everything the dead server did.
        The results are settlement records: a :class:`Completed` one
        carries ``value=None`` (only the caller's ticket holds the
        output).
        """
        with self._stats_lock:
            return {
                "results": list(self._results),
                "occupancies": list(self._occupancies),
                "formed_batches": list(self._formed_batches),
                "first_arrival_us": self._first_arrival_us,
                "last_finish_us": self._last_finish_us,
                "cache": self.cache.stats_snapshot(),
            }

    def _reliability_snapshot(self) -> dict:
        snap = self._executor.snapshot()
        with self._stats_lock:
            snap["planner_retries"] = self._planner_retries
            snap["retries"] += self._planner_retries
            snap["bisections"] = self._bisections
            snap["budget_exhausted"] = self._budget_exhausted
            snap["crashes"] = list(self._crashes)
        snap["faults_injected"] = (
            self._injector.injected_count if self._injector is not None else 0
        )
        return snap

    @property
    def accepting(self) -> bool:
        """Whether :meth:`submit` currently admits new requests."""
        with self._cond:
            return self._accepting

    def queue_depth(self) -> int:
        """Pending + formed-but-undispatched work (the stealing signal).

        A cheap subset of :meth:`health` -- the cluster router polls
        this per submission, so it must not walk breaker snapshots.
        """
        with self._cond:
            pending = self._batcher.pending_count
        return pending + self._batch_q.qsize()

    def health(self) -> dict:
        """Liveness and fault-tolerance state, for probes and dashboards.

        ``ok`` is True while the server accepts traffic and no pipeline
        thread has crashed; ``breakers`` maps each engine in the
        fallback chain to its circuit state (full snapshots live under
        ``breaker_detail``); the counters mirror what :meth:`summary`
        later emits as telemetry.
        """
        with self._cond:
            accepting = self._accepting
            pending = self._batcher.pending_count
        with self._stats_lock:
            outstanding = len(self._tickets)
        snap = self._reliability_snapshot()
        return {
            "ok": accepting and not snap["crashes"],
            "accepting": accepting,
            "queue_depth": pending + self._batch_q.qsize(),
            "outstanding": outstanding,
            "engine": snap["engine"],
            "chain": snap["chain"],
            "breakers": {
                name: detail["state"] for name, detail in snap["breakers"].items()
            },
            "breaker_detail": snap["breakers"],
            "retries": snap["retries"],
            "fallbacks": snap["fallbacks"],
            "bisections": snap["bisections"],
            "budget_exhausted": snap["budget_exhausted"],
            "budget_abandoned": snap["budget_abandoned"],
            "engine_used": snap["engine_used"],
            "faults_injected": snap["faults_injected"],
            "crashes": snap["crashes"],
        }

    def summary(self) -> ServeReport:
        """Compile everything served so far into a :class:`ServeReport`.

        Also emits the aggregate serve metrics into the current tracer
        (from this thread -- see the module docstring).
        """
        with self._stats_lock:
            results = list(self._results)
            occupancies = list(self._occupancies)
            formed = list(self._formed_batches)
            first = self._first_arrival_us
            last = self._last_finish_us
        makespan_us = max(0.0, last - first) if first is not None else 0.0
        reliability = self._reliability_snapshot()
        report = compile_report(
            results=results,
            occupancies=occupancies,
            makespan_us=makespan_us,
            cache=self.cache.stats_snapshot(),
            max_batch_size=self.config.batcher.max_batch_size,
            time_base="wall",
            formed_batches=formed,
            reliability=reliability,
        )
        tracer = get_tracer()
        if tracer.enabled:
            for occ in occupancies:
                tracer.histogram("serve.batch_occupancy", occ)
            for r in results:
                if r.ok:
                    tracer.histogram("serve.latency_us", r.latency_us)
            tracer.counter("serve.batches_formed", len(occupancies))
            n_rejected = report.n_rejected_queue + report.n_rejected_other
            tracer.counter("serve.requests_accepted", report.n_requests - n_rejected)
            tracer.counter("serve.requests_completed", report.n_completed)
            tracer.counter("serve.requests_rejected", n_rejected)
            tracer.counter("serve.requests_shed", report.n_shed_deadline)
            tracer.counter("serve.requests_timeout", report.n_timed_out)
            tracer.counter("serve.requests_failed", report.n_rejected_error)
            tracer.counter("serve.retries", reliability["retries"])
            tracer.counter("serve.fallbacks", reliability["fallbacks"])
            tracer.counter("serve.bisections", reliability["bisections"])
            tracer.counter("budget.exhausted", reliability["budget_exhausted"])
            tracer.counter("faults.injected", reliability["faults_injected"])
            for name, detail in reliability["breakers"].items():
                tracer.gauge(
                    f"serve.breaker_state.{name}",
                    BreakerState(detail["state"]).code,
                )
        return report
