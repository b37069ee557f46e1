"""Deterministic virtual-time replay of a trace across a shard cluster.

:func:`replay_cluster_trace` is the cluster-scale twin of
:func:`repro.serve.driver.replay_trace`: one discrete-event loop on a
virtual clock drives N complete per-shard serving pipelines (dynamic
batcher, admission controller, planner stage over a private
:class:`~repro.core.plancache.PlanCache` -- with second-hit
:class:`~repro.cluster.bloom.BloomAdmission` when configured) behind
the shared :class:`~repro.cluster.router.Router`.  Nothing reads a
wall clock, so the same trace, config, and kill schedule always
produce the byte-identical :class:`~repro.cluster.report.ClusterReport`
-- including identical shard assignments -- which is the contract
``BENCH_cluster.json`` and the CI cluster smoke step pin.

Admission is two-level, exactly as in the live tier: a request first
passes the **global** backpressure bound (total queued work across
all shards), then the routed shard's own
:class:`~repro.serve.admission.AdmissionController` (queue bound +
deadline feasibility against that shard's EWMA).

**Shard kills** (``kill=[(shard_id, time_us), ...]``) model a crash,
not a drain: at the kill instant the shard leaves the ring (later
arrivals remap to ring successors -- consistent hashing keeps the
remap minimal), and everything the shard held -- batcher queue,
formed-batch FIFO, and in-flight batches -- settles immediately as
the typed rejection ``error:ShardKilled``.  No ticket is ever
stranded: the acceptance invariant is 100% settlement, kill or no
kill.

Event kinds, one heap ordered by (time, insertion sequence):

* ``kill`` -- a scheduled shard crash (queued before any arrival at
  equal timestamps, so a kill at t settles before a t-arrival
  routes);
* ``arrive`` -- global backpressure, routing (affinity / failover /
  stealing), per-shard admission, batcher offer;
* ``window`` -- re-poll one shard's batcher;
* ``complete`` -- a shard worker finished a batch (ignored if the
  shard died while the batch was in flight -- those requests were
  already settled at kill time);
* ``respawn`` -- a supervised shard's restart backoff elapsed: a
  fresh pipeline is swapped in, warmed from the predecessor's
  :class:`~repro.core.plancache.PlanCacheManifest`, and rejoined to
  the ring.

**Supervision** (``config.supervisor``, a
:class:`~repro.cluster.supervisor.SupervisorConfig`) turns kills from
permanent losses into recoverable incidents, in virtual time and
fully deterministically:

* a kill's casualties are **resubmitted** along the ring instead of
  settling ``error:ShardKilled`` -- each re-enters the arrival path
  with its ``failover`` count incremented, up to
  ``failover_limit``; a casualty over the limit settles as the typed
  ``failover_exhausted``, and one whose deadline budget is already
  spent at the kill instant settles ``budget_exhausted`` (no shard
  could finish it in time, so no capacity is wasted trying);
* the killed shard schedules a ``respawn`` at kill time + the
  :class:`~repro.cluster.supervisor.RestartTracker`'s
  capped-exponential backoff -- unless its restart window is spent,
  in which case it is permanently ejected;
* the respawned pipeline restores the predecessor's cache manifest
  (signatures re-planned; Bloom admission generations imported) and
  inherits its results/occupancy history, so the shard's report spans
  every incarnation and no settlement is lost.

Without ``config.supervisor`` the PR-7 behavior is byte-identical:
kills are permanent and casualties settle ``error:ShardKilled``.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from collections import deque
from dataclasses import replace
from typing import Optional, Sequence

from repro.cluster.bloom import BloomAdmission
from repro.cluster.config import ClusterConfig
from repro.cluster.report import (
    REASON_SHARD_KILLED,
    ClusterReport,
    compile_cluster_report,
)
from repro.cluster.router import Router, ShardState, signature_key
from repro.cluster.supervisor import RestartTracker, SupervisorStats
from repro.core.framework import CoordinatedFramework
from repro.core.plancache import PlanCache
from repro.serve.admission import AdmissionController
from repro.serve.batcher import DynamicBatcher, FormedBatch
from repro.serve.loadgen import TraceRequest
from repro.serve.planner import PlannerStage
from repro.serve.report import compile_report
from repro.serve.request import (
    REASON_BUDGET_EXHAUSTED,
    REASON_DEADLINE,
    REASON_FAILOVER_EXHAUSTED,
    Completed,
    Rejected,
    ServeRequest,
    ServeResult,
    TimedOut,
    error_reason,
)
from repro.telemetry import get_tracer

__all__ = ["replay_cluster_trace"]


class _Shard:
    """One shard's complete pipeline state inside the event loop."""

    def __init__(self, shard_id: int, framework, config: ClusterConfig):
        serve = config.serve
        self.shard_id = shard_id
        self.batcher = DynamicBatcher(serve.batcher)
        self.admission = AdmissionController(serve.admission)
        self.bloom: Optional[BloomAdmission] = (
            BloomAdmission(
                config.bloom.capacity,
                config.bloom.fp_rate,
                rotate_after=config.bloom.rotate_after,
            )
            if config.bloom is not None
            else None
        )
        self.cache = PlanCache(
            framework, capacity=config.cache_capacity, admission=self.bloom
        )
        self.planner = PlannerStage(
            framework,
            self.cache,
            heuristic=serve.heuristic,
            miss_overhead_us=serve.miss_overhead_us,
            hit_overhead_us=serve.hit_overhead_us,
        )
        self.fifo: deque[FormedBatch] = deque()
        self.free_workers = serve.workers
        self.results: dict[int, ServeResult] = {}
        self.occupancies: list[int] = []
        self.formed_batches: list = []
        # token -> (planned, dispatch_us): batches a worker is holding,
        # settled as ShardKilled if the shard dies before completion.
        self.inflight: dict[int, tuple] = {}
        self.alive = True
        self.compiled_seen: set[int] = set()

    @property
    def depth(self) -> int:
        """Queued work: pending + formed-but-undispatched + in flight."""
        return (
            self.batcher.pending_count
            + sum(fb.occupancy for fb in self.fifo)
            + sum(p.formed.occupancy for p, _ in self.inflight.values())
        )


def replay_cluster_trace(
    trace: Sequence[TraceRequest],
    framework: Optional[CoordinatedFramework] = None,
    config: Optional[ClusterConfig] = None,
    *,
    kill: Sequence[tuple[int, float]] = (),
) -> ClusterReport:
    """Serve ``trace`` across the configured shard cluster, virtually.

    ``kill`` schedules crashes: each ``(shard_id, time_us)`` pair
    kills that shard at the given virtual time.  Without
    ``config.supervisor``, queued and in-flight work settles as
    ``error:ShardKilled`` and the shard stays dead; with it, the
    casualties fail over along the ring (typed ``budget_exhausted`` /
    ``failover_exhausted`` when they cannot) and the shard respawns
    warm after its restart backoff.  Deterministic either way:
    identical inputs yield the byte-identical report.
    """
    framework = framework if framework is not None else CoordinatedFramework()
    config = config if config is not None else ClusterConfig()
    serve_cfg = config.serve
    sup_cfg = config.supervisor
    sup_stats = SupervisorStats()
    trackers = {i: RestartTracker() for i in range(config.shards)}
    router = Router(
        config.shards,
        vnodes=config.vnodes,
        steal_threshold=config.steal_threshold,
    )
    shards = [_Shard(i, framework, config) for i in range(config.shards)]
    tracer = get_tracer()

    seq = itertools.count()
    token_seq = itertools.count()
    events: list[tuple[float, int, str, object]] = []

    def push(time_us: float, kind: str, payload: object) -> None:
        heapq.heappush(events, (time_us, next(seq), kind, payload))

    # Kills first so a kill at time t settles before a t-arrival routes.
    for shard_id, time_us in kill:
        if not 0 <= shard_id < config.shards:
            raise ValueError(f"kill: unknown shard {shard_id}")
        push(float(time_us), "kill", shard_id)
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

    n_rejected_global = 0
    makespan_us = 0.0

    def depths() -> dict[int, int]:
        return {s.shard_id: s.depth for s in shards}

    def total_depth() -> int:
        return sum(s.depth for s in shards if s.alive)

    def reject(
        shard: _Shard, requests, now_us: float, reason: str, *, observe=False
    ) -> None:
        for r in requests:
            latency_us = max(0.0, now_us - r.arrival_us)
            shard.results[r.request_id] = Rejected(
                request_id=r.request_id,
                finish_us=now_us,
                latency_us=latency_us,
                reason=reason,
            )
            if observe:
                shard.admission.observe_service(latency_us)

    def compile_charge_us(shard: _Shard, planned) -> float:
        # Charged on a plan's first dispatch; the entry dies with the
        # schedule, whose id CPython may reuse (see serve/driver.py).
        if serve_cfg.policy.engine != "compiled":
            return 0.0
        schedule = planned.report.schedule
        key = id(schedule)
        if key in shard.compiled_seen:
            return 0.0
        shard.compiled_seen.add(key)
        weakref.finalize(schedule, shard.compiled_seen.discard, key)
        return serve_cfg.compile_overhead_us

    def dispatch(shard: _Shard, now_us: float) -> None:
        while shard.alive and shard.free_workers > 0 and shard.fifo:
            fb = shard.fifo.popleft()
            try:
                planned = shard.planner.plan(fb)
            except Exception as exc:
                reject(shard, fb.requests, now_us, error_reason(exc), observe=True)
                continue
            shard.free_workers -= 1
            token = next(token_seq)
            shard.inflight[token] = (planned, now_us)
            push(
                now_us + compile_charge_us(shard, planned) + planned.service_us,
                "complete",
                (shard.shard_id, token),
            )

    def form(shard: _Shard, now_us: float) -> None:
        if not shard.alive:
            return
        while True:
            fb = shard.batcher.poll(now_us)
            if fb is None:
                break
            reject(shard, fb.shed, now_us, REASON_DEADLINE)
            if fb.requests:
                shard.occupancies.append(fb.occupancy)
                shard.formed_batches.append(fb.to_gemm_batch())
                shard.fifo.append(fb)
        dispatch(shard, now_us)

    def complete(shard: _Shard, token: int, now_us: float) -> None:
        held = shard.inflight.pop(token, None)
        if held is None or not shard.alive:
            # The shard died while this batch was in flight; its
            # requests were settled as ShardKilled at the kill instant.
            return
        planned, dispatch_us = held
        shard.free_workers += 1
        batch_size = planned.formed.occupancy
        for r in planned.formed.requests:
            latency_us = now_us - r.arrival_us
            if r.timeout_us is not None and latency_us > r.timeout_us:
                shard.results[r.request_id] = TimedOut(
                    request_id=r.request_id,
                    finish_us=now_us,
                    latency_us=latency_us,
                    batch_id=planned.formed.batch_id,
                )
            else:
                shard.results[r.request_id] = Completed(
                    request_id=r.request_id,
                    finish_us=now_us,
                    latency_us=latency_us,
                    batch_id=planned.formed.batch_id,
                    batch_size=batch_size,
                    queue_us=dispatch_us - r.arrival_us,
                    service_us=planned.service_us,
                    deadline_met=r.deadline_us is None or now_us <= r.deadline_us,
                )
            shard.admission.observe_service(latency_us)
        dispatch(shard, now_us)

    def settle_casualties(shard: _Shard, requests, now_us: float) -> None:
        """Settle (or fail over) the requests a kill orphaned.

        Unsupervised: the PR-7 typed ``error:ShardKilled``.  Supervised,
        each casualty takes exactly one of three typed paths:

        * deadline budget already spent at the kill instant -- settle
          ``budget_exhausted`` (no resubmission could finish in time);
        * ``failover`` count under the limit -- re-enter the arrival
          path *now* with the count incremented (the router will walk
          the ring past the dead shard);
        * over the limit -- settle ``failover_exhausted``.
        """
        if sup_cfg is None:
            reject(shard, requests, now_us, REASON_SHARD_KILLED)
            return
        for r in requests:
            if r.deadline_us is not None and r.deadline_us <= now_us:
                sup_stats.budget_exhausted += 1
                reject(shard, [r], now_us, REASON_BUDGET_EXHAUSTED)
            elif r.failover < sup_cfg.failover_limit:
                sup_stats.resubmissions += 1
                push(now_us, "arrive", replace(r, failover=r.failover + 1))
            else:
                sup_stats.failover_exhausted += 1
                reject(shard, [r], now_us, REASON_FAILOVER_EXHAUSTED)

    def kill_shard(shard: _Shard, now_us: float) -> None:
        if not shard.alive:
            return
        shard.alive = False
        router.mark_dead(shard.shard_id)
        settle_casualties(shard, shard.batcher.drain_pending(), now_us)
        while shard.fifo:
            settle_casualties(shard, shard.fifo.popleft().requests, now_us)
        for planned, _ in shard.inflight.values():
            settle_casualties(shard, planned.formed.requests, now_us)
        shard.inflight.clear()
        tracer.counter("cluster.shard_killed")
        if sup_cfg is None:
            return
        tracker = trackers[shard.shard_id]
        if tracker.may_restart(now_us, sup_cfg):
            # Snapshot the warm state at the kill instant -- keys only,
            # so the manifest survives the crash by construction.
            manifest = shard.cache.snapshot()
            push(
                now_us + tracker.backoff_us(sup_cfg),
                "respawn",
                (shard.shard_id, manifest),
            )
        else:
            router.eject(shard.shard_id)
            sup_stats.record_ejection(shard.shard_id)

    def respawn_shard(shard_id: int, manifest, now_us: float) -> None:
        old = shards[shard_id]
        if old.alive or router.state(shard_id) is not ShardState.DEAD:
            return  # revived or permanently ejected in the meantime
        fresh = _Shard(shard_id, framework, config)
        # The shard's report spans every incarnation: settlements,
        # occupancy history, and cache counters all carry over.
        fresh.results = old.results
        fresh.occupancies = old.occupancies
        fresh.formed_batches = old.formed_batches
        fresh.cache.stats = old.cache.stats_snapshot()
        fresh.cache.restore(manifest)
        shards[shard_id] = fresh
        router.rejoin(shard_id)
        trackers[shard_id].record(now_us)
        sup_stats.record_restart(shard_id)
        tracer.counter("cluster.shard_respawned")
        # Anything already waiting for this shard's ring segment routed
        # elsewhere while it was down; new arrivals remap back now.

    def arrive(req: ServeRequest, now_us: float) -> None:
        nonlocal n_rejected_global
        if (
            config.global_queue_capacity is not None
            and total_depth() >= config.global_queue_capacity
        ):
            n_rejected_global += 1
            return
        try:
            decision = router.route(
                signature_key(req.gemm, getattr(req, "precision", None)), depths()
            )
        except LookupError:
            # Every shard is gone; the tier itself refuses the request.
            n_rejected_global += 1
            return
        router.record(decision)
        shard = shards[decision.shard]
        shard_req = req
        rejection = shard.admission.admit(
            shard_req, shard.batcher.pending_count, now_us
        )
        if rejection is not None:
            shard.results[req.request_id] = rejection
            return
        shard.batcher.offer(shard_req)
        push(now_us + serve_cfg.batcher.max_wait_us, "window", shard.shard_id)
        form(shard, now_us)

    with tracer.span(
        "cluster.replay", requests=len(trace), shards=config.shards
    ) as span:
        while events:
            now_us, _, kind, payload = heapq.heappop(events)
            makespan_us = max(makespan_us, now_us)
            if kind == "arrive":
                arrive(payload, now_us)  # type: ignore[arg-type]
            elif kind == "window":
                form(shards[payload], now_us)  # type: ignore[index]
            elif kind == "complete":
                shard_id, token = payload  # type: ignore[misc]
                complete(shards[shard_id], token, now_us)
            elif kind == "respawn":
                shard_id, manifest = payload  # type: ignore[misc]
                respawn_shard(shard_id, manifest, now_us)
            else:  # kill
                kill_shard(shards[payload], now_us)  # type: ignore[index]
        if span.enabled:
            span.set_attr("makespan_us", makespan_us)

    if tracer.enabled:
        tracer.counter("cluster.requests", len(trace))
        tracer.counter("cluster.steals", router.steals)
        tracer.counter("cluster.failovers", router.failovers)
        tracer.counter("cluster.rejected_global", n_rejected_global)
        if sup_cfg is not None:
            tracer.counter("supervisor.restarts", sup_stats.restarts)
            tracer.counter("failover.resubmissions", sup_stats.resubmissions)
            tracer.counter("budget.exhausted", sup_stats.budget_exhausted)
        for s in shards:
            tracer.gauge(f"cluster.shard_depth.{s.shard_id}", s.depth)
            tracer.gauge(
                f"cluster.shard_hit_rate.{s.shard_id}",
                s.cache.stats_snapshot().hit_rate,
            )
            if s.bloom is not None:
                tracer.counter(
                    "cluster.admission_deferred", s.bloom.deferred
                )

    shard_reports = {
        s.shard_id: compile_report(
            results=s.results,
            occupancies=s.occupancies,
            makespan_us=makespan_us,
            cache=s.cache.stats_snapshot(),
            max_batch_size=serve_cfg.batcher.max_batch_size,
            time_base="virtual",
            formed_batches=s.formed_batches,
        )
        for s in shards
    }
    return compile_cluster_report(
        shard_reports=shard_reports,
        assigned=dict(router.routed),
        states=router.states(),
        router=router.snapshot(),
        n_rejected_global=n_rejected_global,
        makespan_us=makespan_us,
        time_base="virtual",
        bloom={
            s.shard_id: s.bloom.snapshot()
            for s in shards
            if s.bloom is not None
        }
        or None,
        supervisor=sup_stats.to_dict() if sup_cfg is not None else None,
    )
