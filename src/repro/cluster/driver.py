"""Deterministic virtual-time replay of a trace across a shard cluster.

:func:`replay_cluster_trace` drives one
:class:`~repro.serve.driver.ReplayPipeline` per shard -- the pipeline
:func:`repro.serve.driver.replay_trace` drives, on one shared event
heap -- behind the :class:`~repro.cluster.router.Router`, and keeps
only what the tier adds: global backpressure, routing, kills with
failover, and respawn.  Each shard plans through a private
:class:`~repro.core.plancache.PlanCache` (with second-hit
:class:`~repro.cluster.bloom.BloomAdmission` when configured) and
honours ``config.serve.reliability``.  Nothing reads a wall clock, so
the same trace, config, and kill schedule always produce the
byte-identical :class:`~repro.cluster.report.ClusterReport` --
including identical shard assignments -- which is the contract
``BENCH_cluster.json`` and the cluster CLI tests pin.

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
  stealing), then the shard pipeline's admission and batcher;
* ``window`` -- re-poll one shard's batcher (the shard's *current*
  pipeline: the payload is the shard id);
* ``complete`` -- a shard worker finished a batch (dropped if the
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
  every incarnation and no settlement is lost.  Its ``reliability``
  counters are the current incarnation's, as in the live tier.

Without ``config.supervisor`` kills are permanent and casualties
settle ``error:ShardKilled``.
"""

from __future__ import annotations

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
from repro.serve.driver import EventHeap, ReplayPipeline
from repro.serve.loadgen import TraceRequest
from repro.serve.request import (
    REASON_BUDGET_EXHAUSTED,
    REASON_FAILOVER_EXHAUSTED,
    ServeRequest,
)
from repro.telemetry import get_tracer

__all__ = ["replay_cluster_trace"]


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
    sup_cfg = config.supervisor
    sup_stats = SupervisorStats()
    trackers = {i: RestartTracker() for i in range(config.shards)}
    router = Router(
        config.shards,
        vnodes=config.vnodes,
        steal_threshold=config.steal_threshold,
    )
    tracer = get_tracer()
    events = EventHeap()

    def pipeline(shard_id: int) -> ReplayPipeline:
        bloom = (
            BloomAdmission(
                config.bloom.capacity,
                config.bloom.fp_rate,
                rotate_after=config.bloom.rotate_after,
            )
            if config.bloom is not None
            else None
        )
        cache = PlanCache(framework, capacity=config.cache_capacity, admission=bloom)
        return ReplayPipeline(
            framework, config.serve, events, cache=cache, key=shard_id
        )

    shards = [pipeline(i) for i in range(config.shards)]

    # Kills first so a kill at time t settles before a t-arrival routes.
    for shard_id, time_us in kill:
        if not 0 <= shard_id < config.shards:
            raise ValueError(f"kill: unknown shard {shard_id}")
        events.push(float(time_us), "kill", shard_id)
    events.push_arrivals(trace)

    n_rejected_global = 0

    def settle_casualties(shard: ReplayPipeline, requests, now_us: float) -> None:
        """Settle (or fail over) the requests a kill orphaned.

        Unsupervised: the typed ``error:ShardKilled``.  Supervised,
        each casualty takes exactly one of three typed paths:

        * deadline budget already spent at the kill instant -- settle
          ``budget_exhausted`` (no resubmission could finish in time);
        * ``failover`` count under the limit -- re-enter the arrival
          path *now* with the count incremented (the router will walk
          the ring past the dead shard);
        * over the limit -- settle ``failover_exhausted``.
        """
        if sup_cfg is None:
            shard.reject(requests, now_us, REASON_SHARD_KILLED)
            return
        for r in requests:
            if r.deadline_us is not None and r.deadline_us <= now_us:
                sup_stats.budget_exhausted += 1
                shard.reject([r], now_us, REASON_BUDGET_EXHAUSTED)
            elif r.failover < sup_cfg.failover_limit:
                sup_stats.resubmissions += 1
                events.push(now_us, "arrive", replace(r, failover=r.failover + 1))
            else:
                sup_stats.failover_exhausted += 1
                shard.reject([r], now_us, REASON_FAILOVER_EXHAUSTED)

    def kill_shard(shard_id: int, now_us: float) -> None:
        if router.state(shard_id) is not ShardState.ACTIVE:
            return
        shard = shards[shard_id]
        router.mark_dead(shard_id)
        settle_casualties(shard, shard.kill(), now_us)
        tracer.counter("cluster.shard_killed")
        if sup_cfg is None:
            return
        tracker = trackers[shard_id]
        if tracker.may_restart(now_us, sup_cfg):
            # Snapshot the warm state at the kill instant -- keys only,
            # so the manifest survives the crash by construction.
            manifest = shard.planner.cache.snapshot()
            events.push(
                now_us + tracker.backoff_us(sup_cfg), "respawn", (shard_id, manifest)
            )
        else:
            router.eject(shard_id)
            sup_stats.record_ejection(shard_id)

    def respawn_shard(shard_id: int, manifest, now_us: float) -> None:
        if router.state(shard_id) is not ShardState.DEAD:
            return  # revived or permanently ejected in the meantime
        old, fresh = shards[shard_id], pipeline(shard_id)
        # The shard's report spans every incarnation: settlements,
        # occupancy history, and cache counters all carry over.
        fresh.results = old.results
        fresh.occupancies = old.occupancies
        fresh.formed_batches = old.formed_batches
        fresh.planner.cache.stats = old.planner.cache.stats_snapshot()
        fresh.planner.cache.restore(manifest)
        shards[shard_id] = fresh
        router.rejoin(shard_id)
        trackers[shard_id].record(now_us)
        sup_stats.record_restart(shard_id)
        tracer.counter("cluster.shard_respawned")
        # Anything already waiting for this shard's ring segment routed
        # elsewhere while it was down; new arrivals remap back now.

    def arrive(req: ServeRequest, now_us: float) -> None:
        nonlocal n_rejected_global
        # A dead shard holds nothing, so its depth adds zero.
        depths = {i: s.depth for i, s in enumerate(shards)}
        if (
            config.global_queue_capacity is not None
            and sum(depths.values()) >= config.global_queue_capacity
        ):
            n_rejected_global += 1
            return
        try:
            decision = router.route(signature_key(req.gemm, req.precision), depths)
        except LookupError:
            # Every shard is gone; the tier itself refuses the request.
            n_rejected_global += 1
            return
        router.record(decision)
        shards[decision.shard].arrive(req, now_us)

    with tracer.span(
        "cluster.replay", requests=len(trace), shards=config.shards
    ) as span:
        for now_us, seq, kind, payload in events:
            if kind == "arrive":
                arrive(payload, now_us)  # type: ignore[arg-type]
            elif kind == "window":
                shards[payload].poll(now_us)  # type: ignore[index]
            elif kind == "complete":
                shards[payload].complete(seq, now_us)  # type: ignore[index]
            elif kind == "respawn":
                shard_id, manifest = payload  # type: ignore[misc]
                respawn_shard(shard_id, manifest, now_us)
            else:  # kill
                kill_shard(payload, now_us)  # type: ignore[arg-type]
        makespan_us = events.now_us
        if span.enabled:
            span.set_attr("makespan_us", makespan_us)

    blooms = {i: s.planner.cache.admission for i, s in enumerate(shards)}
    if tracer.enabled:
        tracer.counter("cluster.requests", len(trace))
        tracer.counter("cluster.steals", router.steals)
        tracer.counter("cluster.failovers", router.failovers)
        tracer.counter("cluster.rejected_global", n_rejected_global)
        if sup_cfg is not None:
            tracer.counter("supervisor.restarts", sup_stats.restarts)
            tracer.counter("failover.resubmissions", sup_stats.resubmissions)
            tracer.counter("budget.exhausted", sup_stats.budget_exhausted)
        for i, s in enumerate(shards):
            tracer.gauge(f"cluster.shard_depth.{i}", s.depth)
            tracer.gauge(
                f"cluster.shard_hit_rate.{i}",
                s.planner.cache.stats_snapshot().hit_rate,
            )
            if blooms[i] is not None:
                tracer.counter("cluster.admission_deferred", blooms[i].deferred)

    return compile_cluster_report(
        shard_reports={i: s.report(makespan_us) for i, s in enumerate(shards)},
        assigned=dict(router.routed),
        states=router.states(),
        router=router.snapshot(),
        n_rejected_global=n_rejected_global,
        makespan_us=makespan_us,
        time_base="virtual",
        bloom={i: b.snapshot() for i, b in blooms.items() if b is not None} or None,
        supervisor=sup_stats.to_dict() if sup_cfg is not None else None,
    )
