"""The live sharded serving tier: N GemmServers behind one router.

:class:`ClusterFrontend` is the wall-clock twin of
:func:`~repro.cluster.driver.replay_cluster_trace`, sharing the same
:class:`~repro.cluster.router.Router` decision procedure so a given
trace routes to the *same shards* in either mode.  Each shard is a
complete in-process :class:`~repro.serve.server.GemmServer` pipeline
with a private :class:`~repro.core.plancache.PlanCache` (optionally
behind second-hit :class:`~repro.cluster.bloom.BloomAdmission`) --
private caches are the point of affinity routing: a shape signature
always lands on the shard whose cache already holds its plan.

Submission path (all under the frontend lock, so routing is
serialized and deterministic given the same submission order):

1. **membership sync** -- a shard whose server stopped accepting
   (crash barrier tripped, or killed) is marked dead on the ring;
2. **global backpressure** -- when total queue depth across live
   shards reaches ``config.global_queue_capacity`` the request is
   rejected ``queue_full`` without routing;
3. **routing** -- ring affinity, then failover past shards whose
   circuit breaker refuses (``allow()`` is consulted only for the
   actual candidate, so a half-open breaker's single probe slot is
   never consumed by a request that routes elsewhere), then work
   stealing on queue-depth skew;
4. the chosen shard's own admission controller has the final word.

A background **settlement watcher** thread feeds each shard's
breaker from its settled tickets: an ``error:*`` or stranded outcome
counts as a shard failure, any other settlement (completed, timed
out, shed, queue-rejected) proves the shard responsive.  Breakers
open per the configured threshold, diverting traffic to ring
successors until a cooldown probe succeeds.

Operator controls mirror the router lifecycle: :meth:`drain` (off the
ring, finishes queued work), :meth:`eject`, :meth:`rejoin`, and
:meth:`kill` -- the crash model, settling everything the shard held
as the typed ``error:ShardKilled`` rejection.  :meth:`cluster_health`
aggregates per-shard :meth:`~repro.serve.server.GemmServer.health`
with breaker and ring state; :meth:`summary` compiles every shard's
report into one :class:`~repro.cluster.report.ClusterReport`.

**Supervision** (``config.supervisor``): a
:class:`~repro.cluster.supervisor.ShardSupervisor` probe thread
respawns killed shards warm from their predecessor's
:class:`~repro.core.plancache.PlanCacheManifest` under the configured
capped-exponential restart policy, and the settlement watcher turns
``error:ShardKilled`` inner settlements into transparent failover
resubmissions along the ring -- callers hold an envelope ticket that
settles exactly once, with the final outcome or the typed
``budget_exhausted`` / ``failover_exhausted`` rejection.  See
``docs/cluster.md`` for the recovery lifecycle.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Any, Callable, Optional

from repro.cluster.bloom import BloomAdmission
from repro.cluster.config import ClusterConfig
from repro.cluster.report import (
    REASON_SHARD_KILLED,
    REASON_UNROUTABLE,
    ClusterReport,
    compile_cluster_report,
)
from repro.cluster.router import Router, signature_key
from repro.cluster.supervisor import ShardSupervisor
from repro.core.framework import CoordinatedFramework
from repro.core.plancache import CacheStats, PlanCache
from repro.core.problem import Gemm
from repro.reliability.breaker import BreakerState, CircuitBreaker
from repro.serve.report import compile_report
from repro.serve.request import (
    REASON_BUDGET_EXHAUSTED,
    REASON_FAILOVER_EXHAUSTED,
    REASON_QUEUE_FULL,
    REASON_SHUTDOWN,
    REASON_STRANDED,
    Rejected,
)
from repro.serve.server import GemmServer, ServeTicket

__all__ = ["ClusterFrontend"]


class _Envelope:
    """Failover bookkeeping for one supervised submission.

    When supervision enables failover, the caller holds an *outer*
    ticket while the watcher chases the request across shard
    incarnations: an inner ticket settled ``error:ShardKilled`` is
    transparently resubmitted along the ring (up to the configured
    limit, and only while the absolute deadline still has budget);
    any other settlement resolves the outer ticket verbatim.
    """

    __slots__ = (
        "ticket",
        "gemm",
        "operands",
        "deadline_abs_us",
        "timeout_us",
        "priority",
        "precision",
        "resubmits",
    )

    def __init__(
        self,
        ticket: ServeTicket,
        gemm: Gemm,
        operands: Any,
        deadline_abs_us: Optional[float],
        timeout_us: Optional[float],
        priority: int,
        precision: Optional[str],
    ):
        self.ticket = ticket
        self.gemm = gemm
        self.operands = operands
        self.deadline_abs_us = deadline_abs_us
        self.timeout_us = timeout_us
        self.priority = priority
        self.precision = precision
        self.resubmits = 0


class ClusterFrontend:
    """Routes live submissions across in-process GemmServer shards.

    Parameters
    ----------
    framework:
        Shared planner/executor; defaults to a V100
        :class:`CoordinatedFramework`.  Shards share the framework but
        never the cache.
    config:
        The tier layout and policies (:class:`ClusterConfig`).
    clock:
        Monotonic seconds source, injectable for tests; passed through
        to every shard server and breaker.
    """

    def __init__(
        self,
        framework: Optional[CoordinatedFramework] = None,
        config: Optional[ClusterConfig] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.framework = (
            framework if framework is not None else CoordinatedFramework()
        )
        self.config = config if config is not None else ClusterConfig()
        self._clock = clock
        self._t0 = clock()
        cfg = self.config
        self.blooms: list[Optional[BloomAdmission]] = []
        self.servers: list[GemmServer] = []
        for _ in range(cfg.shards):
            bloom, _cache, server = self._build_shard()
            self.blooms.append(bloom)
            self.servers.append(server)
        self.router = Router(
            cfg.shards, vnodes=cfg.vnodes, steal_threshold=cfg.steal_threshold
        )
        self.breakers = [self._build_breaker(i) for i in range(cfg.shards)]
        self._lock = threading.Lock()
        self._settled_ids = itertools.count()
        self._n_rejected_global = 0
        self._n_unroutable = 0
        self._first_submit_us: Optional[float] = None
        self._started = False
        self._closed = False
        # shard -> measurements() exports of retired (killed, then
        # replaced) server incarnations; merged back in summary().
        self._retired: dict[int, list[dict]] = {}
        # (shard_id, ticket, envelope-or-None) triples the watcher
        # resolves into breaker outcomes -- and, for supervised
        # envelopes, failover resubmissions -- once settled; guarded by
        # _watch_lock.
        self._watch: deque[tuple[int, ServeTicket, Optional[_Envelope]]] = deque()
        self._watch_lock = threading.Lock()
        self._watch_stop = threading.Event()
        self._watcher: Optional[threading.Thread] = None
        self.supervisor: Optional[ShardSupervisor] = (
            ShardSupervisor(self, cfg.supervisor, clock=clock)
            if cfg.supervisor is not None
            else None
        )
        self._failover_enabled = (
            cfg.supervisor is not None and cfg.supervisor.failover_limit > 0
        )

    # -- shard construction (shared with the supervisor) ---------------

    def _build_shard(self) -> tuple[Optional[BloomAdmission], PlanCache, GemmServer]:
        """One fresh bloom/cache/server trio (initial build and respawn)."""
        cfg = self.config
        bloom = (
            BloomAdmission(
                cfg.bloom.capacity,
                cfg.bloom.fp_rate,
                rotate_after=cfg.bloom.rotate_after,
            )
            if cfg.bloom is not None
            else None
        )
        cache = PlanCache(
            self.framework, capacity=cfg.cache_capacity, admission=bloom
        )
        server = GemmServer(
            self.framework, cfg.serve, cache=cache, clock=self._clock
        )
        return bloom, cache, server

    def _build_breaker(self, shard: int) -> CircuitBreaker:
        """A fresh (closed) breaker for ``shard`` -- a respawned shard
        must not inherit the failure count that killed its predecessor."""
        reliability = self.config.serve.reliability
        return CircuitBreaker(
            f"shard-{shard}",
            failure_threshold=reliability.breaker_failure_threshold,
            cooldown_s=reliability.breaker_cooldown_s,
            clock=self._clock,
        )

    def _retire_shard(self, shard: int) -> None:
        """Archive a dead incarnation's measurements (frontend lock held)."""
        self._retired.setdefault(shard, []).append(
            self.servers[shard].measurements()
        )

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ClusterFrontend":
        """Start every shard server and the settlement watcher."""
        if self._started:
            return self
        self._started = True
        for server in self.servers:
            server.start()
        self._watcher = threading.Thread(
            target=self._watch_loop, name="cluster-watcher", daemon=True
        )
        self._watcher.start()
        if self.supervisor is not None:
            self.supervisor.start()
        return self

    def close(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop admissions and shut every shard down (idempotent).

        The supervisor stops *first* so a respawn cannot race the
        shard shutdowns, and the watcher joins last (after every inner
        ticket has settled) so no failover envelope is left unresolved.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self.supervisor is not None:
            self.supervisor.stop(timeout_s=timeout_s)
        for server in self.servers:
            server.close(drain=drain, timeout_s=timeout_s)
        self._watch_stop.set()
        if self._watcher is not None:
            self._watcher.join(timeout=timeout_s)

    def __enter__(self) -> "ClusterFrontend":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # -- shard lifecycle ----------------------------------------------

    def kill(self, shard: int, timeout_s: float = 30.0) -> None:
        """Crash one shard: ring removal + everything it held settles
        as the typed ``error:ShardKilled`` rejection."""
        with self._lock:
            self.router.mark_dead(shard)
        self.servers[shard].kill(REASON_SHARD_KILLED, timeout_s=timeout_s)

    def drain(self, shard: int) -> None:
        """Take ``shard`` off the ring; it keeps serving its queue."""
        with self._lock:
            self.router.drain(shard)

    def eject(self, shard: int) -> None:
        """Remove ``shard`` from routing by operator decision."""
        with self._lock:
            self.router.eject(shard)

    def rejoin(self, shard: int) -> None:
        """Bring a drained/ejected shard back onto the ring.

        A killed shard cannot rejoin: its server is closed.
        """
        if not self.servers[shard].accepting:
            raise ValueError(f"shard {shard} is not accepting; cannot rejoin")
        with self._lock:
            self.router.rejoin(shard)

    # -- submission ----------------------------------------------------

    def _settled_ticket(self, reason: str, now_us: float) -> ServeTicket:
        """A pre-resolved ticket for a request the tier itself refused."""
        rid = next(self._settled_ids)
        ticket = ServeTicket(rid)
        ticket._resolve(
            Rejected(
                request_id=rid,
                finish_us=now_us,
                latency_us=0.0,
                reason=reason,
            )
        )
        return ticket

    def _sync_membership(self) -> None:
        """Mark shards whose server stopped accepting as dead (lock held)."""
        for i in self.router.active_shards():
            if not self.servers[i].accepting:
                self.router.mark_dead(i)

    def _route(self, key: str, depths: dict[int, int]) -> Optional[int]:
        """Route ``key`` to a shard whose breaker admits it (lock held).

        Records the decision and returns the shard, or counts the
        request unroutable and returns ``None`` when no live unblocked
        shard remains.  The breaker is consulted only for the actual
        candidate, so a half-open probe slot is never burned by a
        request that ends up routing elsewhere.
        """
        blocked: set[int] = set()
        while True:
            try:
                decision = self.router.route(key, depths, blocked=blocked)
            except LookupError:
                self._n_unroutable += 1
                return None
            if self.breakers[decision.shard].allow():
                self.router.record(decision)
                return decision.shard
            blocked.add(decision.shard)

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
        """Route one GEMM to a shard; never blocks.

        ``precision`` qualifies the routing key (fp16 traffic lands on
        its own warm shard, never colliding with fp32 of the same
        shape) and is forwarded to the shard server's ``submit``.

        Returns the shard server's ticket, or a pre-resolved rejection
        when the tier refuses the request before routing
        (``queue_full`` backpressure, ``error:Unroutable`` when no
        live unblocked shard remains, ``shutdown`` after close).

        Under supervision with a positive failover limit the returned
        ticket is an *outer* envelope ticket instead: a shard kill no
        longer settles it as ``error:ShardKilled`` -- the watcher
        transparently resubmits the request along the ring (with the
        remaining relative deadline) up to the limit, and the ticket
        settles with the final outcome, or the typed
        ``budget_exhausted`` / ``failover_exhausted`` rejection.
        """
        now_us = (self._clock() - self._t0) * 1e6
        with self._lock:
            if self._first_submit_us is None:
                self._first_submit_us = now_us
            if self._closed:
                return self._settled_ticket(REASON_SHUTDOWN, now_us)
            self._sync_membership()
            active = self.router.active_shards()
            depths = {i: self.servers[i].queue_depth() for i in active}
            if (
                self.config.global_queue_capacity is not None
                and sum(depths.values()) >= self.config.global_queue_capacity
            ):
                self._n_rejected_global += 1
                return self._settled_ticket(REASON_QUEUE_FULL, now_us)
            shard = self._route(signature_key(gemm, precision), depths)
            if shard is None:
                return self._settled_ticket(REASON_UNROUTABLE, now_us)
        ticket = self.servers[shard].submit(
            gemm,
            operands=operands,
            deadline_us=deadline_us,
            timeout_us=timeout_us,
            priority=priority,
            precision=precision,
        )
        env: Optional[_Envelope] = None
        if self._failover_enabled:
            env = _Envelope(
                ServeTicket(next(self._settled_ids)),
                gemm,
                operands,
                None if deadline_us is None else now_us + deadline_us,
                timeout_us,
                priority,
                precision,
            )
        with self._watch_lock:
            self._watch.append((shard, ticket, env))
        return ticket if env is None else env.ticket

    def _resubmit(self, env: _Envelope) -> bool:
        """Route a failover envelope's next attempt along the ring.

        Returns False when the tier is closed (the caller then settles
        the outer ticket with the inner result verbatim); resolves the
        outer ticket itself when no shard remains (``error:Unroutable``).
        Failover bypasses global backpressure on purpose -- the request
        was already admitted once and its capacity was lost to a crash,
        not to demand.
        """
        now_us = (self._clock() - self._t0) * 1e6
        remaining_us = (
            None
            if env.deadline_abs_us is None
            else env.deadline_abs_us - now_us
        )
        with self._lock:
            if self._closed:
                return False
            self._sync_membership()
            active = self.router.active_shards()
            depths = {i: self.servers[i].queue_depth() for i in active}
            shard = self._route(signature_key(env.gemm, env.precision), depths)
            if shard is None:
                env.ticket._resolve(
                    Rejected(
                        request_id=env.ticket.request_id,
                        finish_us=now_us,
                        latency_us=0.0,
                        reason=REASON_UNROUTABLE,
                    )
                )
                return True
        ticket = self.servers[shard].submit(
            env.gemm,
            operands=env.operands,
            deadline_us=remaining_us,
            timeout_us=env.timeout_us,
            priority=env.priority,
            precision=env.precision,
        )
        with self._watch_lock:
            self._watch.append((shard, ticket, env))
        return True

    # -- settlement watcher -------------------------------------------

    def _breaker_outcome(self, shard: int, result) -> None:
        reason = getattr(result, "reason", None)
        if reason is not None and (
            reason.startswith("error:") or reason == REASON_STRANDED
        ):
            self.breakers[shard].record_failure()
        else:
            # Any other settlement -- completed, timed out, shed,
            # queue-rejected -- proves the shard pipeline responsive.
            self.breakers[shard].record_success()

    def _settle_envelope(self, env: _Envelope, result) -> None:
        """Resolve (or fail over) one supervised envelope's inner result."""
        stats = self.supervisor.stats if self.supervisor is not None else None
        if getattr(result, "reason", None) == REASON_SHARD_KILLED:
            now_us = (self._clock() - self._t0) * 1e6
            if env.deadline_abs_us is not None and env.deadline_abs_us <= now_us:
                # The deadline budget is already spent: no shard could
                # finish a resubmission in time, so settle typed now.
                if stats is not None:
                    stats.budget_exhausted += 1
                env.ticket._resolve(
                    Rejected(
                        request_id=env.ticket.request_id,
                        finish_us=now_us,
                        latency_us=0.0,
                        reason=REASON_BUDGET_EXHAUSTED,
                    )
                )
                return
            if env.resubmits < self.config.supervisor.failover_limit:
                env.resubmits += 1
                if self._resubmit(env):
                    if stats is not None:
                        stats.resubmissions += 1
                    return
                # Tier closed mid-failover: settle with the inner
                # result below -- still typed, never stranded.
            else:
                if stats is not None:
                    stats.failover_exhausted += 1
                env.ticket._resolve(
                    Rejected(
                        request_id=env.ticket.request_id,
                        finish_us=result.finish_us,
                        latency_us=result.latency_us,
                        reason=REASON_FAILOVER_EXHAUSTED,
                    )
                )
                return
        env.ticket._resolve(replace(result, request_id=env.ticket.request_id))

    def _drain_settled(self) -> int:
        """Feed settled tickets to the breakers; returns #unsettled left.

        Envelope entries additionally resolve (or fail over) their
        outer ticket via :meth:`_settle_envelope`.
        """
        with self._watch_lock:
            pending = len(self._watch)
            batch = [self._watch.popleft() for _ in range(pending)]
        still_waiting = []
        for shard, ticket, env in batch:
            if not ticket.done():
                still_waiting.append((shard, ticket, env))
                continue
            result = ticket.result(0)
            self._breaker_outcome(shard, result)
            if env is not None:
                self._settle_envelope(env, result)
        if still_waiting:
            with self._watch_lock:
                self._watch.extend(still_waiting)
        return len(still_waiting)

    def _watch_loop(self) -> None:
        while not self._watch_stop.is_set():
            self._drain_settled()
            self._watch_stop.wait(0.002)
        # Final sweep: close() settles every ticket before joining us.
        self._drain_settled()

    # -- introspection -------------------------------------------------

    def cluster_health(self) -> dict:
        """Tier-level liveness: per-shard health, breakers, ring state.

        ``ok`` is True while at least one shard is active and healthy.
        """
        with self._lock:
            self._sync_membership()
            states = self.router.states()
            router = self.router.snapshot()
            n_rejected_global = self._n_rejected_global
            n_unroutable = self._n_unroutable
        shards = {}
        ok = False
        for i, server in enumerate(self.servers):
            health = server.health()
            breaker = self.breakers[i].snapshot()
            shard_ok = (
                states[i] == "active"
                and health["ok"]
                and breaker["state"] != BreakerState.OPEN.value
            )
            ok = ok or shard_ok
            shards[i] = {
                "state": states[i],
                "ok": shard_ok,
                "breaker": breaker["state"],
                "breaker_detail": breaker,
                "health": health,
                "bloom": (
                    None if self.blooms[i] is None else self.blooms[i].snapshot()
                ),
            }
        return {
            "ok": ok,
            "n_shards": len(self.servers),
            "active": [i for i, s in states.items() if s == "active"],
            "rejected_global": n_rejected_global,
            "unroutable": n_unroutable,
            "router": router,
            "supervisor": (
                None if self.supervisor is None else self.supervisor.stats.to_dict()
            ),
            "shards": shards,
        }

    def _shard_report(self, shard: int, retired: list):
        """One shard's report, merged across retired incarnations.

        A supervised respawn swaps the server object out; the retired
        incarnations' raw measurements (archived by
        :meth:`_retire_shard`) are concatenated with the live server's
        so nothing a dead incarnation settled is lost.  The merged
        makespan is the *sum* of per-incarnation active spans (each
        incarnation timestamps on its own epoch), and the reliability
        snapshot is the live incarnation's.
        """
        if not retired:
            return self.servers[shard].summary()
        spans = retired + [self.servers[shard].measurements()]
        cache = CacheStats()
        makespan_us = 0.0
        for m in spans:
            c = m["cache"]
            cache.hits += c.hits
            cache.misses += c.misses
            cache.evictions += c.evictions
            cache.admission_deferred += c.admission_deferred
            if m["first_arrival_us"] is not None:
                makespan_us += max(
                    0.0, m["last_finish_us"] - m["first_arrival_us"]
                )
        return compile_report(
            results=[r for m in spans for r in m["results"]],
            occupancies=[o for m in spans for o in m["occupancies"]],
            makespan_us=makespan_us,
            cache=cache,
            max_batch_size=self.config.serve.batcher.max_batch_size,
            time_base="wall",
            formed_batches=[b for m in spans for b in m["formed_batches"]],
            reliability=self.servers[shard]._reliability_snapshot(),
        )

    def summary(self) -> ClusterReport:
        """Compile every shard's report into one :class:`ClusterReport`.

        Counting caveat under supervised failover: a resubmitted
        request settles on *each* shard that held it (the killed
        shard's ``error:ShardKilled`` plus the final outcome
        elsewhere), so per-shard ``n_requests`` -- and the tier totals
        derived from them -- count such a request once per attempt.
        The caller-facing envelope ticket settles exactly once; the
        replay driver (:func:`~repro.cluster.driver.
        replay_cluster_trace`), which benchmarks and determinism tests
        use, counts each request exactly once.
        """
        with self._lock:
            assigned = dict(self.router.routed)
            states = self.router.states()
            router = self.router.snapshot()
            n_rejected_global = self._n_rejected_global + self._n_unroutable
            first = self._first_submit_us
            retired = {i: list(v) for i, v in self._retired.items()}
        now_us = (self._clock() - self._t0) * 1e6
        makespan_us = max(0.0, now_us - first) if first is not None else 0.0
        return compile_cluster_report(
            shard_reports={
                i: self._shard_report(i, retired.get(i, []))
                for i in range(len(self.servers))
            },
            assigned=assigned,
            states=states,
            router=router,
            n_rejected_global=n_rejected_global,
            makespan_us=makespan_us,
            time_base="wall",
            bloom={
                i: b.snapshot()
                for i, b in enumerate(self.blooms)
                if b is not None
            }
            or None,
            supervisor=(
                None if self.supervisor is None else self.supervisor.stats.to_dict()
            ),
        )
