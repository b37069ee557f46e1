"""Plan caching for repeated workloads.

The paper's motivating scenarios (DNN training/inference) call the
same batched-GEMM configurations thousands of times.  "For the case
where the batch size and the size of each matrix are fixed ... we can
try both two batching heuristics and choose the better one" (Section
5) -- i.e. spend planning effort once and reuse the winning schedule.
:class:`PlanCache` provides that memoization: plans are keyed by the
batch *signature* (shapes and transposes -- not the operand data)
**and** the fully-resolved :class:`~repro.core.options.PlanOptions`
(heuristic, theta, TLP threshold, precision), with LRU eviction.
Keying on the options matters: the same batch planned under two
heuristics (or two thetas) yields different schedules and must not
alias one entry.

The cache is **thread-safe**: the online serving layer
(:mod:`repro.serve`) shares one cache across its worker pool, so
lookup, insertion and eviction are serialized behind a lock.  Planning
itself runs *outside* the lock -- two workers missing on the same key
may both plan (the plans are identical; the second insert defers to
the first), but workers planning different batches never serialize on
each other.  :meth:`warm` bulk pre-plans known shape mixes so a
serving process starts with a hot cache.

Cache traffic is observable through ``stats`` /
:meth:`stats_snapshot` and, when a recording tracer is installed,
through the ``plan_cache_hit`` / ``plan_cache_miss`` counters and
per-lookup ``plancache.plan`` spans.

Inserts can be gated by an optional **admission policy** (see the
``admission`` parameter): the cluster tier installs second-hit
:class:`~repro.cluster.bloom.BloomAdmission` so one-hit-wonder
signatures are planned but not cached, keeping the hot set resident
under adversarial traffic.  Deferred inserts are counted separately
from misses (``CacheStats.admission_deferred``).

Entries hold plans only.  The ``compiled`` engine finds each plan's
:class:`~repro.kernels.compiled.CompiledPlan` in the compiled-artifact
memo (:func:`~repro.kernels.compiled.compiled_plan_for`), and the
serving planner its simulation in its own; both memos hold their key
(the schedule, the report) weakly and have no capacity, so a cached
plan keeps them warm (a warm hot path pays neither planning nor
compilation) and an evicted plan takes them with it.  :meth:`warm` and
:meth:`restore` compile each plan they cache.  :meth:`execute` plans
through the cache and then hands the plan to the framework's one
post-plan step (stage, run, re-quantize, verify) -- the same step
:meth:`CoordinatedFramework.execute` takes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.framework import CoordinatedFramework, HeuristicLike, PlanReport
from repro.core.options import PlanOptions
from repro.core.problem import Gemm, GemmBatch, batch_signature
from repro.telemetry import get_tracer


@dataclass
class CacheStats:
    """Hit/miss counters.

    ``admission_deferred`` counts misses whose *insert* was declined
    by the cache's admission policy (see
    :class:`~repro.cluster.bloom.BloomAdmission`): the batch was still
    planned and served, but the plan was not cached because its
    signature had not yet proven reuse.  Every deferred insert is also
    counted as a miss (the lookup did miss); the separate counter is
    what distinguishes "cold key" from "key the policy is holding at
    the door".
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    admission_deferred: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-compatible summary (what serving reports print)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "admission_deferred": self.admission_deferred,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class PlanCacheManifest:
    """A warm-state handoff: cache *keys*, never numeric artifacts.

    Produced by :meth:`PlanCache.snapshot` and consumed by
    :meth:`PlanCache.restore` -- the cluster supervisor's mechanism
    for respawning a killed shard warm.  Each entry is the
    ``(resolved PlanOptions, batch signature)`` pair that keyed a
    cached plan, in LRU -> MRU order; restoring *re-plans* each key
    (planning is a pure function of signature and options -- the
    Stream-K++/tritonBLAS argument that selection state is derivable
    from analytical keys alone), so no schedule, simulation, or
    compiled artifact ever needs to survive the crash.

    ``admission_state`` optionally carries the predecessor's
    :class:`~repro.cluster.bloom.BloomAdmission` generations
    (:meth:`~repro.cluster.bloom.BloomAdmission.export_state`) so the
    successor's admission filter remembers which signatures had
    already proven reuse.
    """

    entries: tuple[tuple[Optional[PlanOptions], tuple], ...]
    admission_state: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.entries)

    def signatures(self) -> tuple[tuple, ...]:
        """The batch signatures carried, in LRU -> MRU order."""
        return tuple(sig for _, sig in self.entries)


class PlanCache:
    """An LRU cache of :class:`PlanReport` keyed by (options, signature).

    Parameters
    ----------
    framework:
        The planner to consult on a miss.
    capacity:
        Maximum cached plans; least-recently-used entries evict first.
        It also bounds what the plans derive (compiled artifacts, their
        thread bindings, serving simulations), which dies with them.
    admission:
        Optional insert-admission policy -- any object with an
        ``admit(key: str) -> bool`` test-and-record method (e.g.
        :class:`~repro.cluster.bloom.BloomAdmission`).  When it
        answers False for a missed key, the freshly planned report is
        returned to the caller but **not cached** (counted as
        ``stats.admission_deferred``); the plan earns a slot once its
        signature repeats.  ``None`` (the default) admits every
        insert, the pre-cluster behavior.
    """

    def __init__(
        self,
        framework: CoordinatedFramework,
        capacity: int = 128,
        *,
        admission=None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.framework = framework
        self.capacity = capacity
        self.admission = admission
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, PlanReport] = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def plan(
        self,
        batch: GemmBatch,
        heuristic: HeuristicLike = None,
        *,
        options: Optional[PlanOptions] = None,
    ) -> PlanReport:
        """Return a cached plan for the batch, planning on first sight.

        Accepts the same specs as :meth:`CoordinatedFramework.plan`: a
        :class:`Heuristic`, its string value, or a full
        :class:`PlanOptions`.  The cached plan's schedule is reused
        verbatim -- safe because the key pins every quantity planning
        consumes.  Note the returned report's ``batch`` is the one that
        *first* produced the plan; use the schedule, not the report's
        batch, with new operand data.
        """
        report, _ = self.plan_with_info(batch, heuristic, options=options)
        return report

    def plan_with_info(
        self,
        batch: GemmBatch,
        heuristic: HeuristicLike = None,
        *,
        options: Optional[PlanOptions] = None,
    ) -> tuple[PlanReport, bool]:
        """Like :meth:`plan`, also reporting whether the lookup hit.

        Returns ``(report, hit)``.  The flag is what this call
        observed, race-free -- under concurrency the ``stats`` deltas
        seen by one caller can mix in other callers' traffic, so the
        serving layer's planner stage uses this instead of diffing
        counters.
        """
        opts = self.framework.resolve_options(heuristic, options)
        key = (opts.cache_key(), batch_signature(batch))
        tracer = get_tracer()
        with tracer.span(
            "plancache.plan", heuristic=opts.heuristic.value, size=len(self._entries)
        ) as span:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                else:
                    self.stats.misses += 1
            if cached is not None:
                tracer.counter("plan_cache_hit")
                if span.enabled:
                    span.set_attr("hit", True)
                return cached, True
            tracer.counter("plan_cache_miss")
            if span.enabled:
                span.set_attr("hit", False)
            # Plan outside the lock: concurrent misses on *different*
            # keys must not serialize on each other.
            report = self.framework.plan(batch, options=opts)
            with self._lock:
                existing = self._entries.get(key)
                if existing is not None:
                    # Another worker planned the same key first; keep
                    # its entry so repeated lookups stay identical.
                    self._entries.move_to_end(key)
                    return existing, False
                if self.admission is not None and not self.admission.admit(
                    repr(key)
                ):
                    # First sighting: serve the plan but do not cache
                    # it -- one-hit-wonder signatures must not evict
                    # the hot set (second-hit Bloom admission).
                    self.stats.admission_deferred += 1
                    tracer.counter("plan_cache_admission_deferred")
                    if span.enabled:
                        span.set_attr("admission_deferred", True)
                    return report, False
                self._entries[key] = report
                if len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
                    tracer.counter("plan_cache_eviction")
            return report, False

    def warm(
        self,
        batches: Iterable[GemmBatch],
        heuristic: HeuristicLike = None,
        *,
        options: Optional[PlanOptions] = None,
    ) -> int:
        """Bulk pre-plan and pre-compile ``batches`` (serving warm-start).

        Plans every batch through the normal lookup path (so repeats
        within ``batches`` cost one plan), compiles each plan's
        execution artifact into the compiled memo, and returns how many
        batches were *newly* planned.  A serving process calls this
        with its known shape mixes before opening the request queue, so
        the first live request pays neither planning nor compilation.
        A compile only checks the schedule and allocates no staging:
        each worker thread binds an artifact to its own arena on its
        first run of it.
        """
        from repro.kernels.compiled import compiled_plan_for

        planned = 0
        with get_tracer().span("plancache.warm") as span:
            for batch in batches:
                report, hit = self.plan_with_info(batch, heuristic, options=options)
                compiled_plan_for(report.schedule, batch)
                planned += 0 if hit else 1
            if span.enabled:
                span.set_attr("planned", planned)
        return planned

    def snapshot(self) -> PlanCacheManifest:
        """Export the warm-state manifest (keys only, LRU -> MRU order).

        The manifest carries, per cached entry, the resolved
        :class:`PlanOptions` and the batch signature that keyed it --
        everything :meth:`restore` needs to re-derive the identical
        plan -- plus the admission policy's exported state when the
        policy supports it (``export_state``).  The options are rebuilt
        from the key, so they name the heuristic the lookup requested,
        not the one a ``BEST`` or ``AUTO`` plan chose.  Cheap: no
        schedule, simulation, or compiled artifact is copied.
        """
        with self._lock:
            entries = tuple((PlanOptions(*opts), sig) for opts, sig in self._entries)
            admission_state = None
            exporter = getattr(self.admission, "export_state", None)
            if exporter is not None:
                admission_state = exporter()
        return PlanCacheManifest(entries=entries, admission_state=admission_state)

    def restore(self, manifest: PlanCacheManifest) -> int:
        """Warm this cache from a predecessor's manifest; returns #restored.

        Each manifest entry is **re-planned** from its signature and
        options (planning is deterministic, so the restored plan is
        identical to the lost one), compiled into the compiled memo as
        :meth:`warm` compiles, and inserted directly -- bypassing both
        the admission policy (these keys already earned their slots)
        and the hit/miss statistics (a restore is not cache traffic).
        So a respawned shard's first request on a restored key pays
        neither planning nor compilation.  The admission filter's own
        state is imported first when both sides support it, so
        generation history survives the handoff.  Insertion preserves
        the manifest's LRU -> MRU order, truncated to this cache's
        capacity from the cold end.
        """
        from repro.kernels.compiled import compiled_plan_for

        if manifest.admission_state is not None and self.admission is not None:
            importer = getattr(self.admission, "import_state", None)
            if importer is not None:
                importer(manifest.admission_state)
        restored = 0
        # Keep the warmest keys when the manifest outsizes the cache.
        entries = manifest.entries[-self.capacity :]
        for opts, sig in entries:
            resolved = self.framework.resolve_options(None, opts)
            batch = GemmBatch(
                Gemm(m, n, k, trans_a=ta, trans_b=tb) for m, n, k, ta, tb in sig
            )
            report = self.framework.plan(batch, options=resolved)
            key = (resolved.cache_key(), sig)
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    continue
                self._entries[key] = report
                if len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
            compiled_plan_for(report.schedule, batch)
            restored += 1
        return restored

    def stats_snapshot(self) -> CacheStats:
        """A consistent copy of the counters (safe to read under churn)."""
        with self._lock:
            return CacheStats(
                hits=self.stats.hits,
                misses=self.stats.misses,
                evictions=self.stats.evictions,
                admission_deferred=self.stats.admission_deferred,
            )

    def execute(
        self,
        batch: GemmBatch,
        operands,
        heuristic: HeuristicLike = None,
        *,
        options: Optional[PlanOptions] = None,
        policy=None,
    ):
        """Numerically execute a batch through its cached plan.

        Takes the same ``policy`` -- an
        :class:`~repro.kernels.ExecutionPolicy` -- as
        :meth:`CoordinatedFramework.execute` and runs the same
        post-plan step; only the plan comes from the cache.  Repeated
        executions of a hot batch skip planning, and the ``compiled``
        engine finds its artifact memoized per cached schedule, so they
        skip compilation too.

        The cache lookup is **dtype-qualified**: when neither the
        options nor the policy pin a precision, the operands' storage
        dtype decides (``float16`` operands imply fp16), so an fp16
        submission can never hit -- let alone execute through -- a
        cached fp32 plan.
        """
        from repro.kernels import ExecutionPolicy

        pol = ExecutionPolicy.of(policy)
        opts = self.framework._execution_options(heuristic, options, operands, pol)
        report, _ = self.plan_with_info(batch, options=opts)
        return self.framework._execute_plan(
            report.schedule, batch, operands, pol, opts
        )

    def clear(self) -> None:
        """Drop every cached plan (statistics are kept)."""
        with self._lock:
            self._entries.clear()
