"""Process-based parallel execution over shared-memory operand arenas.

The thread-pool engine (:mod:`repro.kernels.parallel`) applies
Stream-K's work-centric decomposition host-side, but its workers are
threads: every shard pays Python dispatch under one GIL, and on a
contended host the coordinator thread fights its own workers for the
interpreter.  ``BENCH_parallel.json`` records the honest result --
*slower* than serial grouped at 4 workers on a small host.  This
module keeps the shard planner (the FLOP-balanced splitting is reused
from ``parallel.py`` verbatim) and replaces the executor substrate:

* a **persistent worker-process pool** (``ProcessPoolExecutor`` over a
  ``forkserver``/``spawn`` context, one pool per size, reused for the
  life of the process so repeated executions never pay process-start
  latency);
* **shared-memory operand arenas** (:mod:`multiprocessing.shared_memory`)
  -- the float64 ``op(A)``/``op(B)`` stagings, the per-``(gemm, BK)``
  accumulators, the split-shard chunk stacks, the C operands and the
  outputs all live in one named segment, so workers receive only tiny
  ``(arena name, shard descriptor)`` task tuples and never a matrix
  crosses a pipe;
* per-execute the coordinator stages operands into the arena **once**,
  workers compute their BK-chunk / epilogue shards with fat GIL-free
  BLAS calls (the :mod:`repro.kernels.blas` loop) straight into their
  arena slabs, and the coordinator merges split-product chunk slabs
  into the shared accumulator **in ascending chunk order** -- replaying
  the grouped engine's exact addition sequence, so outputs stay
  byte-identical to :func:`repro.kernels.grouped.execute_grouped` (and
  therefore to the reference walk) at every worker count.

**Warm serve.**  The arena, the shard plan, the slab layout and the
pre-built product tasks form a :class:`ProcpoolRuntime`, memoized per
``(schedule, batch shapes, workers)`` in a bounded weakref
:class:`~repro.kernels.memo.PlanMemo` -- a schedule pinned by a
:class:`~repro.core.plancache.PlanCache` entry keeps its arena
allocated across executions (operand *bytes* are restaged per call,
the segment itself is reused), so warm serve pays zero arena setup.

**Break-even.**  Process dispatch costs real IPC (task pickling, a
queue round trip, page faults on first touch), so batches whose total
product work is below :data:`MIN_PROCPOOL_FLOPS` execute serially
through the grouped engine instead (bit-identical either way; the
``procpool.serial_fallbacks`` counter records it).  The engine
registry exposes this threshold as a capability
(:attr:`~repro.kernels.engine.EngineCapabilities.min_work_flops`).

**Failure containment.**  A worker death breaks the pool
(``BrokenProcessPool``): every surviving worker of that pool is
terminated by the executor, the pool is retired (its registry slot is
freed and its ``generation`` is never reissued), and the execute
raises :class:`ProcpoolWorkerDied` -- an ordinary engine failure, so
the reliability chain (``procpool`` -> ``compiled`` -> ``grouped`` ->
``reference``) counts it into the breaker and degrades.  The next
procpool execute builds a **fresh pool generation**; stale results
cannot leak across the restart because (a) a broken pool's processes
are all dead before it is retired, and (b) every slab a worker writes
(accumulators, chunk stacks, outputs) is fully re-staged or re-written
by the current execute's own futures before the coordinator reads it.
Aborts that leave workers *alive* (a worker exception, cancellation,
``KeyboardInterrupt``) drain still-running shard futures before the
execute re-raises; if a straggler outlasts the bounded drain the
runtime is discarded and its arena unlinked, so a retry builds a
fresh segment the straggler cannot touch.  Concurrent executes of the
same ``(schedule, shapes, workers)`` share one memoized runtime and
serialize on its lock -- server worker threads racing a hot schedule
queue up instead of corrupting each other's slabs.

**Arena hygiene.**  Segments are tracked three ways: a
``weakref.finalize`` per arena unlinks it when its runtime is dropped
or evicted, an ``atexit`` sweep unlinks anything still registered at
interpreter exit, and the stdlib ``resource_tracker`` (a separate
process) unlinks leaked segments if the coordinator dies without
running either.  Workers attach segments *without* re-registering
ownership, so a worker's exit never unlinks a live arena.  The test
suite asserts ``/dev/shm`` holds no ``repro-pp-*`` entries after
normal close, coordinator crash, and worker kill.

Telemetry (coordinator thread only): an ``execute.procpool`` span with
shard/arena/generation attributes, ``procpool.workers`` /
``procpool.shard_imbalance`` / ``procpool.arena_bytes`` /
``procpool.ipc_us`` gauges, and ``procpool.serial_fallbacks`` /
``procpool.pool_restarts`` counters.

This module builds on :mod:`repro.kernels.grouped` (lowering,
epilogue) and :mod:`repro.kernels.parallel` (shard planning) but never
imports :mod:`repro.kernels.persistent` -- the oracle stays
independent (CI guards this).
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import time
import warnings
import weakref
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from multiprocessing import shared_memory as _shm
from typing import Any, Optional, Sequence

import numpy as np

from repro.core.problem import GemmBatch, validate_operands
from repro.core.schedule import BatchSchedule
from repro.core.tiling import strategy_by_index
from repro.kernels.blas import ChunkLoop, chunk_ranges
from repro.kernels.grouped import (
    GroupedPlan,
    TileGroup,
    _batch_token,
    _check_coverage,
    _epilogue_group,
    grouped_plan_for,
)
from repro.kernels.memo import MemoStats, PlanMemo
from repro.kernels.parallel import (
    MAX_AUTO_WORKERS,
    ShardPlan,
    _imbalance,
    plan_shards,
)
from repro.telemetry import get_tracer

__all__ = [
    "ARENA_PREFIX",
    "MIN_PROCPOOL_FLOPS",
    "PROCPOOL_WORKERS_ENV_VAR",
    "START_METHOD_ENV_VAR",
    "Arena",
    "ProcpoolRuntime",
    "ProcpoolWorkerDied",
    "clear_procpool_runtimes",
    "execute_procpool",
    "live_arena_names",
    "procpool_memo_stats",
    "procpool_runtime_for",
    "procpool_status",
    "resolve_procpool_workers",
    "shared_procpool",
    "shutdown_procpools",
]

#: Shared-memory segment names start with this (``/dev/shm`` hygiene
#: tests and the atexit sweep key on it).
ARENA_PREFIX = "repro-pp"

#: Below this many total product FLOPs the process pool cannot win --
#: IPC dispatch alone outweighs the matmul work -- so ``execute_procpool``
#: degenerates to the serial grouped engine (bit-identical either way).
MIN_PROCPOOL_FLOPS = 1e7

#: Environment override for the default worker-process count.  Falls
#: back to ``REPRO_PARALLEL_WORKERS`` (the thread engine's knob) so CI
#: can pin both engines with one variable.
PROCPOOL_WORKERS_ENV_VAR = "REPRO_PROCPOOL_WORKERS"

#: Environment override for the multiprocessing start method
#: (``forkserver`` where available, else ``spawn``).
START_METHOD_ENV_VAR = "REPRO_PROCPOOL_START"

#: Arena slabs are aligned to this many bytes so BLAS sees the same
#: alignment class it would on fresh heap allocations.
_SLAB_ALIGN = 64


class ProcpoolWorkerDied(RuntimeError):
    """A worker process died mid-execute; the pool was retired.

    Raised as an ordinary engine failure: the reliability layer counts
    it into the ``procpool`` circuit breaker and falls back along
    ``procpool`` -> ``compiled`` -> ``grouped`` -> ``reference``.  The
    next procpool execute starts a fresh pool generation.
    """


# -- worker sizing ---------------------------------------------------


def resolve_procpool_workers(workers: Optional[int] = None) -> int:
    """Normalize a worker-process spec to a concrete pool size.

    ``None`` reads :data:`PROCPOOL_WORKERS_ENV_VAR` (falling back to
    ``REPRO_PARALLEL_WORKERS``); a malformed or non-positive value is a
    ``ValueError`` naming the variable, never a traceback from ``int``.
    Unset, the pool sizes to the host: ``min(cpu_count,
    MAX_AUTO_WORKERS)``.  Environment-sourced values are **clamped** to
    the host CPU count (a deploy config asking for more processes than
    cores only adds contention); explicit ``workers=`` arguments are
    honoured but emit a ``RuntimeWarning`` when they oversubscribe the
    host, so benchmarks can still measure oversubscription on purpose.
    """
    cpus = os.cpu_count() or 1
    if workers is None:
        for var in (PROCPOOL_WORKERS_ENV_VAR, "REPRO_PARALLEL_WORKERS"):
            env = os.environ.get(var)
            if env:
                try:
                    value = int(env)
                except ValueError:
                    raise ValueError(
                        f"{var}={env!r} is not a positive integer "
                        f"(set it to a number of worker processes)"
                    ) from None
                if value < 1:
                    raise ValueError(
                        f"{var}={env!r} must be a positive integer, "
                        f"got {value}"
                    )
                if value > cpus:
                    _warn_oversubscribed(var, value, cpus, clamped=True)
                    value = cpus
                return value
        return min(MAX_AUTO_WORKERS, cpus)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > cpus:
        _warn_oversubscribed("workers", workers, cpus, clamped=False)
    return workers


_WARNED_OVERSUBSCRIBED: set = set()


def _warn_oversubscribed(source: str, value: int, cpus: int, clamped: bool) -> None:
    key = (source, value, clamped)
    if key in _WARNED_OVERSUBSCRIBED:
        return
    _WARNED_OVERSUBSCRIBED.add(key)
    action = f"clamping to {cpus}" if clamped else "honouring it anyway"
    warnings.warn(
        f"{source}={value} oversubscribes this host ({cpus} CPU(s)); {action}",
        RuntimeWarning,
        stacklevel=3,
    )


# -- shared-memory arenas --------------------------------------------

_ARENA_COUNTER = itertools.count()
_LIVE_ARENAS: dict[str, _shm.SharedMemory] = {}
_ARENAS_LOCK = threading.Lock()


def _release_segment(name: str, seg: _shm.SharedMemory) -> None:
    """Unlink (always) then close (best effort) one segment."""
    with _ARENAS_LOCK:
        _LIVE_ARENAS.pop(name, None)
    try:
        seg.unlink()
    except FileNotFoundError:
        pass
    try:
        seg.close()
    except BufferError:  # a view outlived the arena; the unlink stands
        pass


@atexit.register
def _sweep_arenas() -> None:
    """Last line of in-process defense: unlink anything still live."""
    with _ARENAS_LOCK:
        leftovers = list(_LIVE_ARENAS.items())
        _LIVE_ARENAS.clear()
    for name, seg in leftovers:
        try:
            seg.unlink()
        except FileNotFoundError:
            pass
        try:
            seg.close()
        except BufferError:
            pass


def live_arena_names() -> list[str]:
    """Names of every arena this process currently owns (tests)."""
    with _ARENAS_LOCK:
        return sorted(_LIVE_ARENAS)


class Arena:
    """One named shared-memory segment with aligned ndarray slabs.

    The coordinator creates arenas (``create=True`` registers the name
    with the stdlib resource tracker, which unlinks it even if this
    process dies uncleanly); a ``weakref.finalize`` unlinks the segment
    as soon as the owning :class:`ProcpoolRuntime` is dropped.  Views
    are created on demand and never cached, so cleanup cannot trip on
    exported buffers.
    """

    def __init__(self, size: int):
        name = f"{ARENA_PREFIX}-{os.getpid()}-{next(_ARENA_COUNTER)}"
        self.shm = _shm.SharedMemory(name=name, create=True, size=max(size, 1))
        self.name = self.shm.name.lstrip("/")
        self.size = size
        with _ARENAS_LOCK:
            _LIVE_ARENAS[self.name] = self.shm
        self._finalizer = weakref.finalize(
            self, _release_segment, self.name, self.shm
        )

    def view(self, offset: int, shape: tuple, dtype: Any = np.float64) -> np.ndarray:
        """A zero-copy ndarray over one slab of the segment."""
        return np.ndarray(shape, dtype=dtype, buffer=self.shm.buf, offset=offset)

    def close(self) -> None:
        """Unlink the segment now (idempotent)."""
        self._finalizer()


# -- the pinned runtime ----------------------------------------------


@dataclass(frozen=True)
class _ProductTask:
    """One product shard, addressed entirely inside the arena.

    ``stack`` is ``None`` for an unsplit shard (the worker accumulates
    straight into the shared ``acc`` slab in ascending chunk order,
    exactly the grouped engine's loop); a split shard writes its
    unaccumulated chunk products into its ``stack`` slab for the
    coordinator's ordered merge.
    """

    arena: str
    gemm_index: int
    bk: int
    k: int
    chunk_lo: int
    chunk_hi: int
    a: tuple[int, tuple[int, int]]
    b: tuple[int, tuple[int, int]]
    acc: tuple[int, tuple[int, int]]
    stack: Optional[tuple[int, tuple[int, int, int]]]


@dataclass(frozen=True)
class _EpilogueSpec:
    """Per-runtime template of one epilogue shard (no live-batch data)."""

    gemm_index: int
    strategy_index: int
    interior: bool
    y0: np.ndarray
    x0: np.ndarray
    acc: tuple[int, tuple[int, int]]
    c: tuple[int, tuple[int, int]]
    out: tuple[int, tuple[int, int]]


@dataclass(frozen=True)
class _EpilogueTask:
    """One epilogue shard plus the live batch's alpha/beta and dtype."""

    arena: str
    spec: _EpilogueSpec
    gemm: Any
    c_dtype: str


@dataclass(frozen=True)
class ProcpoolRuntime:
    """Everything one schedule needs to execute on the process pool.

    Built once per ``(schedule, batch shapes, workers)`` and memoized:
    the arena (operand stagings, accumulators, chunk stacks, outputs),
    the FLOP-balanced :class:`~repro.kernels.parallel.ShardPlan`, the
    slab layout, and the pre-built product tasks.  Coverage is
    validated here, once -- executes never re-check.  Epilogue *specs*
    are templates; alpha/beta and the C dtype come from the live batch
    at execute time (the plan cache's signature excludes them).

    Because the runtime is shared (the memo hands the same instance to
    every caller with the same key), ``lock`` serializes executes over
    it: server worker threads racing the same schedule would otherwise
    stage, zero and merge into the *same* slabs concurrently and
    silently corrupt each other's outputs.
    """

    batch_token: tuple
    workers: int
    shard_plan: ShardPlan
    arena: Arena = field(repr=False)
    slabs: dict = field(repr=False)
    product_tasks: tuple[_ProductTask, ...] = field(repr=False)
    epilogue_specs: tuple[_EpilogueSpec, ...] = field(repr=False)
    total_flops: float = 0.0
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def arena_bytes(self) -> int:
        return self.arena.size

    @property
    def num_shards(self) -> int:
        return self.shard_plan.num_shards


def _build_runtime(
    schedule: BatchSchedule, batch: GemmBatch, workers: int
) -> ProcpoolRuntime:
    plan = grouped_plan_for(schedule, batch)
    _check_coverage(plan, batch)  # once per runtime, never per execute
    shard_plan = plan_shards(plan, batch, workers)

    slabs: dict[str, tuple[int, tuple]] = {}
    cursor = 0

    def slab(key: str, shape: tuple) -> tuple[int, tuple]:
        nonlocal cursor
        cursor = (cursor + _SLAB_ALIGN - 1) & ~(_SLAB_ALIGN - 1)
        slabs[key] = (cursor, shape)
        cursor += int(np.prod(shape)) * 8  # float64 / max-width element
        return slabs[key]

    gemm_ids = sorted({s.gemm_index for s in shard_plan.products})
    for gi in gemm_ids:
        g = batch[gi]
        slab(f"a:{gi}", (g.m, g.k))
        slab(f"b:{gi}", (g.k, g.n))
        slab(f"c:{gi}", (g.m, g.n))
        slab(f"out:{gi}", (g.m, g.n))
    for s in shard_plan.products:
        g = batch[s.gemm_index]
        key = f"acc:{s.gemm_index}:{s.bk}"
        if key not in slabs:
            slab(key, (g.m, g.n))
    for j, s in enumerate(shard_plan.products):
        if s.split:
            g = batch[s.gemm_index]
            slab(f"stack:{j}", (s.chunk_hi - s.chunk_lo, g.m, g.n))

    arena = Arena(cursor)
    total_flops = sum(s.flops for s in shard_plan.products)

    product_tasks = tuple(
        _ProductTask(
            arena=arena.name,
            gemm_index=s.gemm_index,
            bk=s.bk,
            k=batch[s.gemm_index].k,
            chunk_lo=s.chunk_lo,
            chunk_hi=s.chunk_hi,
            a=slabs[f"a:{s.gemm_index}"],
            b=slabs[f"b:{s.gemm_index}"],
            acc=slabs[f"acc:{s.gemm_index}:{s.bk}"],
            stack=slabs.get(f"stack:{j}") if s.split else None,
        )
        for j, s in enumerate(shard_plan.products)
    )
    epilogue_specs = tuple(
        _EpilogueSpec(
            gemm_index=e.gemm_index,
            strategy_index=e.group.strategy_index,
            interior=e.group.interior,
            y0=e.group.y0[e.tile_lo : e.tile_hi],
            x0=e.group.x0[e.tile_lo : e.tile_hi],
            acc=slabs[
                f"acc:{e.gemm_index}:"
                f"{strategy_by_index(e.group.strategy_index).bk}"
            ],
            c=slabs[f"c:{e.gemm_index}"],
            out=slabs[f"out:{e.gemm_index}"],
        )
        for e in shard_plan.epilogues
    )
    return ProcpoolRuntime(
        batch_token=plan.batch_token,
        workers=workers,
        shard_plan=shard_plan,
        arena=arena,
        slabs=slabs,
        product_tasks=product_tasks,
        epilogue_specs=epilogue_specs,
        total_flops=total_flops,
    )


#: Bounded memo of pinned runtimes.  Small on purpose: each entry owns
#: a real shared-memory segment, and eviction unlinks it.
_RUNTIME_MEMO = PlanMemo(capacity=8, name="procpool")


def procpool_runtime_for(
    schedule: BatchSchedule, batch: GemmBatch, workers: int
) -> ProcpoolRuntime:
    """The memoized pinned runtime of ``(schedule, batch shapes, workers)``.

    A schedule held by a :class:`~repro.core.plancache.PlanCache` keeps
    its arena allocated across warm executions; an evicted or dropped
    schedule releases the segment via the arena finalizer.
    """
    token = (_batch_token(batch), workers)
    cached = _RUNTIME_MEMO.get(schedule, token)
    if cached is not None:
        return cached
    return _RUNTIME_MEMO.put(schedule, token, _build_runtime(schedule, batch, workers))


def procpool_memo_stats() -> MemoStats:
    """Hit/miss/eviction counters of the runtime memo."""
    return _RUNTIME_MEMO.stats_snapshot()


def clear_procpool_runtimes() -> None:
    """Drop every pinned runtime and unlink their arenas now.

    Eagerly closes each arena instead of waiting for refcounts -- a
    stray traceback or REPL binding holding a runtime alive must not
    keep its shared-memory segment on disk (the atexit sweep and
    resource tracker would still catch it, but tests assert promptly).
    """
    with _RUNTIME_MEMO._lock:
        runtimes = [artifact for (_, _, artifact) in _RUNTIME_MEMO._entries.values()]
        _RUNTIME_MEMO.clear()
    for runtime in runtimes:
        runtime.arena.close()


# -- the worker side (runs in the pool processes) --------------------

#: Attached segments, LRU-bounded; evicted handles are closed.  The
#: attach does NOT re-register ownership with the resource tracker --
#: the coordinator owns the segment, so a worker exiting must never
#: unlink a live arena.
_WORKER_SEGMENTS: "OrderedDict[str, _shm.SharedMemory]" = OrderedDict()
_WORKER_SEGMENT_CAP = 8


def _worker_segment(name: str) -> _shm.SharedMemory:
    seg = _WORKER_SEGMENTS.get(name)
    if seg is not None:
        _WORKER_SEGMENTS.move_to_end(name)
        return seg
    seg = _shm.SharedMemory(name=name)
    _WORKER_SEGMENTS[name] = seg
    while len(_WORKER_SEGMENTS) > _WORKER_SEGMENT_CAP:
        _, old = _WORKER_SEGMENTS.popitem(last=False)
        try:
            old.close()
        except BufferError:  # pragma: no cover - view still exported
            pass
    return seg


def _worker_view(name: str, slab: tuple, dtype: Any = np.float64) -> np.ndarray:
    offset, shape = slab
    return np.ndarray(shape, dtype=dtype, buffer=_worker_segment(name).buf, offset=offset)


def _run_product_task(task: _ProductTask) -> tuple[int, float]:
    """Execute one product shard inside a worker process.

    An unsplit shard runs the grouped engine's exact loop -- one BLAS
    call per BK chunk, accumulated straight into the shared accumulator
    slab in ascending chunk order (this worker is that accumulator's
    only writer).  A split shard writes each chunk's product into its
    own stack slice *unaccumulated*: pre-summing here would
    re-associate the float addition sequence and break bit-exactness,
    so the ordered merge belongs to the coordinator.
    """
    t0 = time.perf_counter()
    a64 = _worker_view(task.arena, task.a)
    b64 = _worker_view(task.arena, task.b)
    if task.stack is None:
        acc = _worker_view(task.arena, task.acc)
        ChunkLoop(acc, a64, b64, chunk_ranges(task.k, task.bk)).run()
    else:
        stack = _worker_view(task.arena, task.stack)
        chunks = chunk_ranges(task.k, task.bk, task.chunk_lo, task.chunk_hi)
        for product, chunk in zip(stack, chunks):
            ChunkLoop(product, a64, b64, (chunk,)).run()
    return os.getpid(), time.perf_counter() - t0


def _run_epilogue_task(task: _EpilogueTask) -> tuple[int, float]:
    """Apply one tile-range slice of an alpha/beta epilogue in a worker.

    Reads the merged accumulator and the staged C operand from the
    arena, writes the output window slab -- elementwise over disjoint
    windows, so shard boundaries cannot change any element's
    arithmetic.
    """
    t0 = time.perf_counter()
    spec = task.spec
    dtype = np.dtype(task.c_dtype)
    acc = _worker_view(task.arena, spec.acc)
    c = _worker_view(task.arena, spec.c, dtype)
    out = _worker_view(task.arena, spec.out, dtype)
    sub = TileGroup(
        gemm_index=spec.gemm_index,
        strategy_index=spec.strategy_index,
        interior=spec.interior,
        y0=spec.y0,
        x0=spec.x0,
    )
    strat = strategy_by_index(spec.strategy_index)
    _epilogue_group(sub, task.gemm, acc, c, out, strat)
    return os.getpid(), time.perf_counter() - t0


# -- the persistent pool ---------------------------------------------


class ProcPool:
    """One persistent worker-process pool of a fixed size."""

    __slots__ = ("executor", "workers", "generation", "alive")

    def __init__(self, executor: ProcessPoolExecutor, workers: int, generation: int):
        self.executor = executor
        self.workers = workers
        self.generation = generation
        self.alive = True


_PROC_POOLS: dict[int, ProcPool] = {}
#: Tombstones of retired (broken) pools, keyed by size like the live
#: registry.  A tombstone stays visible to :func:`procpool_status`
#: until a fresh generation of that size is created, so health
#: endpoints can actually observe a dead, not-yet-replaced pool.
_RETIRED_POOLS: dict[int, ProcPool] = {}
_POOLS_LOCK = threading.Lock()
_GENERATIONS = itertools.count(1)
_RESTARTS = 0


def _start_method() -> str:
    method = os.environ.get(START_METHOD_ENV_VAR)
    if method:
        return method
    return "forkserver" if "forkserver" in get_all_start_methods() else "spawn"


def _make_executor(workers: int) -> ProcessPoolExecutor:
    method = _start_method()
    ctx = get_context(method)
    if method == "forkserver":
        try:
            # Pre-import numpy + this module in the fork server so each
            # worker forks warm instead of re-importing per process.
            ctx.set_forkserver_preload(["repro.kernels.procpool"])
        except Exception:  # pragma: no cover - preload is best-effort
            pass
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)


def shared_procpool(workers: int) -> ProcPool:
    """The persistent process pool for ``workers`` processes.

    Pools are created lazily, one per distinct size, and reused for the
    life of the process -- warm executions never pay process start or
    interpreter import.  A pool broken by worker death is replaced on
    the next call with a fresh generation.
    """
    workers = resolve_procpool_workers(workers)
    with _POOLS_LOCK:
        pool = _PROC_POOLS.get(workers)
        if pool is None:
            pool = ProcPool(_make_executor(workers), workers, next(_GENERATIONS))
            _PROC_POOLS[workers] = pool
            # A fresh generation supersedes this size's tombstone.
            _RETIRED_POOLS.pop(workers, None)
        return pool


def _retire_pool(pool: ProcPool) -> None:
    """Drop a broken pool so the next execute gets a fresh generation.

    The pool leaves the live registry but stays visible to
    :func:`procpool_status` as a tombstone until a new generation of
    its size replaces it.
    """
    global _RESTARTS
    with _POOLS_LOCK:
        if _PROC_POOLS.get(pool.workers) is pool:
            del _PROC_POOLS[pool.workers]
            _RETIRED_POOLS[pool.workers] = pool
            _RESTARTS += 1
        pool.alive = False
    pool.executor.shutdown(wait=False, cancel_futures=True)


def shutdown_procpools() -> None:
    """Shut down every live pool (test isolation helper)."""
    with _POOLS_LOCK:
        pools = list(_PROC_POOLS.values())
        _PROC_POOLS.clear()
        _RETIRED_POOLS.clear()
    for pool in pools:
        pool.alive = False
        pool.executor.shutdown(wait=True, cancel_futures=True)


def procpool_status() -> dict:
    """Pool liveness for health endpoints (JSON-compatible).

    ``alive`` is ``False`` only when pools have existed and every one
    of them is currently broken -- i.e. at least one retired pool has
    not yet been replaced by a fresh generation and no live pool
    exists.  An idle process with no pools yet is healthy.  Retired
    pools appear in ``pools`` with ``"retired": True`` until their
    size is recreated.
    """
    with _POOLS_LOCK:
        entries = [
            {
                "workers": p.workers,
                "generation": p.generation,
                "alive": p.alive,
                "retired": False,
            }
            for p in _PROC_POOLS.values()
        ] + [
            {
                "workers": p.workers,
                "generation": p.generation,
                "alive": False,
                "retired": True,
            }
            for p in _RETIRED_POOLS.values()
        ]
        restarts = _RESTARTS
    return {
        "alive": any(p["alive"] for p in entries) if entries else True,
        "pools": sorted(entries, key=lambda p: (p["workers"], p["generation"])),
        "restarts": restarts,
        "live_arenas": len(live_arena_names()),
    }


# -- the engine ------------------------------------------------------


def execute_procpool(
    schedule: BatchSchedule,
    batch: GemmBatch,
    operands: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    plan: GroupedPlan | None = None,
    *,
    workers: Optional[int] = None,
    min_flops: Optional[float] = None,
) -> list[np.ndarray]:
    """Execute a batch schedule across the worker-process pool.

    Drop-in for :func:`repro.kernels.grouped.execute_grouped`
    (byte-identical outputs at every worker count; inputs are not
    modified; the same ``ValueError``/``IndexError`` contract).
    ``workers`` sizes the pool (see :func:`resolve_procpool_workers`);
    ``min_flops`` overrides the serial break-even threshold
    (:data:`MIN_PROCPOOL_FLOPS`; pass ``0`` to force the process path,
    as the equivalence suite does).  Raises
    :class:`ProcpoolWorkerDied` when a worker process dies mid-run.
    """
    workers = resolve_procpool_workers(workers)
    tracer = get_tracer()
    with tracer.span(
        "execute.procpool",
        blocks=schedule.num_blocks,
        tiles=schedule.num_tiles,
        workers=workers,
    ) as span:
        tracer.counter("tiles_executed", schedule.num_tiles)
        outputs, info = _execute_procpool(
            schedule, batch, operands, plan, workers, min_flops
        )
        tracer.gauge("procpool.workers", workers)
        if span.enabled:
            for key, value in info.items():
                span.set_attr(key, value)
        if not info.get("serial"):
            tracer.gauge("procpool.shard_imbalance", info["imbalance"])
            tracer.gauge("procpool.arena_bytes", info["arena_bytes"])
            tracer.gauge("procpool.ipc_us", info["ipc_us"])
    return outputs


def _supported_operands(operands) -> bool:
    """Whether every operand can round-trip the arena byte views.

    All three matrices are checked: an exotic A or B (complex,
    float128, object) would make the staging ``np.copyto`` raise under
    same-kind casting, whereas the grouped engine casts and succeeds --
    the drop-in contract demands the grouped path handle those too.
    """
    return all(
        arr.dtype.kind in "fiu" and arr.dtype.itemsize <= 8
        for op in operands
        for arr in op
    )


def _execute_procpool(
    schedule: BatchSchedule,
    batch: GemmBatch,
    operands: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    plan: GroupedPlan | None,
    workers: int,
    min_flops: Optional[float],
) -> tuple[list[np.ndarray], dict]:
    validate_operands(batch, operands)
    if plan is None or plan.batch_token != _batch_token(batch):
        plan = grouped_plan_for(schedule, batch)

    tracer = get_tracer()
    threshold = MIN_PROCPOOL_FLOPS if min_flops is None else min_flops
    total_flops = sum(
        2.0 * batch[g.gemm_index].m * batch[g.gemm_index].n * batch[g.gemm_index].k
        for g in {
            (grp.gemm_index, strategy_by_index(grp.strategy_index).bk): grp
            for grp in plan.groups
        }.values()
    )
    if total_flops < threshold or not _supported_operands(operands):
        # Below break-even (or exotic dtype): the grouped engine is the
        # faster -- and still bit-identical -- executor.
        from repro.kernels.grouped import execute_grouped

        tracer.counter("procpool.serial_fallbacks")
        outputs = execute_grouped(schedule, batch, operands, plan)
        return outputs, {"serial": True, "total_flops": total_flops}

    runtime = procpool_runtime_for(schedule, batch, workers)
    # The memo hands the SAME runtime (arena included) to every caller
    # with this (schedule, shapes, workers) key -- server worker
    # threads race it.  Hold the runtime lock across the whole
    # stage -> submit -> merge -> copy-out window so concurrent
    # executes serialize instead of interleaving writes into the same
    # slabs.
    with runtime.lock:
        return _execute_on_runtime(
            schedule, batch, operands, runtime, workers, total_flops
        )


#: How long an aborted execute waits for still-running shard futures
#: to drain before fencing the arena off (seconds).
_STRAGGLER_DRAIN_S = 30.0


def _drain_or_fence(
    schedule: BatchSchedule,
    runtime: ProcpoolRuntime,
    pending: set,
    timeout: float = _STRAGGLER_DRAIN_S,
) -> None:
    """Make the arena safe to reuse after an aborted execute.

    Cancelling only removes *queued* futures; a shard already running
    in a worker keeps writing its acc/stack slabs.  A retry on the
    memoized runtime would re-stage those same slabs, and the
    straggler's late write would corrupt the retry's result.  So:
    cancel what we can, wait (bounded) for the rest to finish, and if
    any shard is still running after the timeout -- or the wait itself
    is interrupted -- discard the runtime from the memo and unlink its
    arena, so the next execute builds a fresh segment the straggler
    has never heard of.
    """
    for fut in pending:
        fut.cancel()
    running = {fut for fut in pending if not fut.cancelled()}
    if not running:
        return
    quiescent = False
    try:
        _, stragglers = wait(running, timeout=timeout)
        quiescent = not stragglers
    except BaseException:  # e.g. a second KeyboardInterrupt mid-drain
        pass
    if not quiescent:
        _RUNTIME_MEMO.discard(schedule)
        runtime.arena.close()


def _execute_on_runtime(
    schedule: BatchSchedule,
    batch: GemmBatch,
    operands: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    runtime: ProcpoolRuntime,
    workers: int,
    total_flops: float,
) -> tuple[list[np.ndarray], dict]:
    tracer = get_tracer()
    pool = shared_procpool(workers)
    t_start = time.perf_counter()

    # -- stage operands into the arena (once per execute) ------------
    t0 = time.perf_counter()
    arena = runtime.arena
    staged_gemms = sorted({t.gemm_index for t in runtime.product_tasks})
    for gi in staged_gemms:
        gemm = batch[gi]
        a, b, c = operands[gi]
        np.copyto(arena.view(*runtime.slabs[f"a:{gi}"]), gemm.op_a(a))
        np.copyto(arena.view(*runtime.slabs[f"b:{gi}"]), gemm.op_b(b))
        off, shape = runtime.slabs[f"c:{gi}"]
        np.copyto(arena.view(off, shape, c.dtype), c)
    stage_s = time.perf_counter() - t0

    # -- submit product shards; merge split stacks in chunk order ----
    busy_by_pid: dict[int, float] = {}
    merge_s = 0.0
    pending: set[Future] = set()
    meta: dict[Future, tuple] = {}

    # Per (gemm, bk): how many shards remain, and the ordered merge
    # cursor over split stacks.
    shards_left: dict[tuple[int, int], int] = {}
    merge_next: dict[tuple[int, int], int] = {}
    chunk_hi_max: dict[tuple[int, int], int] = {}
    ready_stacks: dict[tuple[int, int], dict[int, _ProductTask]] = {}
    zeroed: set[tuple[int, int]] = set()
    products_left: dict[int, int] = {}
    epilogues_left = 0

    for task in runtime.product_tasks:
        key = (task.gemm_index, task.bk)
        shards_left[key] = shards_left.get(key, 0) + 1
        merge_next.setdefault(key, 0)
        chunk_hi_max[key] = max(chunk_hi_max.get(key, 0), task.chunk_hi)
        ready_stacks.setdefault(key, {})
        products_left[task.gemm_index] = products_left.get(task.gemm_index, 0) + 1

    specs_by_gemm: dict[int, list[_EpilogueSpec]] = {}
    for spec in runtime.epilogue_specs:
        specs_by_gemm.setdefault(spec.gemm_index, []).append(spec)

    def _submit(fn, tag, payload) -> None:
        fut = pool.executor.submit(fn, payload)
        meta[fut] = tag
        pending.add(fut)

    def _merge_ready(key: tuple[int, int]) -> float:
        """Fold finished stacks into the accumulator, ascending chunks."""
        t0 = time.perf_counter()
        gi, bk = key
        stacks = ready_stacks[key]
        acc = None
        while merge_next[key] in stacks:
            task = stacks.pop(merge_next[key])
            if acc is None:
                acc = arena.view(*task.acc)
            if key not in zeroed:
                acc.fill(0.0)
                zeroed.add(key)
            stack = arena.view(*task.stack)
            for i in range(task.chunk_hi - task.chunk_lo):
                np.add(acc, stack[i], out=acc)
            merge_next[key] = task.chunk_hi
        return time.perf_counter() - t0

    def _gemm_settled(gi: int) -> bool:
        if products_left[gi]:
            return False
        return all(
            merge_next[key] >= chunk_hi_max[key]
            for key in shards_left
            if key[0] == gi and ready_stacks[key] is not None
        )

    def _submit_epilogues(gi: int) -> int:
        gemm = batch[gi]
        dtype_name = operands[gi][2].dtype.str
        count = 0
        for spec in specs_by_gemm.get(gi, ()):
            _submit(
                _run_epilogue_task,
                ("epilogue", gi),
                _EpilogueTask(
                    arena=arena.name, spec=spec, gemm=gemm, c_dtype=dtype_name
                ),
            )
            count += 1
        return count

    try:
        for task in runtime.product_tasks:
            _submit(_run_product_task, ("product", task), task)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                pid, busy_s = fut.result()
                busy_by_pid[pid] = busy_by_pid.get(pid, 0.0) + busy_s
                tag = meta.pop(fut)
                if tag[0] == "product":
                    task = tag[1]
                    key = (task.gemm_index, task.bk)
                    if task.stack is None:
                        merge_next[key] = chunk_hi_max[key]
                    else:
                        ready_stacks[key][task.chunk_lo] = task
                        merge_s += _merge_ready(key)
                    shards_left[key] -= 1
                    products_left[task.gemm_index] -= 1
                    if _gemm_settled(task.gemm_index):
                        epilogues_left += _submit_epilogues(task.gemm_index)
                else:
                    epilogues_left -= 1
    except BrokenProcessPool as exc:
        _retire_pool(pool)
        tracer.counter("procpool.pool_restarts")
        raise ProcpoolWorkerDied(
            f"worker process died mid-execute (pool generation "
            f"{pool.generation} retired; a fresh pool starts on the next "
            f"procpool execute)"
        ) from exc
    except BaseException:
        # Worker exception / cancellation / KeyboardInterrupt: unlike
        # the broken-pool case the workers are still alive, so drain
        # (or fence off) their in-flight slab writes before a retry
        # can restage this arena.
        _drain_or_fence(schedule, runtime, pending)
        raise

    # -- copy outputs out of the arena -------------------------------
    t0 = time.perf_counter()
    outputs: list[np.ndarray] = []
    for gi, (gemm, op) in enumerate(zip(batch, operands)):
        if gi in products_left:
            off, shape = runtime.slabs[f"out:{gi}"]
            outputs.append(arena.view(off, shape, op[2].dtype).copy())
        else:  # a GEMM with no tiles assigned executes to zeros
            outputs.append(np.zeros((gemm.m, gemm.n), dtype=op[2].dtype))
    copyout_s = time.perf_counter() - t0

    wall_s = time.perf_counter() - t_start
    max_busy = max(busy_by_pid.values(), default=0.0)
    ipc_s = max(0.0, wall_s - stage_s - merge_s - copyout_s - max_busy)
    info = {
        "serial": False,
        "shards": runtime.num_shards,
        "generation": pool.generation,
        "arena_bytes": runtime.arena_bytes,
        "total_flops": total_flops,
        "imbalance": round(_imbalance(busy_by_pid, workers), 3),
        "ipc_us": round(ipc_s * 1e6, 1),
        "stage_us": round(stage_s * 1e6, 1),
        "merge_us": round(merge_s * 1e6, 1),
    }
    return outputs, info
