"""Multi-worker parallel execution engine for batch schedules.

The grouped engine (:mod:`repro.kernels.grouped`) collapsed the
per-tile interpreter overhead into a few bulk NumPy operations, but it
still runs every GEMM of the lowered :class:`GroupedPlan` serially on
one core.  ``np.matmul`` releases the GIL while BLAS runs, so a host
with idle cores leaves real throughput on the table -- exactly the
utilization gap Stream-K (Osama et al., see ``PAPERS.md``) closes on
the device with *work-centric* decomposition: split the aggregate
workload into even shares of work, not into per-problem units.

This module applies that idea host-side.  A lowered plan is decomposed
into **shards** sized by estimated FLOPs:

* one *product shard* per ``(gemm, BK)`` chunk-accumulated full
  product -- and when a single GEMM's product exceeds the even share
  ``total_flops / workers``, it is split along the BK-chunk axis into
  several shards of contiguous ascending chunk ranges (the Stream-K
  move: oversized work units are subdivided until every worker carries
  a comparable share, instead of round-robining whole GEMMs);
* one *epilogue shard* per tile-range slice of each
  :class:`~repro.kernels.grouped.TileGroup`, again split by even
  share when a group is large.

Shards execute on a process-shared
:class:`concurrent.futures.ThreadPoolExecutor` (threads, not
processes: the matmuls drop the GIL, operands are shared zero-copy).

**Bit-exactness contract.**  ``execute_parallel`` is bit-identical to
:func:`repro.kernels.grouped.execute_grouped` (and therefore to the
reference walk) at every worker count.  Floating-point addition is not
associative, so a shard must **not** pre-accumulate its chunk products
into a private partial sum -- ``(c0+c1)+(c2+c3)`` rounds differently
from ``((c0+c1)+c2)+c3``.  Three rules keep the engine exact:

* a product shard computes the *same full-width per-chunk products*
  the grouped engine computes, through the same
  :mod:`repro.kernels.blas` loop;
* a split product's chunk products are merged into the shared
  accumulator by the coordinating thread in ascending chunk order
  (deterministic shard-merge order), replaying the grouped engine's
  exact addition sequence;
* epilogue shards are elementwise over disjoint output windows, so
  tile-range splitting cannot change any element's arithmetic.

Because every write lands in a disjoint region and the merge order is
fixed, the outputs are also **deterministic**: two runs at any worker
count are byte-identical (CI replays this).

Telemetry is emitted only from the calling thread (the process-global
tracer is not thread-safe): an ``execute.parallel`` span wraps the
run, one ``parallel.shard`` span per shard carries the worker-side
``busy_ms`` measurement as an attribute, and the ``parallel.workers``
/ ``parallel.imbalance`` gauges record the pool size and the
max-over-mean per-worker busy-time ratio (1.0 = perfectly balanced).

This module builds on :mod:`repro.kernels.grouped` (the lowering and
the epilogue are shared) but deliberately never imports
:mod:`repro.kernels.persistent` -- the oracle stays independent.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Optional, Sequence

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
from repro.telemetry import get_tracer

#: Auto-sized pools never exceed this many threads (oversubscribing a
#: host with one BLAS-bound thread per core only adds contention).
MAX_AUTO_WORKERS = 8

#: Environment override for the default worker count (used by CI to
#: replay the equivalence suite at fixed pool sizes).
WORKERS_ENV_VAR = "REPRO_PARALLEL_WORKERS"

#: A product split never produces shards smaller than this many BK
#: chunks -- tiny shards pay more dispatch than they parallelize.
MIN_CHUNKS_PER_SHARD = 4

#: An epilogue split never produces shards smaller than this many tiles.
MIN_TILES_PER_SHARD = 8


def resolve_workers(workers: Optional[int] = None) -> int:
    """Normalize a worker-count spec to a concrete pool size.

    ``None`` reads :data:`WORKERS_ENV_VAR` when set, otherwise sizes
    to the host: ``min(cpu_count, MAX_AUTO_WORKERS)``.  A malformed or
    non-positive environment value raises ``ValueError`` naming the
    variable (never a bare ``int()`` traceback); explicit or
    environment counts above ``os.cpu_count()`` are honoured (threads
    share one GIL anyway, and CI replays fixed pool sizes on small
    hosts) but emit a one-shot ``RuntimeWarning``.  Raises
    ``ValueError`` for non-positive counts.
    """
    source = "workers"
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        if env:
            source = WORKERS_ENV_VAR
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV_VAR}={env!r} is not a positive integer "
                    f"(set it to a number of worker threads)"
                ) from None
            if workers < 1:
                raise ValueError(
                    f"{WORKERS_ENV_VAR}={env!r} must be a positive integer, "
                    f"got {workers}"
                )
        else:
            workers = min(MAX_AUTO_WORKERS, os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cpus = os.cpu_count() or 1
    if workers > cpus:
        _warn_oversubscribed(source, workers, cpus)
    return workers


_WARNED_OVERSUBSCRIBED: set = set()


def _warn_oversubscribed(source: str, value: int, cpus: int) -> None:
    key = (source, value)
    if key in _WARNED_OVERSUBSCRIBED:
        return
    _WARNED_OVERSUBSCRIBED.add(key)
    warnings.warn(
        f"{source}={value} oversubscribes this host ({cpus} CPU(s)); "
        f"honouring it, but thread counts above the core count only add "
        f"contention",
        RuntimeWarning,
        stacklevel=3,
    )


_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def shared_pool(workers: int) -> ThreadPoolExecutor:
    """The process-shared executor for ``workers`` threads.

    Pools are created lazily and reused for the life of the process --
    one pool per distinct size, shared by every caller (the engine,
    :meth:`PlanCache.warm`, and all of a server's worker threads), so
    repeated executions never pay thread-spawn latency and concurrent
    callers queue into the same bounded pool instead of oversubscribing
    the host.
    """
    workers = resolve_workers(workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-parallel-{workers}w"
            )
            _POOLS[workers] = pool
        return pool


def shutdown_pools() -> None:
    """Shut down every shared pool (test isolation helper)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


# -- work-centric shard planning -------------------------------------


@dataclass(frozen=True)
class ProductShard:
    """A contiguous ascending range of one product's BK chunks.

    ``chunk_lo``/``chunk_hi`` index the BK-chunk axis (chunk ``c``
    covers ``k in [c * bk, min((c+1) * bk, k))``).  ``split`` is False
    when the shard covers the whole product -- it then accumulates
    directly into the shared accumulator; a split shard instead
    returns its chunk products for the coordinator's ordered merge.
    """

    gemm_index: int
    bk: int
    chunk_lo: int
    chunk_hi: int
    split: bool
    flops: float


@dataclass(frozen=True)
class EpilogueShard:
    """A tile-range slice of one epilogue group."""

    gemm_index: int
    group: TileGroup
    tile_lo: int
    tile_hi: int
    cost: float


@dataclass(frozen=True)
class ShardPlan:
    """The work-centric decomposition of one grouped plan.

    A pure function of ``(plan, batch, workers)`` -- deterministic, so
    two executions of the same schedule shard identically.
    """

    workers: int
    products: tuple[ProductShard, ...]
    epilogues: tuple[EpilogueShard, ...]

    @property
    def num_shards(self) -> int:
        return len(self.products) + len(self.epilogues)

    def largest_product_share(self) -> float:
        """Largest product-shard share of total product FLOPs."""
        total = sum(s.flops for s in self.products)
        if not total:
            return 0.0
        return max(s.flops for s in self.products) / total


def plan_shards(plan: GroupedPlan, batch: GemmBatch, workers: int) -> ShardPlan:
    """Decompose a lowered plan into even-share work units.

    Product work is estimated at ``2 m n k`` FLOPs per ``(gemm, BK)``
    product; any product above the even share ``total / workers`` is
    split along the BK-chunk axis into ``ceil(flops / share)`` shards
    of contiguous chunk ranges (never smaller than
    :data:`MIN_CHUNKS_PER_SHARD` chunks).  Epilogue groups are split
    the same way along their tile axis.  With ``workers == 1``
    nothing is split -- the decomposition degenerates to one shard per
    product and per group.
    """
    by_gemm: dict[int, list[TileGroup]] = {}
    for group in plan.groups:
        by_gemm.setdefault(group.gemm_index, []).append(group)

    # Distinct (gemm, bk) products, mirroring the grouped engine's accs.
    product_specs: list[tuple[int, int, float, int]] = []  # gi, bk, flops, n_chunks
    for gi, groups in sorted(by_gemm.items()):
        gemm = batch[gi]
        for bk in sorted({strategy_by_index(g.strategy_index).bk for g in groups}):
            flops = 2.0 * gemm.m * gemm.n * gemm.k
            n_chunks = -(-gemm.k // bk)
            product_specs.append((gi, bk, flops, n_chunks))

    total_flops = sum(f for _, _, f, _ in product_specs)
    share = total_flops / workers if workers > 1 else float("inf")

    products: list[ProductShard] = []
    for gi, bk, flops, n_chunks in product_specs:
        n_shards = 1
        if workers > 1 and flops > share:
            n_shards = min(
                -(-int(flops) // max(1, int(share))),
                max(1, n_chunks // MIN_CHUNKS_PER_SHARD),
                workers,
            )
        if n_shards <= 1:
            products.append(ProductShard(gi, bk, 0, n_chunks, False, flops))
            continue
        base, extra = divmod(n_chunks, n_shards)
        lo = 0
        for i in range(n_shards):
            hi = lo + base + (1 if i < extra else 0)
            products.append(
                ProductShard(gi, bk, lo, hi, True, flops * (hi - lo) / n_chunks)
            )
            lo = hi

    total_tiles = sum(g.size for g in plan.groups)
    tile_share = total_tiles / workers if workers > 1 else float("inf")
    epilogues: list[EpilogueShard] = []
    for gi, groups in sorted(by_gemm.items()):
        for group in groups:
            strat = strategy_by_index(group.strategy_index)
            per_tile = strat.by * strat.bx
            n_shards = 1
            if workers > 1 and group.size > tile_share:
                n_shards = min(
                    -(-group.size // max(1, int(tile_share))),
                    max(1, group.size // MIN_TILES_PER_SHARD),
                    workers,
                )
            base, extra = divmod(group.size, n_shards)
            lo = 0
            for i in range(n_shards):
                hi = lo + base + (1 if i < extra else 0)
                epilogues.append(
                    EpilogueShard(gi, group, lo, hi, float((hi - lo) * per_tile))
                )
                lo = hi
    return ShardPlan(
        workers=workers, products=tuple(products), epilogues=tuple(epilogues)
    )


# -- the engine ------------------------------------------------------


class _GemmCtx:
    """Mutable per-GEMM execution state owned by the coordinator."""

    __slots__ = (
        "a64",
        "b64",
        "accs",
        "chunk_results",
        "merge_next",
        "chunk_counts",
        "products_pending",
        "epilogues_pending",
    )

    def __init__(self) -> None:
        self.a64: Optional[np.ndarray] = None
        self.b64: Optional[np.ndarray] = None
        self.accs: dict[int, np.ndarray] = {}
        # bk -> {chunk_lo: [chunk products]} awaiting the ordered merge
        self.chunk_results: dict[int, dict[int, list[np.ndarray]]] = {}
        # bk -> next chunk index the merge expects
        self.merge_next: dict[int, int] = {}
        # bk -> total chunk count
        self.chunk_counts: dict[int, int] = {}
        self.products_pending = 0
        self.epilogues_pending = 0


def _prep_gemm(ctx: _GemmCtx, gemm, a, b, bks: Sequence[int], m: int, n: int) -> float:
    """Stage float64 operands and zeroed accumulators for one GEMM."""
    t0 = time.perf_counter()
    # Exact float32 -> float64 widening, identical to the grouped engine.
    ctx.a64 = np.ascontiguousarray(gemm.op_a(a), dtype=np.float64)
    ctx.b64 = np.ascontiguousarray(gemm.op_b(b), dtype=np.float64)
    for bk in bks:
        ctx.accs[bk] = np.zeros((m, n), dtype=np.float64)
    return time.perf_counter() - t0


def _run_product_shard(
    ctx: _GemmCtx, shard: ProductShard, k: int
) -> tuple[Optional[list[np.ndarray]], float]:
    """Execute one product shard; returns (chunk products | None, busy_s).

    An unsplit shard accumulates straight into the shared accumulator
    (it is that accumulator's only writer) with the grouped engine's
    exact per-chunk loop.  A split shard returns its chunk products
    unaccumulated, stacked in one ``(chunks, m, n)`` buffer (a single
    allocation, one product per slice) -- the coordinator merges
    them into the accumulator in ascending chunk order, because
    pre-accumulating here would re-associate the float sum and break
    bit-exactness.
    """
    t0 = time.perf_counter()
    a64, b64 = ctx.a64, ctx.b64
    bk = shard.bk
    if not shard.split:
        ChunkLoop(ctx.accs[bk], a64, b64, chunk_ranges(k, bk)).run()
        return None, time.perf_counter() - t0
    m, n = ctx.accs[bk].shape
    chunks = chunk_ranges(k, bk, shard.chunk_lo, shard.chunk_hi)
    stack = np.empty((len(chunks), m, n), dtype=np.float64)
    for product, chunk in zip(stack, chunks):
        ChunkLoop(product, a64, b64, (chunk,)).run()
    return stack, time.perf_counter() - t0


def _run_epilogue_shard(
    ctx: _GemmCtx, shard: EpilogueShard, gemm, c: np.ndarray, out: np.ndarray
) -> float:
    """Apply one tile-range slice of a group's alpha/beta epilogue."""
    t0 = time.perf_counter()
    group = shard.group
    strat = strategy_by_index(group.strategy_index)
    sub = TileGroup(
        gemm_index=group.gemm_index,
        strategy_index=group.strategy_index,
        interior=group.interior,
        y0=group.y0[shard.tile_lo : shard.tile_hi],
        x0=group.x0[shard.tile_lo : shard.tile_hi],
    )
    _epilogue_group(sub, gemm, ctx.accs[strat.bk], c, out, strat)
    return time.perf_counter() - t0


def execute_parallel(
    schedule: BatchSchedule,
    batch: GemmBatch,
    operands: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    plan: GroupedPlan | None = None,
    *,
    workers: Optional[int] = None,
) -> list[np.ndarray]:
    """Execute a batch schedule across a multi-worker thread pool.

    Drop-in for :func:`repro.kernels.grouped.execute_grouped`
    (bit-identical outputs at every worker count; inputs are not
    modified; the same ``ValueError``/``IndexError`` contract).
    ``workers`` sizes the shared pool (see :func:`resolve_workers`;
    defaults to the host size capped at :data:`MAX_AUTO_WORKERS`);
    ``plan`` optionally supplies a pre-lowered plan, otherwise the
    memoized lowering of the schedule is used.
    """
    workers = resolve_workers(workers)
    tracer = get_tracer()
    with tracer.span(
        "execute.parallel",
        blocks=schedule.num_blocks,
        tiles=schedule.num_tiles,
        workers=workers,
    ) as span:
        tracer.counter("tiles_executed", schedule.num_tiles)
        outputs, n_shards, imbalance = _execute_parallel(
            schedule, batch, operands, plan, workers
        )
        tracer.gauge("parallel.workers", workers)
        tracer.gauge("parallel.imbalance", imbalance)
        if span.enabled:
            span.set_attr("shards", n_shards)
            span.set_attr("imbalance", round(imbalance, 3))
    return outputs


def _execute_parallel(
    schedule: BatchSchedule,
    batch: GemmBatch,
    operands: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    plan: GroupedPlan | None,
    workers: int,
) -> tuple[list[np.ndarray], int, float]:
    validate_operands(batch, operands)
    if plan is None or plan.batch_token != _batch_token(batch):
        plan = grouped_plan_for(schedule, batch)

    tracer = get_tracer()
    shard_plan = plan_shards(plan, batch, workers)
    outputs = [
        np.zeros((g.m, g.n), dtype=op[2].dtype) for g, op in zip(batch, operands)
    ]

    products_by_gemm: dict[int, list[ProductShard]] = {}
    for shard in shard_plan.products:
        products_by_gemm.setdefault(shard.gemm_index, []).append(shard)
    epilogues_by_gemm: dict[int, list[EpilogueShard]] = {}
    for eshard in shard_plan.epilogues:
        epilogues_by_gemm.setdefault(eshard.gemm_index, []).append(eshard)

    ctxs: dict[int, _GemmCtx] = {}
    for gi, shards in products_by_gemm.items():
        ctx = _GemmCtx()
        ctx.products_pending = len(shards)
        ctx.epilogues_pending = len(epilogues_by_gemm.get(gi, ()))
        for shard in shards:
            if shard.bk not in ctx.chunk_counts:
                ctx.chunk_counts[shard.bk] = 0
                ctx.merge_next[shard.bk] = 0
                ctx.chunk_results[shard.bk] = {}
            ctx.chunk_counts[shard.bk] = max(
                ctx.chunk_counts[shard.bk], shard.chunk_hi
            )
        ctxs[gi] = ctx

    pool = shared_pool(workers)
    pending: set[Future] = set()
    meta: dict[Future, tuple] = {}
    busy_by_thread: dict[int, float] = {}

    def _submit(fn, tag, *args):
        fut = pool.submit(_timed, fn, *args)
        meta[fut] = tag
        pending.add(fut)

    def _timed(fn, *args):
        result = fn(*args)
        return threading.get_ident(), result

    def _submit_products(gi: int) -> None:
        for shard in products_by_gemm[gi]:
            _submit(_run_product_shard, ("product", gi, shard), ctxs[gi], shard, batch[gi].k)

    def _submit_epilogues(gi: int) -> None:
        a, b, c = operands[gi]
        for eshard in epilogues_by_gemm.get(gi, ()):
            _submit(
                _run_epilogue_shard,
                ("epilogue", gi, eshard),
                ctxs[gi],
                eshard,
                batch[gi],
                c,
                outputs[gi],
            )

    def _merge_ready(gi: int, bk: int) -> None:
        """Fold finished chunk products into the accumulator, in order."""
        ctx = ctxs[gi]
        acc = ctx.accs[bk]
        results = ctx.chunk_results[bk]
        while ctx.merge_next[bk] in results:
            lo = ctx.merge_next[bk]
            chunk_products = results.pop(lo)
            for product in chunk_products:
                np.add(acc, product, out=acc)
            ctx.merge_next[bk] = lo + len(chunk_products)

    def _product_settled(gi: int) -> bool:
        ctx = ctxs[gi]
        if ctx.products_pending:
            return False
        return all(
            ctx.merge_next[bk] >= count for bk, count in ctx.chunk_counts.items()
        )

    # Largest product first: the biggest GEMM's operands stage earliest
    # so its shards saturate the pool while smaller GEMMs queue behind.
    order = sorted(
        products_by_gemm,
        key=lambda gi: -sum(s.flops for s in products_by_gemm[gi]),
    )
    for gi in order:
        gemm = batch[gi]
        a, b, _ = operands[gi]
        bks = sorted(ctxs[gi].chunk_counts)
        _submit(_prep_gemm, ("prep", gi), ctxs[gi], gemm, a, b, bks, gemm.m, gemm.n)

    try:
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                thread_id, payload = fut.result()
                tag = meta.pop(fut)
                kind, gi = tag[0], tag[1]
                ctx = ctxs[gi]
                if kind == "prep":
                    busy_s = payload
                    _emit_shard_span(tracer, "prep", gi, busy_s)
                    _submit_products(gi)
                elif kind == "product":
                    shard = tag[2]
                    chunk_products, busy_s = payload
                    _emit_shard_span(
                        tracer,
                        "product",
                        gi,
                        busy_s,
                        bk=shard.bk,
                        chunks=shard.chunk_hi - shard.chunk_lo,
                        split=shard.split,
                    )
                    if shard.split:
                        ctx.chunk_results[shard.bk][shard.chunk_lo] = chunk_products
                        _merge_ready(gi, shard.bk)
                    else:
                        ctx.merge_next[shard.bk] = ctx.chunk_counts[shard.bk]
                    ctx.products_pending -= 1
                    if _product_settled(gi):
                        ctx.a64 = ctx.b64 = None  # operands no longer needed
                        _submit_epilogues(gi)
                else:  # epilogue
                    eshard = tag[2]
                    busy_s = payload
                    _emit_shard_span(
                        tracer,
                        "epilogue",
                        gi,
                        busy_s,
                        tiles=eshard.tile_hi - eshard.tile_lo,
                        interior=eshard.group.interior,
                    )
                    ctx.epilogues_pending -= 1
                busy = payload[1] if kind == "product" else payload
                busy_by_thread[thread_id] = busy_by_thread.get(thread_id, 0.0) + busy
    except BaseException:
        for fut in pending:
            fut.cancel()
        raise

    _check_coverage(plan, batch)
    return outputs, shard_plan.num_shards, _imbalance(busy_by_thread, workers)


def _emit_shard_span(tracer, kind: str, gemm_index: int, busy_s: float, **attrs) -> None:
    """Record one shard's worker-side measurement (calling thread only)."""
    if not tracer.enabled:
        return
    with tracer.span("parallel.shard", kind=kind, gemm=gemm_index, **attrs) as span:
        span.set_attr("busy_ms", round(busy_s * 1e3, 4))


def _imbalance(busy_by_thread: dict[int, float], workers: int) -> float:
    """Max-over-mean per-worker busy time across the pool.

    1.0 means every worker carried the same load; the upper bound is
    ``workers`` (all work on one thread).  Threads that received no
    shards count as zero -- idle capacity *is* imbalance.
    """
    if not busy_by_thread:
        return 1.0
    times = list(busy_by_thread.values()) + [0.0] * (workers - len(busy_by_thread))
    mean = sum(times) / len(times)
    if mean <= 0.0:
        return 1.0
    return max(times) / mean
