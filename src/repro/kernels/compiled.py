"""Compiled-plan execution: a schedule lowered to a flat artifact.

The reference walk (:mod:`repro.kernels.persistent`) interprets the
five auxiliary arrays one tile slot at a time, staging and multiplying
each tile -- per call, even when the schedule came straight out of a
warm :class:`~repro.core.plancache.PlanCache`.  For a serve hot path
that executes the same few schedules millions of times, that is pure
interpretation tax.

This module compiles a schedule **once** into a :class:`CompiledPlan`
artifact -- the same move tritonBLAS makes for GEMM parameter selection
and Stream-K++ makes for kernel-configuration caching (see
``PAPERS.md``): turn per-call decision work into an ahead-of-time
artifact, so steady-state dispatch is a lookup plus a minimal
interpreter loop.  Compilation checks the schedule's slot arrays once,
with the schedule contract :func:`~repro.core.schedule.check_schedule`
(GEMM/strategy id ranges, tile origins and exactly-once output
coverage run once per compile, never per call), and allocates nothing.
Nothing else of the schedule matters: every Table-2 strategy shares
one BK depth (:data:`~repro.core.tiling.BATCHED_BK`, the unified
thread structure of §4), so once the slots tile each output exactly
once, a GEMM's result does not depend on which strategies tile it.  An
artifact keeps what the schedule and the shapes fix: per GEMM, its
``(m, n, k)``, its ascending ``(k0, k_hi)`` chunk table and its
staging need, ``min(k, STAGING_SLAB) * (m + n) + 2*m*n`` float64
elements.

**Operands are staged one K-slab at a time.**  The paper's tile kernel
(Figure 2, lines 12-24) stages one BK-deep slice of A and B per
main-loop iteration, so a block's staging is fixed by its tile, never
by K.  The host does the same at a coarser grain: a GEMM's K is
walked in ascending slabs of :data:`STAGING_SLAB` = ``16 * BATCHED_BK``
columns, and only one slab of ``op(A)`` and ``op(B)`` is staged at a
time, so a GEMM's staging is its accumulator, its ``beta * C`` buffer
and one slab -- it scales with the output, not with K.

**The staging lives with the executing thread, not the artifact.**
Each thread that runs artifacts owns one float64 **arena**, grown to
the largest staging need that thread has run.  The paper's persistent
block (Figure 7) reuses one staging footprint, sized by the largest
strategy, for every tile it takes; the arena is that footprint on the
host, and as in Stream-K's partial-sum workspace it scales with the
executors, not with the problems -- so resident staging is
``threads x largest GEMM``, however many artifacts the memo holds.  A
thread's first run of an artifact binds it to the arena: each GEMM's
staging -- the accumulator ``acc``, the ``beta * C`` buffer ``c64``
and the slab copies ``a64`` / ``b64`` of ``op(A)`` / ``op(B)`` --
becomes a set of C-contiguous views into the front of the arena, and
BK main loops (:class:`~repro.kernels.blas.ChunkLoop`) are bound over
them, the arguments of every BLAS call built once: one loop for a full
slab and one for the ``k mod STAGING_SLAB`` remainder, whose views sit
at the front of the full slab's.  The thread caches those
bindings, weakly keyed by artifact; growing the arena drops them all,
so the old buffer is freed and each artifact rebinds on its next run
there.  Two threads never share staging, so runs need no lock.

Execution (:meth:`CompiledPlan.run`) is then a fixed sequence per GEMM:
zero the accumulator; for each slab, copy its columns of ``op(A)`` and
rows of ``op(B)`` in and make that slab's bound calls, which add to
the accumulator; and run the epilogue in three passes -- ``acc *=
alpha`` in place, ``c64 = beta * C`` in float64, and one ``np.add`` of
the two cast straight into the fresh output -- **zero Python
plan-walking and zero per-call allocation** once bound, except the
returned output arrays themselves (callers own the results, so they
must be fresh).  Each GEMM zeroes its accumulator, rewrites each slab
and overwrites ``c64`` before reading them, so nothing an earlier GEMM
-- of this artifact or another -- left in the arena reaches an output.
Where NumPy's BLAS exports a CBLAS dgemm
(:data:`repro.kernels.blas.DGEMM_SYMBOL` names it), each call is one
``acc += A[:, k0:k_hi] @ B[k0:k_hi, :]`` dgemm (per row panel) with
alpha = beta = 1: the chunk product is added to the accumulator inside
BLAS, with no temporary and no second pass.  Otherwise the loop falls
back to ``np.matmul`` into the ``c64`` view, which the epilogue
overwrites only after the loop, plus ``np.add``: on both paths the
arena is all the scratch.

**Bit-exactness contract.**  ``execute_compiled`` is bit-identical to
the reference walk, :func:`repro.kernels.persistent.execute_schedule`:

* the operand staging (``np.copyto`` into C-contiguous float64
  buffers) is the exact float64 widening the walk's per-tile staging
  casts make, so BLAS sees the walk's values;
* the K reduction keeps the walk's chunk order -- one product per
  ``BK`` chunk, accumulated in float64 in ascending ``k0`` order (a
  single full-K matmul would associate the sum differently); slab
  edges are multiples of ``BK``, so slabbing adds the same chunk sums
  in the same order -- and
  runs each product through the :mod:`repro.kernels.blas` loop, whose
  dgemm calls compute every element as the same ascending-``k`` FMA
  sequence as the walk's zero-padded per-tile products, interior and
  edge tiles alike (that module explains why, why ``acc += A @ B``
  rounds like ``tmp = A @ B; acc += tmp``, and why large calls are
  split into row panels);
* the alpha/beta epilogue is elementwise, so evaluating it over the
  full matrix performs the identical float64 multiplies, add and
  final cast per element as the walk's per-tile
  ``(alpha * acc + beta * c64).astype(c.dtype)``.
  ``beta * C`` is computed in float64 (``dtype=np.float64``: NumPy 2
  would multiply a float32 C by a Python-float beta in float32), and
  the add casts its float64 sum into the output with
  ``casting="unsafe"``, the cast ``astype`` makes.

The equivalence suites pin this bitwise across all twelve Table-2
strategies, transposed operands, alpha/beta epilogues, ragged edges,
K on either side of every BK and slab edge, mixed-strategy GEMMs, and
one-row and one-column float64 GEMMs, on the dgemm path and the
``np.matmul`` fallback.

Artifacts are memoized in a weak identity
:class:`~repro.kernels.memo.PlanMemo` keyed by the schedule, one entry
per schedule, valid for the batch shapes it was compiled for.  The memo
has no capacity: an artifact lives exactly as long as its schedule, so
the plan caches that hold schedules bound the artifacts, and a schedule
that dies takes its artifact, and every thread's binding of it, with
it.  Memo traffic is observable via the ``compile.cache_hits`` /
``compile.cache_misses`` counters and each compilation runs under a
``compile.plan`` span.

This module does not import :mod:`repro.kernels.persistent`: it
shares only the schedule contract in :mod:`repro.core.schedule` with
the walk, and the oracle stays independent (CI guards this).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.core.problem import GemmBatch, batch_signature, validate_operands
from repro.core.schedule import BatchSchedule, check_schedule
from repro.core.tiling import BATCHED_BK
from repro.kernels.blas import ChunkLoop, chunk_ranges, loop_calls
from repro.kernels.memo import MemoStats, PlanMemo
from repro.telemetry import get_tracer

__all__ = [
    "STAGING_SLAB",
    "CompiledGemm",
    "CompiledPlan",
    "compile_plan",
    "compiled_plan_for",
    "compiled_memo_stats",
    "clear_compiled_memo",
    "execute_compiled",
]


#: Columns of ``op(A)`` (rows of ``op(B)``) a run stages at a time: a
#: multiple of the BK depth, so slab edges are chunk edges.
STAGING_SLAB = 16 * BATCHED_BK


@dataclass(frozen=True)
class CompiledGemm:
    """One GEMM of an artifact: its shape and its BK chunk table.

    ``chunks`` are the ascending ``(k0, k_hi)`` ranges of the GEMM's BK
    main loop, one chunk product each; :attr:`slabs` groups them into
    the K-slabs a run stages one at a time, and :attr:`staging` is the
    share of a thread's arena it stages in.
    """

    m: int
    n: int
    k: int
    chunks: tuple[tuple[int, int], ...]

    @property
    def slabs(self) -> tuple[tuple[int, int], ...]:
        """The ascending ``(k0, k_hi)`` K-slabs of :data:`STAGING_SLAB` columns."""
        return chunk_ranges(self.k, STAGING_SLAB)

    @property
    def staging(self) -> int:
        """Float64 elements of ``acc``, ``beta * C`` and one slab of each operand."""
        return min(self.k, STAGING_SLAB) * (self.m + self.n) + 2 * self.m * self.n

    @property
    def calls(self) -> int:
        """BLAS calls one run makes: each slab's loop, run once per slab."""
        return sum(
            loop_calls(self.m, self.n, chunk_ranges(k_hi - k0, BATCHED_BK))
            for k0, k_hi in self.slabs
        )


@dataclass(frozen=True, eq=False)
class CompiledPlan:
    """A schedule compiled to a flat execution artifact.

    The artifact is valid for any batch whose shapes/transposes match
    ``batch_token`` -- alpha/beta are *not* baked in (they are read from
    the live batch at :meth:`run` time), matching the plan cache's
    signature, which also excludes them.  ``gemms`` holds one
    :class:`CompiledGemm` per GEMM of the batch, in batch order.  The
    artifact holds no buffer: each thread that runs it stages in that
    thread's arena.  Artifacts compare, hash and key by identity.
    """

    num_tiles: int
    batch_token: tuple
    gemms: tuple[CompiledGemm, ...]

    @property
    def num_chunks(self) -> int:
        """Total BK chunk products one execution computes."""
        return sum(len(g.chunks) for g in self.gemms)

    @property
    def num_calls(self) -> int:
        """BLAS calls one execution makes (dgemm, or ``np.matmul`` on the fallback).

        Each chunk product is one call per row panel
        (:func:`~repro.kernels.blas.loop_calls`), so this is at least
        :attr:`num_chunks`.
        """
        return sum(g.calls for g in self.gemms)

    @property
    def scratch_bytes(self) -> int:
        """Bytes of staging a run needs: the largest GEMM's, in float64.

        A thread's arena holds at least this much once it has run the
        artifact; on both chunk-loop paths it is all the scratch.
        """
        return 8 * max(g.staging for g in self.gemms)

    def run(
        self,
        batch: GemmBatch,
        operands: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> list[np.ndarray]:
        """Execute the compiled program on a matching batch.

        Bit-identical to the reference walk; inputs are not modified.
        Raises ``ValueError`` when the batch's shapes do not match the
        shapes the artifact was compiled for, or on operand-shape
        mismatches.  Thread-safe: each thread stages in its own arena,
        binding the artifact to it on the thread's first run.
        """
        if batch_signature(batch) != self.batch_token:
            raise ValueError(
                "batch shapes do not match the compiled plan "
                "(recompile with compile_plan/compiled_plan_for)"
            )
        validate_operands(batch, operands)
        staged = _ARENA.bindings.get(self) or _ARENA.bind(self)
        outputs: list[np.ndarray] = []
        for (acc, c64, slabs), gemm, (a, b, c) in zip(staged, batch, operands):
            a_op, b_op = gemm.op_a(a), gemm.op_b(b)
            acc.fill(0.0)
            for ks, a64, b64, loop in slabs:
                # Exact float64 widening of one K-slab into the arena's
                # contiguous views, as the reference walk's per-tile
                # staging casts widen; the loop adds its chunks to acc.
                np.copyto(a64, a_op[:, ks])
                np.copyto(b64, b_op[ks])
                loop.run()
            # Elementwise alpha/beta epilogue in float64, in place; the
            # per-element arithmetic and the final cast match the
            # reference walk bit for bit.  The output is the one
            # allocation: the add writes every element of it.
            np.multiply(acc, gemm.alpha, out=acc)
            np.multiply(c, gemm.beta, out=c64, dtype=np.float64)
            out = np.empty(acc.shape, dtype=c.dtype)
            np.add(acc, c64, out=out, casting="unsafe")
            outputs.append(out)
        return outputs


class _Staging(NamedTuple):
    """One GEMM's views into a thread's arena, and its slab loops bound over them.

    ``slabs`` holds, per K-slab in ascending order, the slab's K range
    as a slice, the ``a64`` / ``b64`` views it is staged in and the loop
    bound over them; slabs of one width share their views and loop.
    """

    acc: np.ndarray
    c64: np.ndarray
    slabs: tuple[tuple[slice, np.ndarray, np.ndarray, ChunkLoop], ...]


def _stage(gemm: CompiledGemm, arena: np.ndarray) -> _Staging:
    """Bind one GEMM at the front of ``arena``."""
    m, n = gemm.m, gemm.n
    mn, depth = m * n, min(gemm.k, STAGING_SLAB)
    acc = arena[:mn].reshape(m, n)
    c64 = arena[mn : 2 * mn].reshape(m, n)
    a_slab = arena[2 * mn : 2 * mn + m * depth]
    b_slab = arena[2 * mn + m * depth : gemm.staging]
    bound = {}
    for width in {k_hi - k0 for k0, k_hi in gemm.slabs}:
        # A full slab and the remainder both stage at the slab front.
        a64 = a_slab[: m * width].reshape(m, width)
        b64 = b_slab[: width * n].reshape(width, n)
        # c64 is written only after the loops, so the np.matmul
        # fallback takes its chunk temporary there.
        loop = ChunkLoop(acc, a64, b64, chunk_ranges(width, BATCHED_BK), c64)
        bound[width] = (a64, b64, loop)
    slabs = tuple((slice(k0, k_hi), *bound[k_hi - k0]) for k0, k_hi in gemm.slabs)
    return _Staging(acc, c64, slabs)


class _Arena(threading.local):
    """One thread's staging arena and the artifacts bound to it.

    ``buffer`` is the float64 arena; ``bindings`` maps each artifact
    this thread has run since the arena last grew to its
    :class:`_Staging` per GEMM, weakly, so an artifact that dies drops
    its binding.
    """

    def __init__(self) -> None:
        self.buffer = np.empty(0, dtype=np.float64)
        self.bindings: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def bind(self, plan: CompiledPlan) -> tuple[_Staging, ...]:
        """Bind ``plan`` to this thread's arena, growing it to the plan's need."""
        need = max(g.staging for g in plan.gemms)
        if self.buffer.size < need:
            # Only this thread's bindings view the old buffer: dropping
            # them, then the buffer, frees it before the new one is
            # allocated.
            self.bindings = weakref.WeakKeyDictionary()
            del self.buffer
            self.buffer = np.empty(need, dtype=np.float64)
        staged = tuple(_stage(g, self.buffer) for g in plan.gemms)
        self.bindings[plan] = staged
        return staged


#: The calling thread's arena (one per thread, created on first use).
_ARENA = _Arena()


def _compile(schedule: BatchSchedule, batch: GemmBatch) -> CompiledPlan:
    check_schedule(schedule, batch)  # once per compile, never per call
    return CompiledPlan(
        num_tiles=schedule.num_tiles,
        batch_token=batch_signature(batch),
        gemms=tuple(
            CompiledGemm(g.m, g.n, g.k, chunk_ranges(g.k, BATCHED_BK)) for g in batch
        ),
    )


def compile_plan(schedule: BatchSchedule, batch: GemmBatch) -> CompiledPlan:
    """Compile a schedule into a fresh :class:`CompiledPlan` artifact.

    Checks the schedule with :func:`~repro.core.schedule.check_schedule`
    (raising the reference walk's ``IndexError`` / ``ValueError``) and
    records each GEMM's shape and chunk table; it allocates no staging,
    which each executing thread binds on its first run.  Emits a
    ``compile.plan`` span.
    """
    tracer = get_tracer()
    with tracer.span(
        "compile.plan", tiles=schedule.num_tiles, gemms=len(batch)
    ) as span:
        artifact = _compile(schedule, batch)
        tracer.counter("compile.plans", 1)
        if span.enabled:
            span.set_attr("chunks", artifact.num_chunks)
            span.set_attr("calls", artifact.num_calls)
            span.set_attr("scratch_bytes", artifact.scratch_bytes)
    return artifact


#: Process-wide memo of compiled artifacts, keyed weakly by schedule.
_COMPILED_MEMO = PlanMemo()


def compiled_plan_for(schedule: BatchSchedule, batch: GemmBatch) -> CompiledPlan:
    """The memoized compiled artifact of a schedule (compile on miss).

    Held in a weak identity :class:`~repro.kernels.memo.PlanMemo`, one
    entry per schedule, valid for the batch shapes it was compiled for:
    every schedule held by a :class:`~repro.core.plancache.PlanCache`
    keeps its artifact warm, and an evicted schedule releases its
    artifact when it dies.  Emits ``compile.cache_hits`` /
    ``compile.cache_misses`` counters, so a serve test can assert a warm
    hot path does zero compilation.
    """
    token = batch_signature(batch)
    tracer = get_tracer()
    cached = _COMPILED_MEMO.get(schedule, token)
    if cached is not None:
        tracer.counter("compile.cache_hits")
        return cached
    tracer.counter("compile.cache_misses")
    return _COMPILED_MEMO.put(schedule, token, compile_plan(schedule, batch))


def compiled_memo_stats() -> MemoStats:
    """Hit/miss counters of the compiled-artifact memo."""
    return _COMPILED_MEMO.stats_snapshot()


def clear_compiled_memo() -> None:
    """Drop every memoized artifact (tests and long-lived processes)."""
    _COMPILED_MEMO.clear()


def execute_compiled(
    schedule: BatchSchedule,
    batch: GemmBatch,
    operands: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    plan: Optional[CompiledPlan] = None,
) -> list[np.ndarray]:
    """Execute a batch schedule through its compiled artifact.

    Drop-in for :func:`repro.kernels.persistent.execute_schedule`
    (bit-identical outputs; inputs are not modified).  ``plan``
    optionally supplies a pre-compiled artifact; by default the
    memoized artifact of the schedule is used (compiled on first
    execution).
    """
    if plan is None or plan.batch_token != batch_signature(batch):
        plan = compiled_plan_for(schedule, batch)
    tracer = get_tracer()
    with tracer.span(
        "execute.compiled",
        tiles=plan.num_tiles,
        gemms=len(batch),
    ):
        tracer.counter("tiles_executed", plan.num_tiles)
        return plan.run(batch, operands)
