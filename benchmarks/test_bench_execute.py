"""Execution-engine benchmark: compiled vs reference on a mixed batch.

Pins the speedup of the compiled execution artifact
(:mod:`repro.kernels.compiled`) over the reference persistent-threads
walk (:mod:`repro.kernels.persistent`) on a Figure-10-style GoogleNet
inception branch batch, and the one-off cost of compiling it, and
writes the measurement to ``BENCH_execute.json`` at the repository
root so committed snapshots track the engine's trajectory across
revisions.  The compiled engine's value is steady-state dispatch, so
it is timed with its artifact warm; the walk has no artifact.

Bit-identity is asserted before timing: a perf benchmark that silently
drifts numerically is worthless.  The artifact's staging need -- one
thread arena sized by the largest GEMM's accumulator, ``beta * C``
buffer and one 128-deep K-slab of its operands, 999,424 bytes here --
is pinned on this batch by
``tests/kernels/test_compiled.py::TestCompiledContract::test_scratch_is_the_largest_gemm``.
A compile allocates no staging: a thread binds an artifact to its
arena on its first run, so the one-off cost timed here is a compile
plus that first run, less a warm run.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.analysis.export import write_bench_json
from repro.core.options import Heuristic
from repro.kernels.compiled import compile_plan, execute_compiled
from repro.kernels.persistent import execute_schedule
from repro.nn.googlenet import GOOGLENET_INCEPTIONS, inception_branch_batch

#: The committed perf snapshot (repo root, next to the other BENCH files).
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_execute.json"

#: The compiled engine must beat the reference walk by at least this
#: factor on the pinned mixed batch.
MIN_SPEEDUP = 3.9

#: One compile (and the first run's binding) must cost less than this
#: many warm compiled executions.
MAX_COMPILE_RUNS = 30


def _pinned_workload(framework):
    """The Figure-10-style mixed batch: one inception module's branches."""
    batch = inception_branch_batch(GOOGLENET_INCEPTIONS[2])
    report = framework.plan(batch, Heuristic.THRESHOLD)
    ops = batch.random_operands(np.random.default_rng(0))
    return batch, report.schedule, ops


def _best_of(fn, repeats: int = 7) -> float:
    """Min-of-N wall-clock seconds (min is the low-noise estimator)."""
    fn()  # warm caches, compilation, and BLAS threads
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _one_off_s(schedule, batch, ops, warm_s: float) -> float:
    """Seconds to compile an artifact and bind it on its first run."""
    first_s = _best_of(
        lambda: compile_plan(schedule, batch).run(batch, ops), repeats=3
    )
    return first_s - warm_s


def test_compiled_speedup_pinned(framework):
    """Compiled >= 3.9x reference on the pinned batch, bit-identically."""
    batch, schedule, ops = _pinned_workload(framework)

    ref_out = execute_schedule(schedule, batch, ops)
    cmp_out = execute_compiled(schedule, batch, ops)
    for want, got in zip(ref_out, cmp_out):
        assert np.array_equal(want, got), "engines diverged; benchmark is void"

    ref_s = _best_of(lambda: execute_schedule(schedule, batch, ops))
    cmp_s = _best_of(lambda: execute_compiled(schedule, batch, ops))
    speedup = ref_s / cmp_s

    artifact = compile_plan(schedule, batch)
    compile_s = _one_off_s(schedule, batch, ops, cmp_s)
    write_bench_json(
        BENCH_PATH,
        {
            "workload": "googlenet inception branches (Figure-10 style)",
            "gemms": len(batch),
            "tiles": schedule.num_tiles,
            "chunks": artifact.num_chunks,
            "scratch_bytes": artifact.scratch_bytes,
            "reference_ms": round(ref_s * 1e3, 3),
            "compiled_ms": round(cmp_s * 1e3, 3),
            "compile_once_ms": round(compile_s * 1e3, 3),
            "speedup": round(speedup, 2),
            "min_speedup_required": MIN_SPEEDUP,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"compiled engine speedup regressed: {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"(reference {ref_s * 1e3:.2f} ms, compiled {cmp_s * 1e3:.2f} ms)"
    )


def test_compiled_execution_latency(benchmark, framework):
    """pytest-benchmark series for warm compiled dispatch itself."""
    batch, schedule, ops = _pinned_workload(framework)
    artifact = compile_plan(schedule, batch)
    outs = benchmark(lambda: execute_compiled(schedule, batch, ops, plan=artifact))
    assert len(outs) == len(batch)


def test_compile_latency(benchmark, framework):
    """Compilation is paid once per cached schedule; keep it cheap."""
    batch, schedule, _ = _pinned_workload(framework)
    plan = benchmark(lambda: compile_plan(schedule, batch))
    assert plan.num_tiles == schedule.num_tiles


def test_compile_costs_few_warm_runs(framework):
    """One compile costs less than 30 warm compiled executions.

    The serve hot path executes one schedule thousands of times;
    bounding the compile by a handful of warm runs keeps the artifact
    honest (a compile so slow it never pays off would still "win" the
    steady-state benchmark above).
    """
    batch, schedule, ops = _pinned_workload(framework)
    artifact = compile_plan(schedule, batch)
    cmp_s = _best_of(lambda: execute_compiled(schedule, batch, ops, plan=artifact))
    compile_s = _one_off_s(schedule, batch, ops, cmp_s)
    runs = compile_s / cmp_s
    assert runs < MAX_COMPILE_RUNS, (
        f"one compile costs {runs:.1f} warm executions "
        f"(compile {compile_s * 1e3:.2f} ms, warm run {cmp_s * 1e3:.2f} ms)"
    )
