"""One benchmark workload in its own process: set-up, timed run, checks.

``run.py`` starts this file once per set-up sample and once per
measured run, and reads the JSON object it prints as its last stdout
line::

    python3 perfbench/workloads.py --workload inception --seed 0 \\
        --seconds 40 --trace 0 --t0 <time.monotonic() at spawn> [--setup-only]

Set-up time runs from ``--t0`` (taken by the parent just before the
spawn, on the system-wide monotonic clock) to the first timed op.  Why
each workload exists and what every number means is in ``README.md``
next to this file.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro import CoordinatedFramework, PlanCache, simulate_magma_vbatch  # noqa: E402
from repro.core.plancache import batch_signature  # noqa: E402
from repro.kernels.compiled import compiled_plan_for, execute_compiled  # noqa: E402
from repro.kernels.verify import verify_outputs  # noqa: E402
from repro.nn.googlenet import GOOGLENET_INCEPTIONS, inception_branch_batch  # noqa: E402
from repro.workloads.synthetic import random_cases  # noqa: E402
from spans import SpanRecorder  # noqa: E402  (perfbench/ is sys.path[0])

WORKLOADS = ("inception", "ragged_cold")

#: ``ragged_cold`` cycles a pinned pool of Figure-11 batches through an
#: LRU plan cache smaller than the pool, so every lookup misses and
#: every op plans and compiles.  Shapes are pinned (generator seed 0)
#: so that runs with different ``--seed`` time the same work; the seed
#: draws the operands and the cycle order.
RAGGED_POOL = 64
RAGGED_CACHE = 32
RAGGED_SHAPE_SEED = 0
RAGGED_WARMUP_OPS = 8


def ms(seconds_list, q) -> float:
    """The ``q``-th percentile of durations in seconds, in ms (0 if empty)."""
    if not len(seconds_list):
        return 0.0
    return float(np.percentile(seconds_list, q)) * 1e3


def share(part, whole) -> float:
    return part / whole if whole else 0.0


def modeled(batches) -> tuple[float, float]:
    """Summed cost-model V100 ms of our plans, and MAGMA's time over ours.

    Plans with a fresh framework and the default heuristic, outside
    every timed section and outside the caches the workload measured.
    """
    framework = CoordinatedFramework()
    memo: dict = {}
    ours = magma = 0.0
    for batch in batches:
        key = batch_signature(batch)
        if key not in memo:
            report = framework.plan(batch)
            memo[key] = (
                framework.simulate_plan(report).time_ms,
                simulate_magma_vbatch(batch, framework.device).time_ms,
            )
        o, m = memo[key]
        ours += o
        magma += m
    return ours, magma / ours


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(np.ascontiguousarray(out).data)
    return h.hexdigest()


def operand_views(batch, buf, rng):
    """Seeded ``(A, B, C)`` views into one shared random buffer.

    Views keep the harness's operand memory at one buffer however many
    batches a workload cycles, so peak RSS measures the program.
    """

    def view(rows, cols):
        n = rows * cols
        start = int(rng.integers(0, buf.size - n + 1))
        return buf[start : start + n].reshape(rows, cols)

    return [(view(*g.a_shape), view(*g.b_shape), view(g.m, g.n)) for g in batch]


class Workload:
    """``inception`` or ``ragged_cold``: each op calls the program directly.

    One op is one batch: ``PlanCache.plan_with_info``, then
    ``compiled_plan_for``, then ``execute_compiled`` with that artifact.
    """

    def __init__(self, name: str, seed: int):
        self.name = name
        rng = np.random.default_rng(seed)
        framework = CoordinatedFramework()
        if name == "inception":
            self.batches = [inception_branch_batch(m) for m in GOOGLENET_INCEPTIONS]
            self.cache = PlanCache(framework)
            self.order = list(range(len(self.batches)))
        else:
            self.batches = random_cases(
                RAGGED_POOL, seed=RAGGED_SHAPE_SEED, max_batch=8
            )
            self.cache = PlanCache(framework, capacity=RAGGED_CACHE)
            self.order = [int(i) for i in rng.permutation(RAGGED_POOL)]
        buf = rng.standard_normal(1 << 20).astype(np.float32)
        self.operands = [operand_views(b, buf, rng) for b in self.batches]
        self.good: dict[int, set] = {}  # batch index -> verified digests
        self.ops_done = 0

    def next_index(self) -> int:
        index = self.order[self.ops_done % len(self.order)]
        self.ops_done += 1
        return index

    def warm_up(self) -> None:
        """Plan, compile and execute before timing (part of set-up)."""
        count = len(self.batches) if self.name == "inception" else RAGGED_WARMUP_OPS
        for _ in range(count):
            index = self.next_index()
            batch = self.batches[index]
            report, _ = self.cache.plan_with_info(batch)
            artifact = compiled_plan_for(report.schedule, batch)
            execute_compiled(report.schedule, batch, self.operands[index], plan=artifact)

    def check(self, index: int, report, outputs) -> bool:
        """Bit-exact against the reference replay, once per distinct output."""
        seen = self.good.setdefault(index, set())
        d = digest(outputs)
        if d in seen:
            return True
        ok = verify_outputs(
            self.batches[index],
            self.operands[index],
            outputs,
            "fp32",
            schedule=report.schedule,
        ).ok
        if ok:
            seen.add(d)
        return ok

    def run(self, seconds: float, recorder):
        """Closed loop: the next op starts when the previous one is checked.

        Runs until the timed ops add up to ``seconds``.  Every op's
        outputs are checked between ops, outside the timed op.  A
        traced run records every other cycle through the batches, so
        that traced and untraced ops of one process, on the same batch
        mix, give the tracing overhead.
        """
        clock = time.perf_counter
        latencies, plain, gaps, per_op = [], [], [], []
        busy = 0.0
        wrong = 0
        prev_end = None
        before = self.cache.stats_snapshot()
        while busy < seconds:
            traced = recorder is not None and (self.ops_done // len(self.order)) % 2 == 0
            index = self.next_index()
            batch, operands = self.batches[index], self.operands[index]
            t0 = clock()
            report, hit = self.cache.plan_with_info(batch)
            t1 = clock() if traced else 0.0
            artifact = compiled_plan_for(report.schedule, batch)
            t2 = clock() if traced else 0.0
            out = execute_compiled(report.schedule, batch, operands, plan=artifact)
            t3 = clock()
            busy += t3 - t0
            latencies.append(t3 - t0)
            if prev_end is not None:
                gaps.append(t0 - prev_end)
            prev_end = t3
            if traced:
                op = len(latencies) - 1
                root = recorder.add("op", t0, t3, op=op)
                recorder.add("plan", t0, t1, root, op)
                recorder.add("compile", t1, t2, root, op)
                recorder.add("execute", t2, t3, root, op)
                per_op.append((index, artifact.num_chunks, artifact.scratch_bytes))
            elif recorder is not None:
                plain.append(t3 - t0)
            if hit and self.name == "ragged_cold":
                raise RuntimeError("ragged_cold hit the plan cache: not a cold stream")
            wrong += not self.check(index, report, out)
            del out, report, artifact
        after = self.cache.stats_snapshot()
        lookups = (after.hits + after.misses) - (before.hits + before.misses)
        hits = after.hits - before.hits
        return latencies, plain, gaps, per_op, wrong, hits, lookups


def per_layer(wl: Workload, recorder, plain, gaps, per_op, hits, lookups):
    """Per-layer metrics of a traced run, and the base counts."""
    ops = recorder.durations("op")
    plan = recorder.durations("plan")
    comp = recorder.durations("compile")
    exe = recorder.durations("execute")
    busy = sum(ops)
    flops = [sum(2 * g.m * g.n * g.k for g in b) for b in wl.batches]
    mbytes = [
        sum(4 * (g.m * g.k + g.k * g.n + g.m * g.n) for g in b) / 1e6 for b in wl.batches
    ]
    n = len(per_op)
    layers = {
        "plan.ms_p50": ms(plan, 50),
        "plan.busy_share": share(sum(plan), busy),
        "plancache.hit_rate": share(hits, lookups),
        "plancache.lookups": lookups,
        "compile.ms_p50": ms(comp, 50),
        "compile.busy_share": share(sum(comp), busy),
        "compile.scratch_mb": float(np.median([s for _, _, s in per_op])) / 1e6,
        "execute.ms_p50": ms(exe, 50),
        "execute.busy_share": share(sum(exe), busy),
        "execute.matmul_calls": sum(c for _, c, _ in per_op) / n,
        "execute.gflop_per_s": share(sum(flops[i] for i, _, _ in per_op), sum(exe)) / 1e9,
        "execute.mb_computed": sum(mbytes[i] for i, _, _ in per_op) / n,
        "loadgen.lag_ms_p50": ms(gaps, 50),
        "loadgen.lag_ms_p99": ms(gaps, 99),
        "loadgen.lag_ms_max": ms(gaps, 100),
        "trace.overhead_share": share(ms(ops, 50), ms(plain, 50)) - 1.0,
    }
    bases = {
        "plan.busy_share": f"of {busy:.2f} s in {n} traced ops",
        "execute.matmul_calls": f"mean over {n} traced ops",
        "loadgen.lag_ms_p50": "closed loop: gap between ops, checks included",
        "trace.overhead_share": f"op p50 traced {ms(ops, 50):.4f} ms (n={n}), "
        f"untraced {ms(plain, 50):.4f} ms (n={len(plain)}), alternate cycles",
    }
    return layers, bases


def blas_facts() -> dict:
    """BLAS vendor and the thread count the loaded library reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    recorder = SpanRecorder() if args.trace else None
    wl = Workload(args.workload, args.seed)
    wl.warm_up()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies, plain, gaps, per_op, wrong, hits, lookups = wl.run(args.seconds, recorder)
    out = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(), "host": blas_facts()}
    model_ms, speedup = modeled(wl.batches)
    out.update(
        correct=wrong == 0,
        attempted=len(latencies),
        failed=wrong,
        e2e={
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": ms(latencies, 50),
            "latency_p99_ms": ms(latencies, 99),
            "model_speedup_vs_magma": speedup,
        },
    )
    if recorder is not None:
        layers, bases = per_layer(wl, recorder, plain, gaps, per_op, hits, lookups)
        layers["model_gpu_ms"] = model_ms
        out["layers"] = layers
        out["bases"] = bases
        out["self_ms"] = {k: v * 1e3 for k, v in recorder.self_times().items()}
        path = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}.trace.json"
        meta = {"workload": args.workload, "seed": args.seed, "host": out["host"]}
        recorder.write(path, meta)
        out["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
