"""Per-backend / per-dtype tiling selections: the precision snapshot.

Plans one pinned mixed batch on every shipped backend at every storage
precision and records what the §4 selector chose -- strategy names,
unified thread count, TLP, and the device-model time -- into
``BENCH_precision.json`` at the repository root.  The snapshot's whole
point is the *differences*: the systolic backend drops the small tiles
the V100 happily runs, and the SRAM backend's fp16 pool admits ``tall``
where its fp32 pool had to fall back to the 128-thread table.  The
test asserts at least one backend/dtype cell selects differently from
the fp32-V100 baseline (otherwise the backend layer is decoration).

A tolerance-verified fp16 execution of the same batch rides along so
the snapshot also pins the mixed-precision numerics end to end.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.analysis.export import write_bench_json
from repro.core.framework import CoordinatedFramework
from repro.core.options import PlanOptions
from repro.core.precision import Precision, quantize_operands, quantize_outputs
from repro.core.problem import Gemm, GemmBatch
from repro.kernels import get_engine
from repro.kernels.verify import verify_outputs

#: The committed perf snapshot (repo root, next to the other BENCH files).
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_precision.json"

BACKENDS = ("cuda:Tesla V100", "systolic:128x128", "sram:40k")
PRECISIONS = ("fp32", "fp16", "bf16")

#: Escalation past ``large`` is where the pools disagree; the pinned
#: TLP target forces the selector there on the tall GEMM.
TLP_TARGET = 4095


def _pinned_batch() -> GemmBatch:
    return GemmBatch(
        [
            Gemm(1024, 64, 256),  # tall: the dtype-sensitive case on SRAM
            Gemm(256, 256, 128),
            Gemm(64, 784, 192),  # the paper's worked GoogleNet shape
            Gemm(128, 128, 64),
        ]
    )


def _cell(framework: CoordinatedFramework, precision: str) -> dict:
    batch = _pinned_batch()
    report = framework.plan(
        batch, PlanOptions(precision=precision, tlp_threshold=TLP_TARGET)
    )
    sim = framework.simulate_plan(report)
    decision = report.decision
    return {
        "strategies": [s.name for s in decision.strategies],
        "threads": decision.threads,
        "tlp": decision.tlp,
        "blocks": report.schedule.num_blocks,
        "sim_ms": round(sim.time_us / 1e3, 4),
    }


def test_bench_precision_snapshot(benchmark):
    record: dict = {
        "workload": "pinned mixed batch (tall + square + GoogleNet shapes)",
        "tlp_threshold": TLP_TARGET,
        "backends": {},
    }

    def run() -> dict:
        for backend in BACKENDS:
            framework = CoordinatedFramework(backend=backend)
            record["backends"][backend] = {
                prec: _cell(framework, prec) for prec in PRECISIONS
            }
        return record

    benchmark.pedantic(run, rounds=1, iterations=1)

    baseline = record["backends"]["cuda:Tesla V100"]["fp32"]
    divergent = [
        f"{backend}/{prec}"
        for backend in BACKENDS
        for prec in PRECISIONS
        if record["backends"][backend][prec]["strategies"]
        != baseline["strategies"]
    ]
    record["baseline"] = "cuda:Tesla V100/fp32"
    record["divergent_cells"] = divergent
    assert divergent, (
        "every backend/dtype selected exactly the fp32-V100 strategies; "
        "the backend admission layer is not filtering anything"
    )
    # The headline case: SRAM tiles the tall GEMM differently at fp16.
    assert (
        record["backends"]["sram:40k"]["fp16"]["strategies"]
        != record["backends"]["sram:40k"]["fp32"]["strategies"]
    )

    # Mixed-precision execution rides along: verified fp16 numerics.
    batch = _pinned_batch()
    framework = CoordinatedFramework()
    report = framework.plan(batch, PlanOptions(precision="fp16"))
    staged = quantize_operands(
        batch.random_operands(np.random.default_rng(0)), Precision.FP16
    )
    outputs = get_engine("compiled")(report.schedule, batch, staged)
    outputs = quantize_outputs(outputs, Precision.FP16)
    verification = verify_outputs(
        batch, staged, outputs, Precision.FP16, raise_on_failure=True
    )
    record["fp16_verification"] = {
        "max_abs_err": round(verification.max_abs_err, 6),
        "max_rel_err": round(verification.max_rel_err, 6),
        "atol": verification.atol,
        "rtol": verification.rtol,
    }

    write_bench_json(BENCH_PATH, record)
    for name in divergent:
        benchmark.extra_info[f"divergent_{name.replace(':', '_')}"] = 1
