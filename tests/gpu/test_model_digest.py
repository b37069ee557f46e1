"""Pinned digests of every modeled number.

The cost model, the simulator, the schedule lowering and the baselines
are scalar arithmetic over fixed inputs, so a refactor of any of them
that claims to keep the modeled times must leave these digests exactly
as they are.  Each digest is a sha256 over the full-precision fields of
:class:`~repro.gpu.simulator.SimulationResult` (and, for the
coordinated framework, over the five auxiliary arrays plus the per-slot
K and fused footprint of each plan's schedule), one per (case set,
heuristic or baseline).

The case sets are the two Figure-11 generators the benchmark and the
experiments use and the nine GoogLeNet inception branch batches; the
fp16 and bf16 rows also pin the half-width pricing path.  A digest that moves
means a modeled number moved: find the case with
``_coordinated_records`` / ``_baseline_records`` before re-pinning.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines.cke import simulate_cke
from repro.baselines.cublas_batched import simulate_cublas_batched
from repro.baselines.default import simulate_default
from repro.baselines.magma_vbatch import simulate_magma_vbatch
from repro.baselines.nonunified import simulate_nonunified
from repro.core.framework import CoordinatedFramework
from repro.core.options import Heuristic
from repro.core.problem import GemmBatch
from repro.gpu.specs import VOLTA_V100
from repro.nn.googlenet import GOOGLENET_INCEPTIONS, inception_branch_batch
from repro.workloads.synthetic import random_cases

CASE_SETS = {
    "fig11-seed0-b8": lambda: random_cases(64, seed=0, max_batch=8),
    "fig11-seed7-b32": lambda: random_cases(64, seed=7, max_batch=32),
    "inception": lambda: [inception_branch_batch(m) for m in GOOGLENET_INCEPTIONS],
}

HEURISTICS = (
    Heuristic.THRESHOLD,
    Heuristic.BINARY,
    Heuristic.ONE_PER_BLOCK,
    Heuristic.GREEDY_PACKING,
    Heuristic.BALANCED,
)

BASELINES = {
    "magma_vbatch": simulate_magma_vbatch,
    "default": simulate_default,
    "cke": simulate_cke,
    "nonunified": simulate_nonunified,
}

#: sha256 prefixes pinned from the per-block simulator; see module doc.
EXPECTED = {
    "fig11-seed0-b8/threshold": "b8268e89a1e50ae83175702e",
    "fig11-seed0-b8/binary": "078ee495f0635bfc0e1589e4",
    "fig11-seed0-b8/one-per-block": "26a97950f88a6688b8b77355",
    "fig11-seed0-b8/greedy-packing": "f6a025339b17faf7abb6330d",
    "fig11-seed0-b8/balanced": "16c75f7dc6ac6748a24aa649",
    "fig11-seed0-b8/magma_vbatch": "766851b9784972629e28f5ee",
    "fig11-seed0-b8/default": "762880878ab7cf8e917ea58c",
    "fig11-seed0-b8/cke": "fee6c3eeaeba1cdd17ef8c12",
    "fig11-seed0-b8/nonunified": "ad3a6659b5525852b411d31d",
    "fig11-seed0-b8/cublas_batched": "074db3d990667afb640e3e18",
    "fig11-seed7-b32/threshold": "b3539de4c0e82315370e5362",
    "fig11-seed7-b32/binary": "8bb7d572d4096d8cf0b679d6",
    "fig11-seed7-b32/one-per-block": "d74bff00e0d67e62ee535030",
    "fig11-seed7-b32/greedy-packing": "029e3d03fccf16f1058d648d",
    "fig11-seed7-b32/balanced": "f8b32dc42b557797920e7d10",
    "fig11-seed7-b32/magma_vbatch": "30fd798cc221280f2067a112",
    "fig11-seed7-b32/default": "93b93be31f5f6f06de118b34",
    "fig11-seed7-b32/cke": "decc4ce3f9033aab377471c6",
    "fig11-seed7-b32/nonunified": "27c8d0c17324726bc6e211ab",
    "fig11-seed7-b32/cublas_batched": "05b94c0c44bc587e754f850d",
    "inception/threshold": "797fbae6a5dc455d8c838bdb",
    "inception/binary": "76c9272fd74ebd350fc32924",
    "inception/one-per-block": "76c9272fd74ebd350fc32924",
    "inception/greedy-packing": "76c9272fd74ebd350fc32924",
    "inception/balanced": "5af3f77e3b4804a26c6e3827",
    "inception/magma_vbatch": "a3110f31b2fcb0a35a8e2766",
    "inception/default": "061169df8101b990a3a7db70",
    "inception/cke": "55e3c928fcefdd02c8e14b16",
    "inception/nonunified": "c1acb15208410141d1f34eea",
    "inception/cublas_batched": "6cf63ab2d93541509e032a46",
    "inception@fp16/threshold": "2706dafc49543c97eb4e7bed",
    "inception@bf16/threshold": "2706dafc49543c97eb4e7bed",
}


def _result_record(result) -> tuple:
    return (
        result.name,
        repr(result.cycles),
        repr(result.time_ms),
        result.num_blocks,
        result.blocks_per_sm,
        repr(result.concurrency),
        result.active_sms,
        repr(result.waves),
        result.limited_by,
    )


def _schedule_bytes(schedule, batch) -> bytes:
    # Each slot's K, read from its GEMM: the bytes the schedule's
    # per-slot K column hashed to before K left the schedule.
    slot_k = np.array([g.k for g in batch], dtype=np.int64)[schedule.gemm_ids]
    parts = [
        np.ascontiguousarray(arr, dtype="<i8").tobytes()
        for arr in (
            schedule.tile_offsets,
            schedule.gemm_ids,
            schedule.strategy_ids,
            schedule.y_coords,
            schedule.x_coords,
            slot_k,
        )
    ]
    footprint = (
        schedule.threads_per_block,
        schedule.shared_memory_bytes,
        schedule.registers_per_thread,
    )
    return b"|".join(parts) + repr(footprint).encode()


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
        h.update(b"\n")
    return h.hexdigest()[:24]


def _coordinated_records(batches, heuristic, precision="fp32"):
    fw = CoordinatedFramework(device=VOLTA_V100, precision=precision)
    for batch in batches:
        report = fw.plan(batch, heuristic)
        yield _schedule_bytes(report.schedule, batch)
        yield _result_record(fw.simulate_plan(report))


def _baseline_records(batches, simulate):
    for batch in batches:
        yield _result_record(simulate(batch, VOLTA_V100))


def _cublas_records(batches):
    # cuBLAS batched is same-size only: price the uniform batch of each
    # case's first GEMM, at the case's batch size.
    for batch in batches:
        g = batch[0]
        uniform = GemmBatch.uniform(g.m, g.n, g.k, len(batch))
        yield _result_record(simulate_cublas_batched(uniform, VOLTA_V100))


def _all_digests() -> dict[str, str]:
    out = {}
    for set_name, make in CASE_SETS.items():
        batches = make()
        for heuristic in HEURISTICS:
            out[f"{set_name}/{heuristic.value}"] = _digest(
                _coordinated_records(batches, heuristic)
            )
        for name, simulate in BASELINES.items():
            out[f"{set_name}/{name}"] = _digest(_baseline_records(batches, simulate))
        out[f"{set_name}/cublas_batched"] = _digest(_cublas_records(batches))
    inception = CASE_SETS["inception"]()
    for precision in ("fp16", "bf16"):
        out[f"inception@{precision}/threshold"] = _digest(
            _coordinated_records(inception, Heuristic.THRESHOLD, precision)
        )
    return out


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return _all_digests()


def test_every_modeled_number_is_pinned(digests):
    assert set(digests) == set(EXPECTED)
    moved = {k: v for k, v in digests.items() if v != EXPECTED[k]}
    assert not moved, f"modeled numbers changed for: {sorted(moved)}"
