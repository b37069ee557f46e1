"""Mixed-precision execution across every strategy, on the compiled engine.

The contract under test (tentpole of the precision-honest tiling PR):

* **fp32** stays bit-exact: for each of the twelve Table-2 strategies,
  the compiled engine produces byte-identical outputs to the reference
  persistent-threads walk (pinned by sha256 digest equality over the
  raw output bytes, not just allclose).
* **fp16 / bf16** execute mixed precision *for real*: operands are
  staged on the storage grid, engines accumulate in FP64, and the
  result passes the tolerance-bounded verifier
  (:func:`repro.kernels.verify.verify_outputs`) against the FP64
  epilogue over the staged operands -- on all twelve strategies.
* The verifier itself fails loudly when an output is corrupted.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.precision import (
    Precision,
    quantize_operands,
    quantize_outputs,
)
from repro.core.problem import Gemm, GemmBatch
from repro.core.schedule import BatchSchedule
from repro.core.tiling import ALL_BATCHED_STRATEGIES
from repro.kernels import get_engine
from repro.kernels.persistent import execute_schedule
from repro.kernels.verify import VerificationError, verify_outputs

ENGINES_UNDER_TEST = ("compiled",)
PRECISIONS = (Precision.FP32, Precision.FP16, Precision.BF16)


def forced_schedule(batch: GemmBatch, strategy_index: int) -> BatchSchedule:
    """A one-block schedule tiling every GEMM with one strategy.

    The planner picks strategies by shape; pinning each of the twelve
    table entries requires building the five arrays by hand (the
    executors read only the arrays, exactly like the device kernel).
    """
    strat = ALL_BATCHED_STRATEGIES[strategy_index]
    gemm_ids, y_coords, x_coords = [], [], []
    for gi, gemm in enumerate(batch):
        grid_y = -(-gemm.m // strat.by)
        grid_x = -(-gemm.n // strat.bx)
        for ty in range(grid_y):
            for tx in range(grid_x):
                gemm_ids.append(gi)
                y_coords.append(ty)
                x_coords.append(tx)
    n = len(gemm_ids)
    return BatchSchedule(
        tile_offsets=np.array([0, n], dtype=np.int32),
        gemm_ids=np.array(gemm_ids, dtype=np.int32),
        strategy_ids=np.full(n, strategy_index, dtype=np.int32),
        y_coords=np.array(y_coords, dtype=np.int32),
        x_coords=np.array(x_coords, dtype=np.int32),
        threads_per_block=strat.threads,
        shared_memory_bytes=strat.shared_memory_bytes,
        registers_per_thread=strat.registers_per_thread,
    )


def ragged_batch(strategy_index: int) -> GemmBatch:
    """Two GEMMs whose edges straddle the strategy's tile grid."""
    strat = ALL_BATCHED_STRATEGIES[strategy_index]
    return GemmBatch(
        [
            Gemm(strat.by + 3, strat.bx + 5, 19, alpha=1.5, beta=0.5),
            Gemm(strat.by, strat.bx, strat.bk, trans_a=True),
        ]
    )


def staged_operands(batch: GemmBatch, precision: Precision, seed: int = 0):
    """Random operands staged at ``precision``'s storage grid."""
    rng = np.random.default_rng(seed)
    ops = batch.random_operands(rng)
    if precision is Precision.FP32:
        return ops
    return quantize_operands(ops, precision)


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("strategy_index", range(len(ALL_BATCHED_STRATEGIES)))
def test_fp32_bit_identical_sha256_across_engines(strategy_index):
    """fp32: every engine's output bytes hash identically to reference."""
    batch = ragged_batch(strategy_index)
    schedule = forced_schedule(batch, strategy_index)
    ops = staged_operands(batch, Precision.FP32)
    want = digest(execute_schedule(schedule, batch, ops))
    for name in ENGINES_UNDER_TEST:
        got = get_engine(name)(schedule, batch, ops)
        assert digest(got) == want, (
            f"{name} diverges from the reference walk on strategy "
            f"{ALL_BATCHED_STRATEGIES[strategy_index]} (fp32 is bit-exact)"
        )


@pytest.mark.parametrize("engine", ENGINES_UNDER_TEST)
@pytest.mark.parametrize("precision", (Precision.FP16, Precision.BF16))
@pytest.mark.parametrize("strategy_index", range(len(ALL_BATCHED_STRATEGIES)))
def test_reduced_precision_within_tolerance(strategy_index, precision, engine):
    """fp16/bf16: staged execution verifies on every strategy/engine."""
    batch = ragged_batch(strategy_index)
    schedule = forced_schedule(batch, strategy_index)
    staged = staged_operands(batch, precision)
    outputs = get_engine(engine)(schedule, batch, staged)
    outputs = quantize_outputs(outputs, precision)
    report = verify_outputs(
        batch, staged, outputs, precision, raise_on_failure=True
    )
    assert report.ok and report.mode == "tolerance"
    assert report.checked == len(batch)
    # The bound is meaningful: error is nonzero but inside tolerance.
    atol, rtol = precision.tolerance
    assert report.max_abs_err <= atol + rtol * 1e3


@pytest.mark.parametrize("precision", (Precision.FP16, Precision.BF16))
def test_outputs_live_on_the_storage_grid(precision):
    """Executed+quantized outputs are representable at the precision."""
    batch = ragged_batch(2)
    schedule = forced_schedule(batch, 2)
    staged = staged_operands(batch, precision)
    outputs = get_engine("compiled")(schedule, batch, staged)
    outputs = quantize_outputs(outputs, precision)
    for out in outputs:
        requantized = precision.quantize(np.asarray(out, dtype=np.float64))
        assert np.array_equal(
            np.asarray(out, dtype=requantized.dtype), requantized
        )


def test_verifier_catches_corruption_tolerance():
    """A clobbered element fails fp16 verification loudly."""
    batch = ragged_batch(1)
    schedule = forced_schedule(batch, 1)
    staged = staged_operands(batch, Precision.FP16)
    outputs = get_engine("compiled")(schedule, batch, staged)
    outputs = [np.array(o) for o in outputs]
    outputs[0][0, 0] += 1000.0
    report = verify_outputs(batch, staged, outputs, Precision.FP16)
    assert not report.ok and report.failures == (0,)
    with pytest.raises(VerificationError, match="fp16 verification failed"):
        verify_outputs(
            batch, staged, outputs, Precision.FP16, raise_on_failure=True
        )


def test_verifier_catches_corruption_bit_exact():
    """A single flipped ULP fails fp32 (bit-exact) verification."""
    batch = ragged_batch(1)
    schedule = forced_schedule(batch, 1)
    ops = staged_operands(batch, Precision.FP32)
    outputs = [np.array(o) for o in execute_schedule(schedule, batch, ops)]
    outputs[1].flat[0] = np.nextafter(
        outputs[1].flat[0], np.float32(np.inf), dtype=outputs[1].dtype
    )
    report = verify_outputs(
        batch, ops, outputs, Precision.FP32, schedule=schedule
    )
    assert not report.ok and report.failures == (1,)
    assert report.mode == "bit-exact"


def test_fp32_verification_requires_schedule():
    batch = ragged_batch(0)
    schedule = forced_schedule(batch, 0)
    ops = staged_operands(batch, Precision.FP32)
    outputs = execute_schedule(schedule, batch, ops)
    with pytest.raises(ValueError, match="needs the executed schedule"):
        verify_outputs(batch, ops, outputs, Precision.FP32)


@pytest.mark.parametrize("engine", ENGINES_UNDER_TEST)
@pytest.mark.parametrize("precision", ("fp32", "fp16", "bf16"))
def test_framework_execute_with_verify_policy(precision, engine):
    """End-to-end: plan + stage + execute + verify through the framework."""
    from repro.core.framework import CoordinatedFramework
    from repro.core.options import PlanOptions
    from repro.kernels.policy import ExecutionPolicy

    framework = CoordinatedFramework()
    batch = GemmBatch([Gemm(48, 48, 32), Gemm(96, 64, 48, alpha=2.0)])
    rng = np.random.default_rng(7)
    ops = batch.random_operands(rng)
    values = framework.execute(
        batch,
        options=PlanOptions(precision=precision),
        operands=ops,
        policy=ExecutionPolicy(engine=engine, verify=True),
    )
    assert len(values) == len(batch)
    if precision == "fp32":
        # Bit-exact against an unverified reference-walk run pinned to
        # the same dtype (pinned, so a REPRO_DTYPE smoke env cannot skew
        # the oracle).
        plain = framework.execute(
            batch,
            options=PlanOptions(precision="fp32"),
            operands=ops,
            policy=ExecutionPolicy(engine="reference"),
        )
        for got, want in zip(values, plain):
            assert np.array_equal(got, want)


def test_plancache_execute_with_verify_policy():
    from repro.core.framework import CoordinatedFramework
    from repro.core.options import PlanOptions
    from repro.core.plancache import PlanCache
    from repro.kernels.policy import ExecutionPolicy

    cache = PlanCache(CoordinatedFramework(), capacity=8)
    batch = GemmBatch([Gemm(40, 40, 24)])
    ops = batch.random_operands(np.random.default_rng(3))
    for precision in ("fp32", "fp16", "bf16"):
        values = cache.execute(
            batch,
            options=PlanOptions(precision=precision),
            operands=ops,
            policy=ExecutionPolicy(verify=True),
        )
        assert len(values) == 1
    # One dtype-qualified entry per precision: no collisions.
    assert len(cache) == 3
