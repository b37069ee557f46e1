"""Backend admission models: CUDA, systolic, SRAM-budgeted.

Property tests for the pluggable :class:`~repro.gpu.backends.BackendSpec`
layer: systolic utilization is a true fraction (<= 1, exactly 1 only
for array-aligned tiles), the SRAM backend never admits a strategy
whose footprint exceeds its budget, and -- the tentpole property --
precision *changes the candidate pools* on the constrained backends
while the CUDA pools stay exactly the published Table-2 tables (the
bit-identical fp32-V100 guarantee).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import CoordinatedFramework
from repro.core.options import PlanOptions
from repro.core.precision import Precision, quantize_operands, quantize_outputs
from repro.core.problem import Gemm, GemmBatch
from repro.core.tiling import (
    ALL_BATCHED_STRATEGIES,
    BATCHED_STRATEGIES_128,
    BATCHED_STRATEGIES_256,
    select_tiling,
)
from repro.gpu.backends import (
    BackendSpec,
    CudaBackend,
    SramBackend,
    SystolicBackend,
    get_backend,
    list_backends,
)
from repro.gpu.specs import VOLTA_V100, get_device
from repro.kernels import get_engine
from repro.kernels.verify import verify_outputs

PRECISIONS = (Precision.FP32, Precision.FP16, Precision.BF16)


# -- protocol ---------------------------------------------------------


@pytest.mark.parametrize(
    "backend", [CudaBackend(), SystolicBackend(), SramBackend()]
)
def test_backends_satisfy_the_protocol(backend):
    assert isinstance(backend, BackendSpec)
    assert isinstance(backend.name, str) and backend.name
    assert backend.device.num_sms > 0
    for prec in PRECISIONS:
        pool256, pool128 = backend.strategy_pools(prec)
        assert pool256 and pool128  # never filtered to nothing
        # Pools are same-ordered subsets of the published tables.
        assert [s.name for s in pool256] == [
            s.name for s in BATCHED_STRATEGIES_256 if s in pool256
        ]
        for s in pool256:
            assert s in BATCHED_STRATEGIES_256
        for s in pool128:
            assert s in BATCHED_STRATEGIES_128


# -- CUDA: the identity backend ---------------------------------------


@pytest.mark.parametrize("precision", PRECISIONS)
def test_cuda_pools_are_exactly_the_tables(precision):
    """Every Table-2 strategy fits CUDA shared memory at any width."""
    pool256, pool128 = CudaBackend().strategy_pools(precision)
    assert pool256 is BATCHED_STRATEGIES_256
    assert pool128 is BATCHED_STRATEGIES_128


def test_cuda_backend_select_tiling_matches_backendless_path():
    """fp32 planning through the backend is bit-identical to without."""
    batch = GemmBatch([Gemm(64, 784, 192), Gemm(512, 512, 512), Gemm(16, 16, 16)])
    plain = select_tiling(batch, 65536)
    routed = select_tiling(batch, 65536, backend=CudaBackend(), precision="fp32")
    assert plain == routed


# -- systolic: utilization admission ----------------------------------


def test_systolic_utilization_is_a_fraction():
    backend = SystolicBackend()
    for strat in ALL_BATCHED_STRATEGIES:
        u = backend.utilization(strat)
        assert 0.0 < u <= 1.0, f"{strat}: utilization {u} out of (0, 1]"


def test_systolic_aligned_tile_has_unit_utilization():
    backend = SystolicBackend(array_rows=128, array_cols=128)
    for strat in ALL_BATCHED_STRATEGIES:
        u = backend.utilization(strat)
        if strat.by % 128 == 0 and strat.bx % 128 == 0:
            assert u == 1.0
        else:
            assert u < 1.0


def test_systolic_default_pool_drops_small_tiles():
    """128x128 array at 0.25 keeps only {large, tall, wide, huge}."""
    pool256, pool128 = SystolicBackend().strategy_pools("fp32")
    assert [s.name for s in pool256] == ["large", "tall", "wide", "huge"]
    assert [s.name for s in pool128] == ["large", "tall", "wide", "huge"]


def test_systolic_pools_never_empty():
    """An array larger than every tile still leaves one candidate."""
    backend = SystolicBackend(array_rows=1024, array_cols=1024)
    for prec in PRECISIONS:
        pool256, pool128 = backend.strategy_pools(prec)
        assert len(pool256) >= 1 and len(pool128) >= 1


# -- SRAM: budgeted admission (where dtype changes the decision) ------


@pytest.mark.parametrize("precision", PRECISIONS)
def test_sram_admitted_strategies_respect_the_budget(precision):
    backend = SramBackend()
    pool256, pool128 = backend.strategy_pools(precision)
    for strat in pool256 + pool128:
        assert (
            backend.tile_footprint_bytes(strat, precision)
            <= backend.sram_budget_bytes
        )


def test_sram_half_width_admits_more():
    """The tentpole property: precision changes the candidate pools."""
    backend = SramBackend()
    names32 = {s.name for s in backend.strategy_pools("fp32")[0]}
    names16 = {s.name for s in backend.strategy_pools("fp16")[0]}
    namesbf = {s.name for s in backend.strategy_pools("bf16")[0]}
    assert names32 == {"small", "medium", "large"}
    assert names16 == names32 | {"tall", "wide"}
    assert namesbf == names16  # same storage width as fp16
    # huge never fits: its FP32 accumulator alone is 64 KB.
    assert "huge" not in names16


def test_sram_dtype_changes_the_selected_strategy():
    """A tall GEMM tiles differently at fp16 than at fp32 on SRAM.

    At a TLP target that forces escalation past ``large``, the fp32
    pool is exhausted (no tall/wide within budget at full width) and
    falls back to the 128-thread table, while fp16's halved staging
    admits ``tall`` and stays in the 256-thread pool -- strategy *and*
    unified thread count both change with dtype alone.
    """
    batch = GemmBatch([Gemm(1024, 64, 256)])
    backend = SramBackend()
    fp32 = select_tiling(batch, 4095, backend=backend, precision="fp32")
    fp16 = select_tiling(batch, 4095, backend=backend, precision="fp16")
    assert fp32.strategies[0].name == "large"
    assert fp32.threads == 128
    assert fp16.strategies[0].name == "tall"
    assert fp16.threads == 256


# -- the pinned mixed batch, planned and run end to end ----------------

#: A tall GEMM (the dtype-sensitive case on SRAM), a square one, the
#: paper's worked GoogleNet shape and a small one.
PINNED_MIXED = GemmBatch(
    [Gemm(1024, 64, 256), Gemm(256, 256, 128), Gemm(64, 784, 192), Gemm(128, 128, 64)]
)


def test_backend_and_dtype_change_the_planned_strategies():
    """Some backend/dtype cell plans differently from fp32 on the V100.

    At a TLP target that forces escalation past ``large``, the pools
    disagree: otherwise the backend admission layer would be
    decoration.  The headline cell is SRAM, whose fp16 plan differs
    from its fp32 plan.
    """
    selected = {
        (backend, precision): [
            s.name
            for s in CoordinatedFramework(backend=backend)
            .plan(PINNED_MIXED, PlanOptions(precision=precision, tlp_threshold=4095))
            .decision.strategies
        ]
        for backend in ("cuda:Tesla V100", "systolic:128x128", "sram:40k")
        for precision in ("fp32", "fp16", "bf16")
    }
    baseline = selected["cuda:Tesla V100", "fp32"]
    assert any(names != baseline for names in selected.values())
    assert selected["sram:40k", "fp16"] != selected["sram:40k", "fp32"]


def test_fp16_run_of_the_pinned_batch_verifies():
    """The fp16 plan runs on ``compiled`` within tolerance, not exactly."""
    report = CoordinatedFramework().plan(PINNED_MIXED, PlanOptions(precision="fp16"))
    staged = quantize_operands(
        PINNED_MIXED.random_operands(np.random.default_rng(0)), Precision.FP16
    )
    outputs = quantize_outputs(
        get_engine("compiled")(report.schedule, PINNED_MIXED, staged), Precision.FP16
    )
    verification = verify_outputs(
        PINNED_MIXED, staged, outputs, Precision.FP16, raise_on_failure=True
    )
    assert verification.max_abs_err > 0.0


def test_sram_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        SramBackend(sram_budget_bytes=0)


# -- registry ---------------------------------------------------------


def test_get_backend_spellings():
    assert isinstance(get_backend("cuda"), CudaBackend)
    assert get_backend("cuda:p100").spec == get_device("p100")
    assert isinstance(get_backend("tpu"), SystolicBackend)
    sys32 = get_backend("systolic:32x64")
    assert (sys32.array_rows, sys32.array_cols) == (32, 64)
    assert isinstance(get_backend("cktile"), SramBackend)
    assert get_backend("sram:64k").sram_budget_bytes == 64 * 1024
    assert list_backends()


def test_get_backend_round_trips_canonical_names():
    """Every backend's ``name`` resolves back to an equal backend."""
    for backend in (
        CudaBackend(),
        CudaBackend(VOLTA_V100),
        SystolicBackend(),
        SystolicBackend(array_rows=64, array_cols=64),
        SramBackend(),
        SramBackend(sram_budget_bytes=64 * 1024),
    ):
        again = get_backend(backend.name)
        assert again.name == backend.name
        assert again.device == backend.device


def test_get_backend_passes_specs_through():
    backend = SramBackend()
    assert get_backend(backend) is backend


def test_get_backend_errors():
    with pytest.raises(KeyError):
        get_backend("nvlink")
    with pytest.raises(KeyError):
        get_backend("systolic:banana")
    with pytest.raises(KeyError):
        get_backend("sram:large")
    with pytest.raises(TypeError):
        get_backend(128)


# -- options integration ----------------------------------------------


def test_plan_options_normalize_backend_spellings():
    from repro.core.options import PlanOptions

    opts = PlanOptions(backend="tpu")
    assert opts.backend == "systolic:128x128"
    assert PlanOptions(backend=None).backend is None
    with pytest.raises(KeyError):
        PlanOptions(backend="warpspeed")


def test_cache_key_separates_backend_and_precision():
    from repro.core.options import PlanOptions

    keys = {
        PlanOptions().resolved(256, 65536, "fp32", "cuda:Tesla V100").cache_key(),
        PlanOptions().resolved(256, 65536, "fp16", "cuda:Tesla V100").cache_key(),
        PlanOptions().resolved(256, 65536, "fp32", "sram:40k").cache_key(),
        PlanOptions().resolved(256, 65536, "fp16", "sram:40k").cache_key(),
    }
    assert len(keys) == 4
