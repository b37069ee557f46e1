"""repro -- A Coordinated Tiling and Batching Framework for Efficient GEMM.

Production-quality Python reproduction of Li et al., PPoPP 2019.  The
package provides:

* the coordinated framework itself
  (:class:`repro.core.framework.CoordinatedFramework`): tiling engine,
  batching engine, random-forest heuristic selector, and the
  auxiliary-array programming interface;
* a GPU execution-model substrate (:mod:`repro.gpu`) standing in for
  the six NVIDIA devices of the paper's evaluation;
* functional NumPy executors (:mod:`repro.kernels`) that run every
  schedule numerically;
* the baselines the paper compares against (:mod:`repro.baselines`);
* the GoogleNet case study (:mod:`repro.nn`);
* workload generators, analysis helpers, and one experiment driver per
  table/figure (:mod:`repro.workloads`, :mod:`repro.analysis`,
  :mod:`repro.experiments`);
* an observability layer (:mod:`repro.telemetry`): span tracing and
  metrics over the whole plan/simulate/execute pipeline, free when
  disabled, exportable to Chrome trace-event JSON;
* an online serving layer (:mod:`repro.serve`): a dynamic batcher,
  admission control, and a worker pool over a shared plan cache, with
  a deterministic virtual-time replay driver and the ``repro-serve``
  CLI.

Quickstart::

    from repro import CoordinatedFramework, GemmBatch, get_device

    batch = GemmBatch.from_shapes([(16, 784, 192), (64, 784, 192)])
    fw = CoordinatedFramework(device=get_device("v100"))
    report = fw.plan(batch)
    print(report.summary())
    print(fw.simulate_plan(report).time_us, "us")
"""

from repro.core import (
    CoordinatedFramework,
    PlanCache,
    Gemm,
    GemmBatch,
    Heuristic,
    PlanOptions,
    Precision,
    Tile,
    TilingStrategy,
    TilingDecision,
    PlanReport,
    BatchSchedule,
    BatchingResult,
    HeuristicSelector,
    default_precision,
    infer_precision,
    select_tiling,
    batch_tiles,
    build_schedule,
    train_default_selector,
)
from repro.gpu import (
    BackendSpec,
    CudaBackend,
    DeviceSpec,
    SramBackend,
    SystolicBackend,
    get_backend,
    get_device,
    list_backends,
    list_devices,
    simulate_kernel,
    occupancy,
    calibrate_tlp_threshold,
)
from repro.baselines import (
    simulate_default,
    simulate_cke,
    simulate_cublas_batched,
    simulate_magma_vbatch,
)
from repro.telemetry import (
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
    write_chrome_trace,
)

__version__ = "1.0.0"

# Kernel executors are re-exported lazily (PEP 562): repro.kernels keeps
# its execution engines importable independently of each other, and the
# package root must not undo that by eagerly importing one of them.
_KERNEL_EXPORTS = (
    "reference_gemm",
    "reference_batched_gemm",
    "tiled_gemm",
    "execute_schedule",
    "execute_compiled",
    "compile_plan",
    "CompiledPlan",
    "get_engine",
    "ENGINES",
    "ExecutionPolicy",
    "verify_outputs",
    "VerificationError",
    "VerificationReport",
)


def __getattr__(name: str):
    if name in _KERNEL_EXPORTS:
        import importlib

        value = getattr(importlib.import_module("repro.kernels"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

__all__ = [
    "CoordinatedFramework",
    "PlanCache",
    "Gemm",
    "GemmBatch",
    "Heuristic",
    "PlanOptions",
    "Precision",
    "default_precision",
    "infer_precision",
    "Tile",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "tracing",
    "write_chrome_trace",
    "TilingStrategy",
    "TilingDecision",
    "PlanReport",
    "BatchSchedule",
    "BatchingResult",
    "HeuristicSelector",
    "select_tiling",
    "batch_tiles",
    "build_schedule",
    "train_default_selector",
    "BackendSpec",
    "CudaBackend",
    "SystolicBackend",
    "SramBackend",
    "get_backend",
    "list_backends",
    "DeviceSpec",
    "get_device",
    "list_devices",
    "simulate_kernel",
    "occupancy",
    "calibrate_tlp_threshold",
    "reference_gemm",
    "reference_batched_gemm",
    "tiled_gemm",
    "execute_schedule",
    "execute_compiled",
    "compile_plan",
    "CompiledPlan",
    "get_engine",
    "ENGINES",
    "ExecutionPolicy",
    "verify_outputs",
    "VerificationError",
    "VerificationReport",
    "simulate_default",
    "simulate_cke",
    "simulate_cublas_batched",
    "simulate_magma_vbatch",
    "__version__",
]
