"""Functional GEMM executors.

These mirror the CUDA kernels of the paper in NumPy so that every
schedule the framework emits can be executed *numerically* and checked
against a reference -- a planning or indexing bug becomes a wrong
answer, not just a wrong simulated time.

* :mod:`repro.kernels.reference` -- plain NumPy GEMM / batched GEMM.
* :mod:`repro.kernels.tiled` -- the single-GEMM tiled kernel of
  Figure 2 (staging buffers standing in for shared memory, per-thread
  register sub-tiles).
* :mod:`repro.kernels.persistent` -- the persistent-threads batched
  kernel of Figure 7, driven by the five auxiliary arrays (the
  ``reference`` execution engine, and the oracle).
* :mod:`repro.kernels.compiled` -- the compiled-plan engine: the
  schedule checked once and compiled into a flat :class:`CompiledPlan`
  artifact, which the schedule keeps -- each GEMM's shape and BK chunk
  table, no buffers --
  executed by a minimal allocation-free loop in the executing thread's
  one staging arena, to which each thread binds an artifact on its
  first run (the ``compiled`` execution engine and the default;
  bit-identical to the reference walk, and much faster).

Engine names live in the registry (:mod:`repro.kernels.engine` --
``ENGINES``, ``ENGINE_FALLBACKS`` and :func:`get_engine`, which maps a
name to its executor callable) and execution configuration in
:class:`~repro.kernels.policy.ExecutionPolicy`; both are stdlib-only
and re-exported eagerly here.  Kernel submodules are imported lazily
(PEP 562) so the two engines stay importable without each other --
``import repro.kernels.compiled`` must not drag in
``repro.kernels.persistent``, so the oracle stays independent (CI
guards this).
"""

from __future__ import annotations

from repro.kernels.engine import (
    ENGINES,
    ENGINE_FALLBACKS,
    engine_fallbacks,
    get_engine,
)
from repro.kernels.policy import ExecutionPolicy

_EXPORTS = {
    "reference_gemm": ("repro.kernels.reference", "reference_gemm"),
    "reference_batched_gemm": ("repro.kernels.reference", "reference_batched_gemm"),
    "tiled_gemm": ("repro.kernels.tiled", "tiled_gemm"),
    "compute_tile": ("repro.kernels.tiled", "compute_tile"),
    "thread_level_tile": ("repro.kernels.tiled", "thread_level_tile"),
    "execute_schedule": ("repro.kernels.persistent", "execute_schedule"),
    "execute_compiled": ("repro.kernels.compiled", "execute_compiled"),
    "compile_plan": ("repro.kernels.compiled", "compile_plan"),
    "compiled_plan_for": ("repro.kernels.compiled", "compiled_plan_for"),
    "CompiledPlan": ("repro.kernels.compiled", "CompiledPlan"),
    "CompiledGemm": ("repro.kernels.compiled", "CompiledGemm"),
    "verify_outputs": ("repro.kernels.verify", "verify_outputs"),
    "VerificationError": ("repro.kernels.verify", "VerificationError"),
    "VerificationReport": ("repro.kernels.verify", "VerificationReport"),
}

__all__ = [
    "ENGINES",
    "ENGINE_FALLBACKS",
    "ExecutionPolicy",
    "engine_fallbacks",
    "get_engine",
    *_EXPORTS,
]


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
