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
* :mod:`repro.kernels.grouped` -- the grouped vectorized engine: the
  same schedule lowered to bulk batched-matmul groups (the ``grouped``
  execution engine; bit-identical to the reference, much faster).
* :mod:`repro.kernels.compiled` -- the compiled-plan engine: the
  schedule lowered once into a flat :class:`CompiledPlan` artifact
  with preallocated scratch, executed by a minimal allocation-free
  interpreter loop (the ``compiled`` execution engine; bit-identical
  to ``grouped``, fastest steady state).

Engine identity lives in the typed registry
(:mod:`repro.kernels.engine` -- the :class:`Engine` protocol,
``ENGINES``, ``ENGINE_FALLBACKS``) and execution configuration in
:class:`~repro.kernels.policy.ExecutionPolicy`; both are stdlib-only
and re-exported eagerly here.  Kernel submodules are imported lazily
(PEP 562) so the engines stay importable without each other --
``import repro.kernels.grouped`` must not drag in
``repro.kernels.persistent`` or vice versa, and
``repro.kernels.compiled`` (which builds on ``grouped``) must not drag
in ``persistent`` either (CI guards this).  Use :func:`get_engine` to
resolve an engine name to its executor callable, or
:func:`get_engine_object` for the typed :class:`Engine`.
"""

from __future__ import annotations

from repro.kernels.engine import (
    ENGINES,
    ENGINE_FALLBACKS,
    Engine,
    engine_fallbacks,
    get_engine_object,
)
from repro.kernels.policy import ExecutionPolicy, coerce_policy

_EXPORTS = {
    "reference_gemm": ("repro.kernels.reference", "reference_gemm"),
    "reference_batched_gemm": ("repro.kernels.reference", "reference_batched_gemm"),
    "tiled_gemm": ("repro.kernels.tiled", "tiled_gemm"),
    "compute_tile": ("repro.kernels.tiled", "compute_tile"),
    "thread_level_tile": ("repro.kernels.tiled", "thread_level_tile"),
    "execute_schedule": ("repro.kernels.persistent", "execute_schedule"),
    "execute_grouped": ("repro.kernels.grouped", "execute_grouped"),
    "lower_schedule": ("repro.kernels.grouped", "lower_schedule"),
    "grouped_plan_for": ("repro.kernels.grouped", "grouped_plan_for"),
    "GroupedPlan": ("repro.kernels.grouped", "GroupedPlan"),
    "TileGroup": ("repro.kernels.grouped", "TileGroup"),
    "execute_compiled": ("repro.kernels.compiled", "execute_compiled"),
    "compile_plan": ("repro.kernels.compiled", "compile_plan"),
    "compiled_plan_for": ("repro.kernels.compiled", "compiled_plan_for"),
    "CompiledPlan": ("repro.kernels.compiled", "CompiledPlan"),
    "CompiledGemm": ("repro.kernels.compiled", "CompiledGemm"),
    "PlanMemo": ("repro.kernels.memo", "PlanMemo"),
    "MemoStats": ("repro.kernels.memo", "MemoStats"),
    "verify_outputs": ("repro.kernels.verify", "verify_outputs"),
    "VerificationError": ("repro.kernels.verify", "VerificationError"),
    "VerificationReport": ("repro.kernels.verify", "VerificationReport"),
}

__all__ = [
    "ENGINES",
    "ENGINE_FALLBACKS",
    "Engine",
    "ExecutionPolicy",
    "coerce_policy",
    "engine_fallbacks",
    "get_engine",
    "get_engine_object",
    *_EXPORTS,
]


def get_engine(name: str, *, injector=None):
    """Resolve an execution-engine name to its executor callable.

    All engines share the signature ``fn(schedule, batch, operands)
    -> list[np.ndarray]`` and produce bit-identical results;
    ``reference`` is the faithful per-slot Figure 7 walk (the oracle),
    ``grouped`` the vectorized bulk engine, ``compiled`` the
    precompiled-artifact interpreter.  Raises ``ValueError`` for
    unknown names.  Resolution goes through the typed registry
    (:func:`get_engine_object`); the returned callable preserves the
    historical identities (``get_engine("grouped") is
    execute_grouped`` and so on).

    ``injector`` is an optional
    :class:`~repro.reliability.FaultInjector` (anything with a
    ``check(site, engine=...)`` method): the returned callable
    evaluates the ``"engine"`` fault site before every execution, so
    chaos tests can make any engine fail or stall deterministically.
    """
    run = get_engine_object(name).runner()
    if injector is None:
        return run

    def run_with_faults(schedule, batch, operands, *args, **kwargs):
        injector.check("engine", engine=name)
        return run(schedule, batch, operands, *args, **kwargs)

    run_with_faults.__name__ = f"{run.__name__}_faulted"
    run_with_faults.engine = name
    return run_with_faults


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
