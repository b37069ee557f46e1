"""The typed engine registry: one surface for every executor.

Before this module, the ``execute_*`` entry points (reference walk,
grouped, compiled, strided) were free functions that
:func:`repro.kernels.get_engine` mapped names onto with ad-hoc
``if``/``elif`` logic, and the reliability layer kept its own
``ENGINE_FALLBACKS`` table alongside.  Each new engine meant touching
every consumer.  This module gives each engine a small typed object --
the :class:`Engine` protocol -- so ``get_engine()``, the fallback
chains, the serving layer, and the CLIs all share one registry:

* ``name`` -- the stable string identity used in configs and CLIs;
* ``lower(schedule, batch)`` -- derive the engine's per-schedule
  artifact (a ``GroupedPlan``, a ``CompiledPlan``; the reference walk
  has none and returns ``None``);
* ``run(schedule, batch, operands)`` -- execute, bit-identical across
  all engines;
* ``runner()`` -- the raw executor callable, preserving the
  historical :func:`repro.kernels.get_engine` identity semantics
  (``runner()`` *is* ``execute_grouped`` for the grouped engine, so
  existing ``get_engine("grouped") is execute_grouped`` assertions and
  pickling behaviour keep working).

Engine implementations import their kernel modules lazily inside
methods, so importing this registry pulls in **no** kernel module --
the engines stay independently importable (CI guards this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

__all__ = [
    "ENGINES",
    "ENGINE_FALLBACKS",
    "Engine",
    "engine_fallbacks",
    "get_engine_object",
]


@runtime_checkable
class Engine(Protocol):
    """The uniform surface every execution engine implements.

    All engines are bit-identical: ``run`` produces the same outputs
    for the same schedule/batch/operands regardless of which engine
    executes (the equivalence suites pin this).  They differ only in
    speed and in what :meth:`lower` precomputes.
    """

    name: str

    def lower(self, schedule: Any, batch: Any) -> Any:
        """The engine's memoized per-schedule artifact (or ``None``)."""
        ...

    def run(
        self, schedule: Any, batch: Any, operands: Sequence, **kwargs: Any
    ) -> list:
        """Execute a batch schedule; bit-identical across engines."""
        ...

    def runner(self) -> Callable:
        """The raw executor callable."""
        ...


@dataclass(frozen=True)
class ReferenceEngine:
    """The per-slot Figure 7 walk (the oracle); no lowered artifact."""

    name: str = "reference"

    def lower(self, schedule, batch):
        """The reference walk interprets the arrays directly: ``None``."""
        return None

    def run(self, schedule, batch, operands, **kwargs):
        """Execute via :func:`repro.kernels.persistent.execute_schedule`."""
        return self.runner()(schedule, batch, operands, **kwargs)

    def runner(self) -> Callable:
        """``execute_schedule`` itself (identity preserved for callers)."""
        from repro.kernels.persistent import execute_schedule

        return execute_schedule


@dataclass(frozen=True)
class GroupedEngine:
    """The grouped vectorized engine; lowers to a ``GroupedPlan``."""

    name: str = "grouped"

    def lower(self, schedule, batch):
        """The memoized :class:`~repro.kernels.grouped.GroupedPlan`."""
        from repro.kernels.grouped import grouped_plan_for

        return grouped_plan_for(schedule, batch)

    def run(self, schedule, batch, operands, **kwargs):
        """Execute via :func:`repro.kernels.grouped.execute_grouped`."""
        return self.runner()(schedule, batch, operands, **kwargs)

    def runner(self) -> Callable:
        """``execute_grouped`` itself (identity preserved for callers)."""
        from repro.kernels.grouped import execute_grouped

        return execute_grouped


@dataclass(frozen=True)
class CompiledEngine:
    """The compiled-plan engine; lowers to a ``CompiledPlan`` artifact."""

    name: str = "compiled"

    def lower(self, schedule, batch):
        """The memoized :class:`~repro.kernels.compiled.CompiledPlan`."""
        from repro.kernels.compiled import compiled_plan_for

        return compiled_plan_for(schedule, batch)

    def run(self, schedule, batch, operands, **kwargs):
        """Execute via :func:`repro.kernels.compiled.execute_compiled`."""
        return self.runner()(schedule, batch, operands, **kwargs)

    def runner(self) -> Callable:
        """``execute_compiled`` itself (identity preserved for callers)."""
        from repro.kernels.compiled import execute_compiled

        return execute_compiled


_REGISTRY: dict[str, Engine] = {
    e.name: e for e in (ReferenceEngine(), GroupedEngine(), CompiledEngine())
}

#: The recognized execution-engine names.
ENGINES: tuple[str, ...] = tuple(_REGISTRY)

#: Degradation order per engine: itself first, then progressively
#: simpler engines ending at the per-slot reference walk (the oracle).
#: Every engine is bit-identical, so falling back trades only speed.
ENGINE_FALLBACKS: dict[str, tuple[str, ...]] = {
    "compiled": ("compiled", "grouped", "reference"),
    "grouped": ("grouped", "reference"),
    "reference": ("reference",),
}


def get_engine_object(name: str) -> Engine:
    """The :class:`Engine` registered under ``name``.

    Raises ``ValueError`` for unknown names (same message contract as
    :func:`repro.kernels.get_engine`).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown execution engine {name!r}; choose from {ENGINES}"
        ) from None


def engine_fallbacks(name: str) -> tuple[str, ...]:
    """The fallback chain starting at ``name`` (itself included).

    ``compiled`` degrades to ``grouped`` then ``reference``;
    ``grouped`` to ``reference``; ``reference`` stands alone.  The
    serving layer and :class:`~repro.reliability.ReliableExecutor`
    walk this chain when the preferred engine misbehaves.
    """
    get_engine_object(name)  # canonical unknown-engine ValueError
    return ENGINE_FALLBACKS[name]
