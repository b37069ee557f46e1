"""The engine registry: one name table for every executor.

Two engines execute a schedule, bit-identically: ``reference`` (the
per-slot Figure 7 walk, the oracle) and ``compiled`` (the
precompiled-artifact interpreter, the default).  One table maps each
name to the module and function that execute it; :func:`get_engine`
resolves a name through it, so ``get_engine("compiled") is
execute_compiled``.  The fallback chains the reliability layer walks
sit next to it.

The table holds module *names*: a kernel module is imported only when
its engine is resolved, so importing this registry pulls in **no**
kernel module and the engines stay independently importable (CI
guards this).
"""

from __future__ import annotations

import importlib
from typing import Callable

__all__ = ["ENGINES", "ENGINE_FALLBACKS", "engine_fallbacks", "get_engine"]

#: Engine name -> (module, executor function), resolved lazily.
_EXECUTORS: dict[str, tuple[str, str]] = {
    "reference": ("repro.kernels.persistent", "execute_schedule"),
    "compiled": ("repro.kernels.compiled", "execute_compiled"),
}

#: The recognized execution-engine names.
ENGINES: tuple[str, ...] = tuple(_EXECUTORS)

#: Degradation order per engine: itself first, then the per-slot
#: reference walk (the oracle).  Both engines are bit-identical, so
#: falling back trades only speed.
ENGINE_FALLBACKS: dict[str, tuple[str, ...]] = {
    "compiled": ("compiled", "reference"),
    "reference": ("reference",),
}


def engine_fallbacks(name: str) -> tuple[str, ...]:
    """The fallback chain starting at ``name`` (itself included).

    ``compiled`` degrades to ``reference``; ``reference`` stands alone.
    The serving layer and :class:`~repro.reliability.ReliableExecutor`
    walk this chain when the preferred engine misbehaves.  Raises
    ``ValueError`` for unknown names.
    """
    try:
        return ENGINE_FALLBACKS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution engine {name!r}; choose from {ENGINES}"
        ) from None


def get_engine(name: str, *, injector=None) -> Callable:
    """Resolve an execution-engine name to its executor callable.

    Both engines share the signature ``fn(schedule, batch, operands)
    -> list[np.ndarray]`` and produce bit-identical results;
    ``reference`` is the faithful per-slot Figure 7 walk (the oracle)
    and ``compiled`` the precompiled-artifact interpreter.  Raises
    ``ValueError`` for unknown names.  The returned callable is the
    engine's executor itself (``get_engine("compiled") is
    execute_compiled``).

    ``injector`` is an optional
    :class:`~repro.reliability.FaultInjector` (anything with a
    ``check(site, engine=...)`` method): the returned callable
    evaluates the ``"engine"`` fault site before every execution, so
    chaos tests can make any engine fail or stall deterministically.
    """
    engine_fallbacks(name)  # canonical unknown-engine ValueError
    module_name, attr = _EXECUTORS[name]
    run = getattr(importlib.import_module(module_name), attr)
    if injector is None:
        return run

    def run_with_faults(schedule, batch, operands, *args, **kwargs):
        injector.check("engine", engine=name)
        return run(schedule, batch, operands, *args, **kwargs)

    run_with_faults.__name__ = f"{run.__name__}_faulted"
    run_with_faults.engine = name
    return run_with_faults
