"""Fault tolerance for the plan/execute/serve pipeline.

The serving stack built on the coordinated framework only pays off in
production if it survives real failures.  This package provides the
reliability primitives the pipeline wires together:

* :mod:`repro.reliability.faults` -- a deterministic, seeded
  **fault-injection harness** (:class:`FaultPlan` /
  :class:`FaultInjector`): raise-on-Nth-call, per-engine errors,
  seeded failure rates, and slow-call latency, reproducible
  byte-for-byte across runs;
* :mod:`repro.reliability.retry` -- :class:`RetryPolicy`, capped
  exponential backoff with deterministic jitter;
* :mod:`repro.reliability.breaker` -- per-engine
  :class:`CircuitBreaker` (closed / open / half-open);
* :mod:`repro.reliability.executor` -- :class:`ReliableExecutor`,
  the retrying, breaker-guarded engine **fallback chain**
  (``compiled`` -> ``reference``) used by
  :meth:`CoordinatedFramework.execute` and the serving layer.

Chaos quickstart::

    from repro.reliability import FaultPlan, FaultInjector, ReliableExecutor

    plan = FaultPlan.parse(["engine_error:engine=compiled,every=3"], seed=7)
    executor = ReliableExecutor("compiled", injector=FaultInjector(plan))
    values, engine_used = executor.execute(report.schedule, batch, operands)

See ``docs/reliability.md`` for the fault model, retry/breaker/
fallback semantics, and the rejection-reason taxonomy.
"""

from repro.reliability.breaker import BreakerState, CircuitBreaker
from repro.reliability.executor import EngineUnavailable, ReliableExecutor
from repro.reliability.faults import (
    SITE_ENGINE,
    SITE_PLANNER,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.reliability.retry import RetryPolicy

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "EngineUnavailable",
    "ReliableExecutor",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
    "SITE_ENGINE",
    "SITE_PLANNER",
]
