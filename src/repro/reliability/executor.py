"""The reliable executor: retry + circuit breakers + engine fallback.

Stream-K++ and tritonBLAS both argue the same point from different
angles: an analytically *selected* kernel configuration needs a safety
net for the cases where the selection misbehaves.  Here the selection
is the execution engine (``compiled`` -> ``reference``; the per-slot
reference walk is the simpler, more battle-tested oracle), and the
safety net is :class:`ReliableExecutor`:

1. run the preferred engine; on failure, **retry** per the
   :class:`~repro.reliability.retry.RetryPolicy` (transient faults);
2. count failures into the engine's
   :class:`~repro.reliability.breaker.CircuitBreaker`; once it opens,
   skip the engine entirely until its cooldown elapses (systematic
   faults);
3. when an engine's retries exhaust or its breaker is open, **fall
   back** to the next engine in the chain.

The *last* engine in the chain is always attempted regardless of its
breaker state -- the breaker's job is to shed load off broken
preferred engines, not to turn a request away when a working oracle
remains.  Both engines produce bit-identical results (the
equivalence suites pin it), so falling back changes latency, never
answers.

Thread-safe; one executor is shared by all of a server's workers so
breaker state and counts are process-wide per server.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, Sequence

from repro.kernels import engine_fallbacks, get_engine
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.faults import FaultInjector
from repro.reliability.retry import RetryPolicy

__all__ = ["EngineUnavailable", "ReliableExecutor"]


class EngineUnavailable(RuntimeError):
    """No engine in the fallback chain could serve the batch.

    Distinguished from data-dependent engine failures so callers (the
    serving layer's poison-batch bisection) know splitting the batch
    cannot help.
    """


class ReliableExecutor:
    """Executes batches through a retrying, breaker-guarded engine chain."""

    def __init__(
        self,
        engine: str = "compiled",
        *,
        retry: Optional[RetryPolicy] = None,
        fallback: bool = True,
        failure_threshold: int = 5,
        cooldown_s: float = 1.0,
        injector: Optional[FaultInjector] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.engine = engine
        self.chain: tuple[str, ...] = (
            engine_fallbacks(engine) if fallback else (engine,)
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.injector = injector
        self._sleep = sleep
        self.breakers: dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                name,
                failure_threshold=failure_threshold,
                cooldown_s=cooldown_s,
                clock=clock,
            )
            for name in self.chain
        }
        self._lock = threading.Lock()
        self._executions = 0
        self._retries = 0
        self._fallbacks = 0
        self._budget_abandoned = 0
        self._engine_used: dict[str, int] = {}

    @classmethod
    def from_policy(
        cls,
        policy,
        *,
        failure_threshold: int = 5,
        cooldown_s: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> "ReliableExecutor":
        """Build an executor from an :class:`~repro.kernels.ExecutionPolicy`.

        The policy supplies the engine, retry policy, fallback flag and
        fault injector; breaker tuning and the sleep/clock hooks stay
        keyword arguments (they belong to the runtime, not to the
        portable policy object).
        """
        return cls(
            policy.engine,
            retry=policy.retry,
            fallback=policy.fallback,
            failure_threshold=failure_threshold,
            cooldown_s=cooldown_s,
            injector=policy.injector,
            sleep=sleep,
            clock=clock,
        )

    # -- counters -----------------------------------------------------

    @property
    def retries(self) -> int:
        with self._lock:
            return self._retries

    @property
    def fallbacks(self) -> int:
        with self._lock:
            return self._fallbacks

    def snapshot(self) -> dict:
        """Counts and breaker states (JSON-compatible; feeds health)."""
        with self._lock:
            counts = {
                "engine": self.engine,
                "chain": list(self.chain),
                "executions": self._executions,
                "retries": self._retries,
                "fallbacks": self._fallbacks,
                "budget_abandoned": self._budget_abandoned,
                "engine_used": dict(sorted(self._engine_used.items())),
            }
        counts["breakers"] = {
            name: breaker.snapshot() for name, breaker in self.breakers.items()
        }
        return counts

    # -- execution ----------------------------------------------------

    def _run_engine(self, name: str, schedule, batch, operands):
        run = get_engine(name, injector=self.injector)
        return run(schedule, batch, operands)

    def execute(
        self, schedule, batch, operands: Sequence, *, budget=None
    ) -> tuple[list, str]:
        """Execute through the chain; returns ``(values, engine_used)``.

        Raises the last engine failure when every engine is exhausted,
        or :class:`EngineUnavailable` when every breaker refused and no
        attempt was even possible (cannot happen while the last-resort
        engine exists, which is always attempted).

        ``budget`` -- an optional
        :class:`~repro.serve.budget.DeadlineBudget` -- makes the retry
        and fallback machinery deadline-honest: a retry backoff the
        budget cannot afford abandons that engine immediately (the
        sleep would finish after the deadline), and a *fallback*
        attempt (any engine past the first) is never started once the
        budget is spent -- :class:`~repro.serve.budget.BudgetExhausted`
        is raised instead so the caller fails fast to the next shard.
        The first engine's first attempt is always allowed: budget
        charging bounds recovery effort, it never refuses the work
        outright (admission already did feasibility).
        """
        last_exc: Optional[Exception] = None
        for position, name in enumerate(self.chain):
            breaker = self.breakers[name]
            last_resort = position == len(self.chain) - 1
            if not breaker.allow() and not last_resort:
                continue
            if budget is not None and position > 0 and budget.exhausted():
                from repro.serve.budget import BudgetExhausted

                with self._lock:
                    self._budget_abandoned += 1
                raise BudgetExhausted(
                    f"deadline budget spent before fallback engine {name!r} "
                    f"could start"
                ) from last_exc
            for attempt in range(1, self.retry.max_attempts + 1):
                try:
                    values = self._run_engine(name, schedule, batch, operands)
                except Exception as exc:
                    last_exc = exc
                    breaker.record_failure()
                    exhausted = attempt >= self.retry.max_attempts
                    tripped = not last_resort and not breaker.allow()
                    if exhausted or tripped:
                        break  # fall through to the next engine
                    delay_ms = self.retry.delay_ms(attempt, token=(name, position))
                    if budget is not None and not budget.affords(delay_ms * 1e3):
                        # The backoff alone outlives the deadline:
                        # abandon this engine's retries rather than
                        # sleep past the budget.
                        with self._lock:
                            self._budget_abandoned += 1
                        break
                    with self._lock:
                        self._retries += 1
                    if delay_ms > 0:
                        self._sleep(delay_ms / 1e3)
                else:
                    breaker.record_success()
                    with self._lock:
                        self._executions += 1
                        if position > 0:
                            self._fallbacks += 1
                        self._engine_used[name] = self._engine_used.get(name, 0) + 1
                    return values, name
        if last_exc is not None:
            raise last_exc
        raise EngineUnavailable(
            f"no engine in {self.chain} accepted the batch (all breakers open)"
        )
