"""Disabled-tracing overhead budget for the planning hot path.

The acceptance bar is <5% planning-time overhead with tracing
disabled.  Instrumentation cannot be compiled out, so the test bounds
the overhead from first principles: count every telemetry call a
traced plan makes, measure the cost of one no-op operation on the null
tracer, and require (ops x cost-per-op) to stay under 5% of the
measured planning time.  The margin is orders of magnitude in practice
-- a no-op span is two attribute-free method calls against planning
work in the milliseconds.

Calls are counted, not counter values: ``tracer.counter("x", 108)`` is
one call however large its increment.
"""

import time

from repro.core.options import Heuristic
from repro.core.problem import GemmBatch
from repro.telemetry import NULL_TRACER, Tracer, get_tracer, tracing

_BATCH = GemmBatch.uniform(96, 96, 64, 12)


class _CountingTracer(Tracer):
    """A recording tracer that also counts the metric calls made on it.

    Recording takes every ``if span.enabled`` branch the disabled path
    skips, so its call count bounds the disabled path's from above.
    """

    def __init__(self):
        super().__init__()
        self.metric_calls = 0

    def counter(self, name, amount=1):
        self.metric_calls += 1
        super().counter(name, amount)

    def gauge(self, name, value):
        self.metric_calls += 1
        super().gauge(name, value)

    def histogram(self, name, value):
        self.metric_calls += 1
        super().histogram(name, value)


def _best_of(fn, reps: int = 5) -> float:
    """Best-of-``reps`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _null_op_cost_s(iterations: int = 20_000) -> float:
    """Per-operation cost of the disabled tracer's span + counter path."""

    def burn():
        tracer = NULL_TRACER
        for _ in range(iterations):
            with tracer.span("x", a=1):
                pass
            tracer.counter("c")

    # Each iteration is one span enter/exit plus one counter call --
    # charge it as two telemetry operations.
    return _best_of(burn, reps=3) / (2 * iterations)


def test_disabled_tracing_overhead_below_5_percent(framework):
    assert get_tracer() is NULL_TRACER  # the suite runs untraced

    # Count the telemetry calls one plan actually makes.
    with tracing(_CountingTracer()) as t:
        framework.plan(_BATCH, Heuristic.BEST)
    n_spans = sum(1 for _ in t.walk())
    # Generous accounting: every span costs enter + exit + the attrs
    # dict build; every metric update is one call.
    n_ops = 3 * n_spans + t.metric_calls
    assert n_spans >= 4  # plan, tiling.select, assemble, batching, ...

    plan_s = _best_of(lambda: framework.plan(_BATCH, Heuristic.BEST))
    overhead_s = n_ops * _null_op_cost_s()

    assert overhead_s < 0.05 * plan_s, (
        f"null-tracer overhead {overhead_s * 1e6:.1f}us exceeds 5% of "
        f"planning time {plan_s * 1e3:.2f}ms ({n_ops} telemetry ops)"
    )
