"""Tests of the retrying, breaker-guarded engine fallback executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import ENGINE_FALLBACKS, engine_fallbacks
from repro.reliability import (
    BreakerState,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    ReliableExecutor,
    RetryPolicy,
)

NO_WAIT = RetryPolicy(max_attempts=2, base_delay_ms=0.0, max_delay_ms=0.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, s: float) -> None:
        self.now += s


def make_executor(injector=None, **kwargs):
    kwargs.setdefault("retry", NO_WAIT)
    kwargs.setdefault("sleep", lambda s: None)
    return ReliableExecutor("compiled", injector=injector, **kwargs)


def assert_matches(values, expected):
    assert len(values) == len(expected)
    for got, want in zip(values, expected):
        assert np.array_equal(got, want)


class TestFallbackChain:
    def test_chains(self):
        assert engine_fallbacks("compiled") == ("compiled", "reference")
        assert engine_fallbacks("reference") == ("reference",)
        assert set(ENGINE_FALLBACKS) == {"compiled", "reference"}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            engine_fallbacks("bogus")
        with pytest.raises(ValueError):
            ReliableExecutor("bogus")

    def test_fallback_false_uses_only_the_preferred_engine(self):
        executor = make_executor(fallback=False)
        assert executor.chain == ("compiled",)


class TestExecute:
    def test_happy_path(self, planned):
        schedule, batch, operands, expected = planned
        executor = make_executor()
        values, engine_used = executor.execute(schedule, batch, operands)
        assert engine_used == "compiled"
        assert_matches(values, expected)
        snap = executor.snapshot()
        assert snap["retries"] == 0
        assert snap["fallbacks"] == 0
        assert snap["engine_used"] == {"compiled": 1}

    def test_transient_fault_absorbed_by_retry(self, planned):
        schedule, batch, operands, expected = planned
        injector = FaultInjector(
            FaultPlan.parse("engine_error:engine=compiled,at=1")
        )
        executor = make_executor(injector)
        values, engine_used = executor.execute(schedule, batch, operands)
        assert engine_used == "compiled"
        assert_matches(values, expected)
        assert executor.retries == 1
        assert executor.fallbacks == 0

    def test_exhausted_retries_fall_back_bit_identically(self, planned):
        schedule, batch, operands, expected = planned
        injector = FaultInjector(
            FaultPlan.parse("engine_error:engine=compiled,at=1-2")
        )
        executor = make_executor(injector)
        values, engine_used = executor.execute(schedule, batch, operands)
        assert engine_used == "reference"
        assert_matches(values, expected)  # fallback changes latency, not answers
        assert executor.fallbacks == 1

    def test_no_fallback_raises_the_engine_error(self, planned):
        schedule, batch, operands, _ = planned
        injector = FaultInjector(
            FaultPlan.parse("engine_error:engine=compiled,every=1")
        )
        executor = make_executor(injector, fallback=False)
        with pytest.raises(InjectedFault):
            executor.execute(schedule, batch, operands)

    def test_last_resort_attempted_even_with_open_breaker(self, planned):
        schedule, batch, operands, _ = planned
        injector = FaultInjector(
            FaultPlan.parse("engine_error:engine=reference,every=1")
        )
        executor = ReliableExecutor(
            "reference",
            retry=NO_WAIT,
            failure_threshold=1,
            injector=injector,
            sleep=lambda s: None,
        )
        with pytest.raises(InjectedFault):
            executor.execute(schedule, batch, operands)
        assert executor.breakers["reference"].state is BreakerState.OPEN
        # still attempted (and still failing) despite the open breaker
        with pytest.raises(InjectedFault):
            executor.execute(schedule, batch, operands)


class TestBreakerIntegration:
    def test_breaker_opens_then_recovers_via_half_open_probe(self, planned):
        schedule, batch, operands, expected = planned
        clock = FakeClock()
        injector = FaultInjector(
            FaultPlan.parse("engine_error:engine=compiled,at=1-2")
        )
        executor = make_executor(
            injector, failure_threshold=2, cooldown_s=10.0, clock=clock
        )
        compiled = executor.breakers["compiled"]

        # run 1: both compiled attempts fail -> breaker opens -> fallback
        _, used = executor.execute(schedule, batch, operands)
        assert used == "reference"
        assert compiled.state is BreakerState.OPEN

        # run 2: breaker open -> compiled skipped without an attempt
        calls_before = injector.snapshot()["calls"]["engine:compiled"]
        _, used = executor.execute(schedule, batch, operands)
        assert used == "reference"
        assert injector.snapshot()["calls"]["engine:compiled"] == calls_before
        assert executor.fallbacks == 2

        # cooldown elapses: half-open probe succeeds -> breaker closes
        clock.advance(11.0)
        assert compiled.state is BreakerState.HALF_OPEN
        values, used = executor.execute(schedule, batch, operands)
        assert used == "compiled"
        assert_matches(values, expected)
        assert compiled.state is BreakerState.CLOSED
        assert compiled.history == ("closed", "open", "half_open", "closed")

    def test_snapshot_shape(self, planned):
        schedule, batch, operands, _ = planned
        executor = make_executor()
        executor.execute(schedule, batch, operands)
        snap = executor.snapshot()
        assert snap["engine"] == "compiled"
        assert snap["chain"] == ["compiled", "reference"]
        assert snap["executions"] == 1
        assert set(snap["breakers"]) == {"compiled", "reference"}
        assert snap["breakers"]["compiled"]["state"] == "closed"
