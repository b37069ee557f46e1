"""Unit tests of the circuit-breaker state machine (injected clock)."""

from __future__ import annotations

import pytest

from repro.reliability import BreakerState, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, s: float) -> None:
        self.now += s


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


def make(clock, threshold=3, cooldown=10.0) -> CircuitBreaker:
    return CircuitBreaker(
        "compiled",
        failure_threshold=threshold,
        cooldown_s=cooldown,
        clock=clock,
    )


class TestStateMachine:
    def test_starts_closed_and_allows(self, clock):
        breaker = make(clock)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_opens_at_consecutive_threshold(self, clock):
        breaker = make(clock, threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_success_resets_the_consecutive_count(self, clock):
        breaker = make(clock, threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED  # never 3 in a row

    def test_half_open_after_cooldown_single_probe(self, clock):
        breaker = make(clock, threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # everyone else waits on the probe

    def test_probe_success_closes(self, clock):
        breaker = make(clock, threshold=1, cooldown=1.0)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()
        assert breaker.history == ("closed", "open", "half_open", "closed")

    def test_probe_failure_reopens_and_rearms(self, clock):
        breaker = make(clock, threshold=1, cooldown=5.0)
        breaker.record_failure()
        clock.advance(6.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        clock.advance(6.0)  # full cooldown again
        assert breaker.allow()
        assert breaker.snapshot()["opens"] == 2

    def test_zero_cooldown_goes_straight_to_half_open(self, clock):
        breaker = make(clock, threshold=1, cooldown=0.0)
        breaker.record_failure()
        assert breaker.state is BreakerState.HALF_OPEN

    def test_snapshot_counts(self, clock):
        breaker = make(clock, threshold=2)
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["name"] == "compiled"
        assert snap["state"] == "open"
        assert snap["failures"] == 2
        assert snap["successes"] == 1
        assert snap["opens"] == 1
        assert snap["history"] == ["closed", "open"]

    @pytest.mark.parametrize(
        "kwargs", [{"failure_threshold": 0}, {"cooldown_s": -1.0}]
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker("x", **kwargs)


class TestHalfOpenConcurrency:
    """The half-open probe slot under genuinely concurrent contention.

    HALF_OPEN admits *exactly one* caller -- the probe -- no matter how
    many threads race ``allow()`` at the same instant; everyone else
    must see the breaker as still refusing until the probe's outcome is
    recorded.  Both probe outcomes must then transition the state
    machine correctly for every waiter.
    """

    N_THREADS = 16

    def _race_allow(self, breaker) -> list[bool]:
        import threading

        barrier = threading.Barrier(self.N_THREADS)
        votes: list[bool] = [False] * self.N_THREADS

        def contend(i: int) -> None:
            barrier.wait()
            votes[i] = breaker.allow()

        threads = [
            threading.Thread(target=contend, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return votes

    def _half_open(self, clock) -> CircuitBreaker:
        breaker = make(clock, threshold=1, cooldown=5.0)
        breaker.record_failure()
        clock.advance(6.0)
        assert breaker.state is BreakerState.HALF_OPEN
        return breaker

    def test_exactly_one_probe_admitted(self, clock):
        breaker = self._half_open(clock)
        votes = self._race_allow(breaker)
        assert sum(votes) == 1
        # The losers keep losing until the probe outcome lands.
        assert not breaker.allow()

    def test_probe_success_closes_for_every_loser(self, clock):
        breaker = self._half_open(clock)
        assert sum(self._race_allow(breaker)) == 1
        breaker.record_success()  # the winner reports back
        assert breaker.state is BreakerState.CLOSED
        # CLOSED has no probe slot: every racer is now admitted.
        assert all(self._race_allow(breaker))
        assert breaker.history == ("closed", "open", "half_open", "closed")

    def test_probe_failure_reopens_for_every_loser(self, clock):
        breaker = self._half_open(clock)
        assert sum(self._race_allow(breaker)) == 1
        breaker.record_failure()  # the probe failed: re-arm
        assert breaker.state is BreakerState.OPEN
        assert not any(self._race_allow(breaker))
        # The cooldown re-arms a fresh single-probe slot.
        clock.advance(6.0)
        assert sum(self._race_allow(breaker)) == 1
        assert breaker.history == (
            "closed", "open", "half_open", "open", "half_open"
        )


class TestStateCodes:
    def test_gauge_encoding(self):
        assert BreakerState.CLOSED.code == 0
        assert BreakerState.HALF_OPEN.code == 1
        assert BreakerState.OPEN.code == 2
