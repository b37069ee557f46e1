"""Unit tests of the seeded fault-injection harness."""

from __future__ import annotations

import threading

import pytest

from repro.reliability import (
    SITE_ENGINE,
    SITE_PLANNER,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)


class TestFaultSpecParse:
    def test_every(self):
        spec = FaultSpec.parse("engine_error:every=7")
        assert spec.site == SITE_ENGINE
        assert spec.kind == "error"
        assert spec.every == 7

    def test_at_indexes_and_ranges(self):
        spec = FaultSpec.parse("planner_error:at=3+5+10-12")
        assert spec.site == SITE_PLANNER
        assert spec.at == (3, 5, 10, 11, 12)

    def test_slow_with_rate_and_ms(self):
        spec = FaultSpec.parse("engine_slow:rate=0.25,ms=2.5")
        assert spec.kind == "slow"
        assert spec.rate == 0.25
        assert spec.ms == 2.5

    def test_engine_filter_and_exc(self):
        spec = FaultSpec.parse("engine_error:engine=compiled,every=2,exc=ValueError")
        assert spec.engine == "compiled"
        assert spec.exception_type() is ValueError
        assert spec.counter_key() == "engine:compiled"

    def test_roundtrip_describe(self):
        for text in (
            "engine_error:every=7",
            "engine_error:engine=compiled,at=1-6",
            "engine_slow:rate=0.1,ms=2.5",
            "planner_error:every=3,exc=OSError",
        ):
            spec = FaultSpec.parse(text)
            assert FaultSpec.parse(spec.describe()) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            "engine:every=7",  # no kind
            "engine_crash:every=2",  # unknown kind
            "engine_error",  # no trigger at all
            "engine_error:every=0",
            "engine_error:rate=1.5",
            "engine_error:at=0",
            "engine_error:at=5-3",
            "engine_error:bogus=1",
            "engine_error:every",  # not key=value
            "engine_error:every=2,exc=NotAnException",
            "engine_slow:ms=-1,every=2",
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)

    @pytest.mark.parametrize("engine", ["bogus", "grouped"])
    def test_rejects_an_engine_the_registry_does_not_know(self, engine):
        """A spec narrowed to no engine would never fire; it is refused."""
        with pytest.raises(ValueError, match="unknown execution engine"):
            FaultSpec(site=SITE_ENGINE, engine=engine, at=(1, 2))
        with pytest.raises(ValueError, match="unknown execution engine"):
            FaultSpec.parse(f"engine_error:engine={engine},at=1-6")


class TestFires:
    def test_every_trigger(self):
        spec = FaultSpec.parse("engine_error:every=3")
        fired = [n for n in range(1, 10) if spec.fires(n, seed=0)]
        assert fired == [3, 6, 9]

    def test_at_trigger(self):
        spec = FaultSpec.parse("engine_error:at=2+5-6")
        fired = [n for n in range(1, 10) if spec.fires(n, seed=0)]
        assert fired == [2, 5, 6]

    def test_rate_is_pure_function_of_seed_and_index(self):
        spec = FaultSpec.parse("engine_error:rate=0.3")
        a = [spec.fires(n, seed=11) for n in range(1, 200)]
        b = [spec.fires(n, seed=11) for n in range(1, 200)]
        assert a == b
        assert any(a) and not all(a)
        c = [spec.fires(n, seed=12) for n in range(1, 200)]
        assert a != c  # a different seed reshuffles the outcomes


class TestFaultInjector:
    def test_error_fault_raises_injected_fault(self):
        injector = FaultInjector(FaultPlan.parse("engine_error:every=2"))
        assert injector.check(SITE_ENGINE) == 0.0
        with pytest.raises(InjectedFault):
            injector.check(SITE_ENGINE)
        assert injector.injected_count == 1
        event = injector.events[0]
        assert (event.site, event.call) == (SITE_ENGINE, 2)

    def test_custom_exception(self):
        injector = FaultInjector(FaultPlan.parse("engine_error:every=1,exc=OSError"))
        with pytest.raises(OSError):
            injector.check(SITE_ENGINE)

    def test_slow_fault_returns_penalty_and_sleeps(self):
        slept = []
        injector = FaultInjector(
            FaultPlan.parse("planner_slow:every=2,ms=4.0"), sleep=slept.append
        )
        assert injector.check(SITE_PLANNER) == 0.0
        assert injector.check(SITE_PLANNER) == 4.0
        assert slept == [0.004]

    def test_slow_fault_virtual_mode_does_not_sleep(self):
        injector = FaultInjector(
            FaultPlan.parse("planner_slow:every=1,ms=2.0"), sleep=None
        )
        assert injector.check(SITE_PLANNER) == 2.0

    def test_engine_filter_counts_separately(self):
        injector = FaultInjector(
            FaultPlan.parse("engine_error:engine=compiled,every=2")
        )
        # calls to other engines do not advance the compiled counter
        injector.check(SITE_ENGINE, engine="reference")
        injector.check(SITE_ENGINE, engine="compiled")
        injector.check(SITE_ENGINE, engine="reference")
        with pytest.raises(InjectedFault):
            injector.check(SITE_ENGINE, engine="compiled")

    def test_engine_filtered_spec_ignores_anonymous_calls(self):
        injector = FaultInjector(
            FaultPlan.parse("engine_error:engine=compiled,every=1")
        )
        injector.check(SITE_ENGINE)  # no engine= -> spec cannot match
        assert injector.injected_count == 0

    def test_sequence_is_deterministic_across_runs(self):
        def run() -> list[tuple[str, int, str]]:
            injector = FaultInjector(
                FaultPlan.parse(
                    ["engine_error:rate=0.3", "planner_slow:rate=0.2,ms=1.0"],
                    seed=42,
                ),
                sleep=None,
            )
            for _ in range(50):
                try:
                    injector.check(SITE_ENGINE, engine="compiled")
                except InjectedFault:
                    pass
                injector.check(SITE_PLANNER)
            return [e.as_tuple() for e in injector.events]

        first, second = run(), run()
        assert first == second
        assert first  # the plan actually fired

    def test_sequence_is_deterministic_under_threads(self):
        """Outcome per call index is fixed even with concurrent callers."""

        def run() -> set[int]:
            injector = FaultInjector(
                FaultPlan.parse("engine_error:rate=0.4", seed=9)
            )
            fired: set[int] = set()
            lock = threading.Lock()

            def worker():
                for _ in range(25):
                    try:
                        injector.check(SITE_ENGINE)
                    except InjectedFault as exc:
                        n = int(str(exc).split("call ")[1].split()[0])
                        with lock:
                            fired.add(n)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return fired

        assert run() == run()

    def test_snapshot(self):
        injector = FaultInjector(FaultPlan.parse("engine_error:every=2", seed=5))
        injector.check(SITE_ENGINE, engine="compiled")
        snap = injector.snapshot()
        assert snap["seed"] == 5
        assert snap["calls"] == {"engine": 1, "engine:compiled": 1}
        assert snap["injected"] == 0
        assert snap["plan"] == ["engine_error:every=2"]


class TestFaultPlan:
    def test_parse_single_string(self):
        plan = FaultPlan.parse("engine_error:every=3", seed=1)
        assert len(plan.specs) == 1
        assert plan.seed == 1

    def test_plan_is_hashable_and_reusable(self):
        plan = FaultPlan.parse(["engine_error:every=3"], seed=1)
        hash(plan)  # frozen dataclass with tuple specs
        a, b = FaultInjector(plan), FaultInjector(plan)
        with pytest.raises(InjectedFault):
            for _ in range(3):
                a.check(SITE_ENGINE)
        assert b.injected_count == 0  # independent counters
