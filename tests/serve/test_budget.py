"""Deadline-budget tests: semantics, executor charging, server settlement.

The budget contract (``docs/reliability.md``): a request's deadline is
charged end-to-end -- admission feasibility, batcher shedding, planner
slow-fault penalties, executor retry backoff and fallback attempts --
so no stage completes work by retrying *past* the deadline.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.options import Heuristic
from repro.core.problem import Gemm
from repro.reliability import (
    FaultInjector,
    FaultPlan,
    ReliableExecutor,
    RetryPolicy,
)
from repro.serve import (
    BudgetExhausted,
    DeadlineBudget,
    ReliabilityConfig,
    ServeConfig,
)
from repro.serve.admission import AdmissionConfig
from repro.serve.batcher import BatcherConfig
from repro.serve.request import REASON_BUDGET_EXHAUSTED, RequestStatus
from repro.serve.server import GemmServer

NO_WAIT = RetryPolicy(max_attempts=2, base_delay_ms=0.0, max_delay_ms=0.0)


@pytest.fixture
def planned(framework, small_batch, rng):
    """A planned small batch with operands and the reference answer."""
    from repro.kernels.reference import reference_batched_gemm

    report = framework.plan(small_batch, Heuristic.THRESHOLD)
    operands = small_batch.random_operands(rng)
    expected = reference_batched_gemm(small_batch, operands)
    return report.schedule, small_batch, operands, expected


class TestDeadlineBudgetSemantics:
    def test_unbounded_budget_is_free(self):
        budget = DeadlineBudget()
        assert not budget.bounded
        # No clock needed: unbounded answers without consulting time.
        assert budget.remaining_us() == math.inf
        assert not budget.exhausted()
        assert budget.affords(1e12)

    def test_bounded_remaining_and_exhaustion(self):
        budget = DeadlineBudget(deadline_us=1_000.0)
        assert budget.bounded
        assert budget.remaining_us(now_us=400.0) == 600.0
        assert not budget.exhausted(now_us=999.0)
        assert budget.exhausted(now_us=1_000.0)  # at the deadline: spent
        assert budget.exhausted(now_us=2_000.0)

    def test_affords_is_strict(self):
        budget = DeadlineBudget(deadline_us=1_000.0)
        assert budget.affords(599.0, now_us=400.0)
        assert not budget.affords(600.0, now_us=400.0)  # exactly-fits loses
        assert not budget.affords(601.0, now_us=400.0)

    def test_bound_clock_is_used_when_now_omitted(self):
        t = {"now": 0.0}
        budget = DeadlineBudget(deadline_us=100.0, clock_us=lambda: t["now"])
        assert budget.remaining_us() == 100.0
        t["now"] = 150.0
        assert budget.exhausted()
        # An explicit now_us overrides the bound clock.
        assert not budget.exhausted(now_us=50.0)

    def test_query_without_any_clock_raises(self):
        budget = DeadlineBudget(deadline_us=100.0)
        with pytest.raises(ValueError, match="needs a clock"):
            budget.remaining_us()

    def test_for_requests_takes_the_tightest_deadline(self, make_request):
        requests = [
            make_request(0, deadline_us=9_000.0),
            make_request(1, deadline_us=3_000.0),
            make_request(2),  # deadline-free: contributes nothing
        ]
        budget = DeadlineBudget.for_requests(requests)
        assert budget.deadline_us == 3_000.0
        assert DeadlineBudget.for_requests([make_request(3)]).bounded is False


class TestExecutorBudgetCharging:
    """Retry backoff and fallback attempts charge the budget."""

    def execute(self, planned, budget, *, injector=None, retry=NO_WAIT):
        schedule, batch, operands, expected = planned
        executor = ReliableExecutor(
            "compiled", injector=injector, retry=retry, sleep=lambda s: None
        )
        values, engine = executor.execute(
            schedule, batch, operands, budget=budget
        )
        return values, engine, executor.snapshot(), expected

    def test_unaffordable_backoff_abandons_the_engine(self, planned):
        # compiled always fails; each retry would sleep ~100ms = 1e5us,
        # but only 5e4us of budget remain -> abandon compiled without
        # sleeping and fall back (the fallback itself is affordable).
        injector = FaultInjector(
            FaultPlan.parse("engine_error:engine=compiled,every=1")
        )
        budget = DeadlineBudget(deadline_us=50_000.0, clock_us=lambda: 0.0)
        slow_retry = RetryPolicy(
            max_attempts=3, base_delay_ms=100.0, max_delay_ms=100.0
        )
        values, engine, snap, expected = self.execute(
            planned, budget, injector=injector, retry=slow_retry
        )
        assert engine == "reference"
        assert snap["budget_abandoned"] == 1
        assert snap["retries"] == 0  # never slept, never counted a retry
        for got, want in zip(values, expected):
            assert np.array_equal(got, want)

    def test_spent_budget_refuses_to_start_a_fallback(self, planned):
        schedule, batch, operands, _ = planned
        injector = FaultInjector(
            FaultPlan.parse("engine_error:engine=compiled,every=1")
        )
        executor = ReliableExecutor(
            "compiled", injector=injector, retry=NO_WAIT, sleep=lambda s: None
        )
        spent = DeadlineBudget(deadline_us=10.0, clock_us=lambda: 20.0)
        with pytest.raises(BudgetExhausted, match="fallback engine"):
            executor.execute(schedule, batch, operands, budget=spent)
        # Two abandonments: the spent budget first cancels compiled's
        # (zero-delay) retry, then refuses the reference fallback.
        assert executor.snapshot()["budget_abandoned"] == 2

    def test_first_attempt_is_always_allowed(self, planned):
        # Budget charging bounds *recovery* effort; it never refuses
        # the first engine's first attempt (admission did feasibility).
        spent = DeadlineBudget(deadline_us=10.0, clock_us=lambda: 20.0)
        values, engine, snap, expected = self.execute(planned, spent)
        assert engine == "compiled"
        assert snap["budget_abandoned"] == 0
        for got, want in zip(values, expected):
            assert np.array_equal(got, want)

    def test_no_budget_means_no_charging(self, planned):
        values, engine, snap, _ = self.execute(planned, None)
        assert engine == "compiled"
        assert snap["budget_abandoned"] == 0


class TestServerBudgetSettlement:
    """BudgetExhausted surfaces as the typed ``budget_exhausted`` reason."""

    N = 6

    def serve_with_planner_slow(self, framework):
        # Every planner call injects a 2s slow fault; each request has
        # a 1s deadline, so the batch budget can never afford the
        # penalty: the planner raises BudgetExhausted *without
        # sleeping* and the whole slice settles typed.
        plan = FaultPlan.parse(["planner_slow:ms=2000,every=1"])
        config = ServeConfig(
            workers=1,
            batcher=BatcherConfig(max_batch_size=self.N, max_wait_us=2_000.0),
            admission=AdmissionConfig(queue_capacity=64),
            heuristic=Heuristic.THRESHOLD,
            reliability=ReliabilityConfig(
                retry=NO_WAIT, bisect=False, fault_plan=plan
            ),
        )
        gemm = Gemm(24, 24, 24)
        with GemmServer(framework, config) as server:
            tickets = [
                server.submit(gemm, deadline_us=1_000_000.0)
                for _ in range(self.N)
            ]
            results = [t.result(timeout=30.0) for t in tickets]
            health = server.health()
        return results, server.summary(), health

    def test_settles_typed_and_counts(self, framework):
        results, report, health = self.serve_with_planner_slow(framework)
        assert len(results) == self.N
        assert all(r.status is RequestStatus.REJECTED for r in results)
        assert all(r.reason == REASON_BUDGET_EXHAUSTED for r in results)
        # The counter flows to the reliability snapshot and health.
        assert report.reliability["budget_exhausted"] == self.N
        assert health["budget_exhausted"] == self.N
        # Typed-but-not-error: budget exhaustion is a policy outcome,
        # not a crash, so it must not count as a typed error.
        assert report.n_rejected_error == 0
