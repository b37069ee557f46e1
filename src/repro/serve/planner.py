"""The planner stage: formed batches -> cached plans -> service times.

Routes every :class:`~repro.serve.batcher.FormedBatch` through a
shared thread-safe :class:`~repro.core.plancache.PlanCache`, then
prices the batch on the device model.  The stage charges a configured
*planning overhead* on top of the simulated kernel time: a cache miss
pays the full online planning cost (tiling + both batching heuristics
+ model evaluation -- what the paper's offline mode spends once), a
hit pays only the lookup.  That asymmetry is exactly why the serving
layer warms the cache for known shape mixes.

Each plan's report keeps its simulation, per device, so replaying a
hot mix does not re-run the wave model on every batch, and a plan the
cache evicts takes its simulation with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.framework import CoordinatedFramework, HeuristicLike, PlanReport
from repro.core.plancache import PlanCache
from repro.gpu.simulator import SimulationResult
from repro.reliability import SITE_PLANNER, FaultInjector
from repro.serve.batcher import FormedBatch
from repro.serve.budget import BudgetExhausted, DeadlineBudget
from repro.telemetry import get_tracer


@dataclass(frozen=True)
class PlannedBatch:
    """A formed batch with its plan and priced service time."""

    formed: FormedBatch
    report: PlanReport
    sim: SimulationResult
    cache_hit: bool
    plan_us: float  # planning overhead charged (miss vs hit)

    @property
    def service_us(self) -> float:
        """Planning overhead plus simulated device time."""
        return self.plan_us + self.sim.time_us


class PlannerStage:
    """Plans formed batches through a shared cache (thread-safe).

    Each plan's simulation is kept on its report, keyed by the device
    it was priced on, so it dies with the report and the cache's
    capacity bounds the simulations this stage keeps; stages of two
    devices sharing one cache each price a plan on their own device.
    """

    def __init__(
        self,
        framework: CoordinatedFramework,
        cache: PlanCache | None = None,
        *,
        heuristic: HeuristicLike = None,
        miss_overhead_us: float = 200.0,
        hit_overhead_us: float = 5.0,
        injector: FaultInjector | None = None,
    ):
        if miss_overhead_us < 0 or hit_overhead_us < 0:
            raise ValueError("planning overheads must be >= 0")
        self.framework = framework
        self.cache = cache if cache is not None else PlanCache(framework, capacity=256)
        self.heuristic = heuristic
        self.miss_overhead_us = miss_overhead_us
        self.hit_overhead_us = hit_overhead_us
        #: Optional chaos harness; the ``"planner"`` fault site is
        #: evaluated on every :meth:`plan` call (error faults raise out
        #: of it, slow faults are charged into ``plan_us``).
        self.injector = injector

    def plan(
        self, formed: FormedBatch, *, budget: DeadlineBudget | None = None
    ) -> PlannedBatch:
        """Plan (or look up) one formed batch and price its service.

        ``budget`` -- the batch's :class:`DeadlineBudget`, when the
        caller threads one -- is charged for injected slow-fault
        penalties: a penalty the budget cannot afford raises
        :class:`BudgetExhausted` instead of silently pricing work that
        will finish past the deadline.  The replay drivers plan without
        a budget (virtual time never *waits* for the penalty).
        """
        if not formed.requests:
            raise ValueError("cannot plan an empty batch (pure shed event)")
        batch = formed.to_gemm_batch()
        penalty_us = 0.0
        if self.injector is not None:
            penalty_us = self.injector.check(SITE_PLANNER) * 1e3
            if (
                budget is not None
                and penalty_us > 0.0
                and not budget.affords(penalty_us)
            ):
                raise BudgetExhausted(
                    f"injected planner slow-fault of {penalty_us:.0f}us "
                    f"exceeds the batch's remaining deadline budget"
                )
        heuristic = self.heuristic
        if formed.precision is not None:
            # Requests pinned a storage precision: plan (and cache) the
            # batch under it so strategy pools, occupancy, and the cache
            # key are all dtype-qualified.
            from dataclasses import replace as _replace

            opts = self.framework.resolve_options(heuristic)
            if opts.precision != formed.precision:
                heuristic = _replace(opts, precision=formed.precision)
            else:
                heuristic = opts
        with get_tracer().span(
            "serve.plan", batch_id=formed.batch_id, gemms=len(batch)
        ) as span:
            report, hit = self.cache.plan_with_info(batch, heuristic)
            sim = self._simulate(report)
            if span.enabled:
                span.set_attr("cache_hit", hit)
                span.set_attr("sim_us", sim.time_us)
        return PlannedBatch(
            formed=formed,
            report=report,
            sim=sim,
            cache_hit=hit,
            plan_us=(self.hit_overhead_us if hit else self.miss_overhead_us)
            + penalty_us,
        )

    def _simulate(self, report: PlanReport) -> SimulationResult:
        device = self.framework.device
        sim = report.derived.get(device)
        if sim is None:
            sim = report.derived[device] = self.framework.simulate_plan(report)
        return sim
