"""Serving-pipeline configuration shared by the server and the driver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.framework import HeuristicLike
from repro.kernels import ExecutionPolicy
from repro.reliability import FaultPlan, RetryPolicy
from repro.serve.admission import AdmissionConfig
from repro.serve.batcher import BatcherConfig


@dataclass(frozen=True)
class ReliabilityConfig:
    """Fault-tolerance policy for the serving pipeline.

    ``retry`` drives both planner and engine retries (capped
    exponential backoff, deterministic jitter); ``fallback`` enables
    the engine degradation chain (``compiled`` -> ``reference``); the
    breaker knobs size each engine's
    :class:`~repro.reliability.CircuitBreaker`; ``bisect`` enables
    poison-batch isolation (a batch that fails after retries and
    fallback is split and re-executed so healthy requests still
    complete); ``fault_plan`` installs a seeded
    :class:`~repro.reliability.FaultPlan` for chaos testing --
    ``None`` (the default) injects nothing and adds no overhead.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    fallback: bool = True
    breaker_failure_threshold: int = 5
    breaker_cooldown_s: float = 1.0
    bisect: bool = True
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.breaker_failure_threshold < 1:
            raise ValueError(
                "breaker_failure_threshold must be >= 1, "
                f"got {self.breaker_failure_threshold}"
            )
        if self.breaker_cooldown_s < 0:
            raise ValueError(
                f"breaker_cooldown_s must be >= 0, got {self.breaker_cooldown_s}"
            )


@dataclass(frozen=True)
class ServeConfig:
    """Everything the serving pipeline needs to know.

    ``heuristic`` is passed through to planning (``None`` keeps the
    framework default, the exhaustive ``best`` trial; latency-sensitive
    deployments usually pin ``threshold`` or ``binary`` and let the
    plan cache amortize).  ``miss_overhead_us`` / ``hit_overhead_us``
    model the online planning cost charged per batch in virtual-time
    replay (a miss runs the full tiling+batching trial; a hit is one
    cache lookup); ``compile_overhead_us`` is additionally charged on
    each plan-cache miss under a ``compiled`` policy (the one-off
    artifact compilation of the fresh plan -- a hit, warmed or
    restored plans included, finds its artifact compiled and charges
    nothing extra).

    ``policy`` -- an :class:`~repro.kernels.ExecutionPolicy`, the
    ``compiled`` engine by default -- names the numerical executor used
    when a formed batch carries operands.  Only its ``engine`` applies
    here, and every other field must stay unset:

    * ``fallback`` / ``retry`` / ``injector`` -- the serving
      pipeline's fault-tolerance envelope comes from ``reliability``
      (one source of truth);
    * ``precision`` -- precision rides on each request
      (``submit(precision=)``, ``repro-serve --precision``) and on the
      framework;
    * ``verify`` -- the serving pipeline does not verify outputs.

    A policy with any of them set is a ``ValueError`` rather than a
    setting the server would silently drop.

    ``workers`` is the number of serve pipeline threads (planning +
    dispatch).

    ``reliability`` holds the fault-tolerance policy (retries, engine
    fallback, circuit breakers, poison-batch bisection, and the
    optional chaos fault plan); see :class:`ReliabilityConfig` and
    ``docs/reliability.md``.
    """

    workers: int = 2
    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    heuristic: HeuristicLike = None
    miss_overhead_us: float = 200.0
    hit_overhead_us: float = 5.0
    compile_overhead_us: float = 50.0
    policy: ExecutionPolicy = field(default_factory=ExecutionPolicy)
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.miss_overhead_us < 0 or self.hit_overhead_us < 0:
            raise ValueError("planning overheads must be >= 0")
        if self.compile_overhead_us < 0:
            raise ValueError(
                f"compile_overhead_us must be >= 0, got {self.compile_overhead_us}"
            )
        if not isinstance(self.policy, ExecutionPolicy):
            raise TypeError(
                "ServeConfig policy must be an ExecutionPolicy, got "
                f"{type(self.policy).__name__}"
            )
        if self.policy != ExecutionPolicy(engine=self.policy.engine):
            raise ValueError(
                "ServeConfig policy may set only its engine: "
                "fallback/retry/injector come from ReliabilityConfig, "
                "precision rides on each request (submit(precision=), "
                "--precision), and the server does not verify outputs"
            )
