"""The coordinated tiling-and-batching framework facade (Figure 4).

:class:`CoordinatedFramework` ties the two engines together:

1. the **tiling engine** selects a strategy per GEMM under the
   device's TLP threshold (Section 4),
2. the **batching engine** assigns tiles to thread blocks with one of
   the two heuristics -- chosen explicitly, by exhaustive trial
   (:attr:`Heuristic.BEST`, the paper's offline mode for fixed
   workloads), or by the random-forest selector
   (:attr:`Heuristic.AUTO`, the online mode),
3. the plan is lowered to the five auxiliary arrays of the
   programming interface (Section 6),

after which the plan can be *simulated* (execution time on the device
model) or *executed* (numerically, via the persistent-threads NumPy
executor).

Planning is configured through :class:`~repro.core.options.PlanOptions`
(heuristic, theta, TLP threshold, precision; a bare :class:`Heuristic`
or its string value selects just the heuristic) and execution through
one :class:`~repro.kernels.ExecutionPolicy`.  :meth:`execute` and
:meth:`PlanCache.execute <repro.core.plancache.PlanCache.execute>`
differ only in where the plan comes from; both hand it to one
post-plan step (stage, run, re-quantize, verify).  Every entry point is
instrumented through :func:`repro.telemetry.get_tracer` -- free until a
recording tracer is installed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.batching import BatchingResult, batch_tiles
from repro.core.options import Heuristic, PlanOptions
from repro.core.precision import (
    Precision,
    default_precision,
    infer_precision,
    quantize_operands,
    quantize_outputs,
)
from repro.core.problem import GemmBatch
from repro.core.schedule import BatchSchedule, build_schedule, tile_columns
from repro.core.selector import HeuristicSelector
from repro.core.tiling import TilingDecision, select_tiling
from repro.gpu.simulator import KernelLaunch, SimulationResult, simulate_kernel
from repro.gpu.specs import DeviceSpec, VOLTA_V100
from repro.telemetry import get_tracer

logger = logging.getLogger("repro.framework")

#: What the planning entry points accept as a heuristic spec.
HeuristicLike = Union[Heuristic, PlanOptions, str, None]


@dataclass(frozen=True)
class PlanReport:
    """Everything the framework decided for one batch.

    ``options`` is the *resolved* :class:`PlanOptions` the plan was
    built under (no ``None`` fields); ``heuristic_requested`` /
    ``heuristic_used`` remain plain strings for backward
    compatibility (``used`` is always concrete -- never ``best`` /
    ``auto``).  Reports compare field by field: the schedule and the
    batching by value, the batch by identity.
    """

    batch: GemmBatch
    decision: TilingDecision
    batching: BatchingResult
    schedule: BatchSchedule
    heuristic_requested: str
    heuristic_used: str
    options: Optional[PlanOptions] = None

    def kernel_launch(self) -> KernelLaunch:
        """The fused kernel this plan launches, as the simulator prices it.

        The plan is priced at its resolved storage precision (fp32 when
        the report carries no options).  The block classes come from
        :meth:`BatchSchedule.block_classes` at that width, and the
        batch's unique A/B footprint, stated at fp32 width, is rescaled
        to it (half the bytes at fp16/bf16).  Simulation, the cost
        breakdown and the timeline all price this one launch.
        """
        precision = self.options.precision if self.options is not None else None
        prec = Precision.coerce(precision or "fp32")
        return KernelLaunch.of_classes(
            "coordinated",
            *self.schedule.block_classes(self.batch, prec),
            compulsory_ab_bytes=(
                float(self.batch.compulsory_ab_bytes) * prec.storage_bytes / 4.0
            ),
        )

    def summary(self) -> str:
        """Human-readable one-paragraph description of the plan."""
        lines = [
            f"batch of {len(self.batch)} GEMMs, "
            f"{self.schedule.num_tiles} tiles -> {self.schedule.num_blocks} blocks",
            f"unified block size: {self.schedule.threads_per_block} threads",
            f"tiling TLP (Eq.1): {self.decision.tlp}",
            f"batching heuristic: {self.heuristic_used} "
            f"(requested {self.heuristic_requested!r})",
            "strategies: "
            + ", ".join(
                f"GEMM{i}({g.m}x{g.n}x{g.k})->{s}"
                for i, (g, s) in enumerate(zip(self.batch, self.decision.strategies))
            ),
        ]
        return "\n".join(lines)


class CoordinatedFramework:
    """Public entry point of the reproduction.

    Parameters
    ----------
    device:
        The device model to plan for; defaults to Volta V100, the
        paper's primary platform.  The TLP threshold and theta come
        from the device spec (overridable per call via
        :class:`PlanOptions`).
    selector:
        An optional fitted :class:`HeuristicSelector` used when
        planning with :attr:`Heuristic.AUTO`.  Without one, ``AUTO``
        falls back to ``BEST`` (exhaustive trial) with a warning in the
        report.
    precision:
        ``"fp32"``, ``"fp16"`` or ``"bf16"`` -- the *storage*
        precision: half-width values price the simulated kernels at
        half the traffic and at Tensor-Core / matrix-unit FMA rates
        where the device has them, and :meth:`execute` stages operands
        on the precision's storage grid before the (FP64-accumulating)
        engines run.  ``None`` (the default) reads ``$REPRO_DTYPE``,
        falling back to fp32.
    backend:
        A :class:`~repro.gpu.backends.BackendSpec` (or a spelling
        accepted by :func:`~repro.gpu.backends.get_backend`) supplying
        the per-precision tiling-strategy candidate pools and the
        device model.  ``None`` wraps ``device`` in a
        :class:`~repro.gpu.backends.CudaBackend` -- the paper's
        configuration, planning-identical to the pre-backend code.
        When a backend is given its ``device`` takes over as the
        simulation target.
    """

    def __init__(
        self,
        device: DeviceSpec = VOLTA_V100,
        selector: Optional[HeuristicSelector] = None,
        precision: Optional[str] = None,
        backend=None,
    ):
        from repro.gpu.backends import CudaBackend, get_backend

        prec = (
            default_precision() if precision is None else Precision.coerce(precision)
        )
        if backend is None:
            self.backend = CudaBackend(device)
            self.device = device
        else:
            self.backend = get_backend(backend)
            self.device = self.backend.device
        self.selector = selector
        self.precision = prec.value

    # -- options -----------------------------------------------------

    def resolve_options(
        self, heuristic: HeuristicLike = None, options: Optional[PlanOptions] = None
    ) -> PlanOptions:
        """Normalize a planning spec to fully-resolved options.

        ``heuristic`` may be a :class:`Heuristic`, its string value, a
        whole :class:`PlanOptions`, or ``None``; alternatively pass
        ``options`` by keyword.  Supplying both is an error.  ``None``
        fields resolve to the device/framework defaults.
        """
        if options is not None:
            if heuristic is not None:
                raise ValueError("pass either a heuristic or options=, not both")
            opts = PlanOptions.of(options)
        else:
            opts = PlanOptions.of(heuristic)
        return opts.resolved(
            theta=self.device.batching_theta,
            tlp_threshold=self.device.tlp_threshold,
            precision=self.precision,
            backend=self.backend.name,
        )

    def _backend_of(self, opts: PlanOptions):
        """The backend a resolved options value plans against."""
        if opts.backend is None or opts.backend == self.backend.name:
            return self.backend
        from repro.gpu.backends import get_backend

        return get_backend(opts.backend)

    # -- planning ----------------------------------------------------

    def plan(
        self,
        batch: GemmBatch,
        heuristic: HeuristicLike = None,
        *,
        options: Optional[PlanOptions] = None,
    ) -> PlanReport:
        """Run both engines and build the auxiliary-array schedule.

        ``heuristic`` defaults to :attr:`Heuristic.BEST` (simulate both
        paper heuristics, keep the faster -- the offline mode for fixed
        workloads); :attr:`Heuristic.BEST_EXTENDED` also tries this
        library's future-work heuristics; :attr:`Heuristic.AUTO` asks
        the random-forest selector (the online mode).  Pass a full
        :class:`PlanOptions` to also override theta, the TLP threshold
        or the precision for this plan.
        """
        opts = self.resolve_options(heuristic, options)
        tracer = get_tracer()
        with tracer.span(
            "plan", gemms=len(batch), heuristic=opts.heuristic.value
        ) as span:
            report = self._plan_resolved(batch, opts)
            if span.enabled:
                span.set_attr("heuristic_used", report.heuristic_used)
                span.set_attr("blocks", report.schedule.num_blocks)
                span.set_attr("tiles", report.schedule.num_tiles)
        return report

    def _plan_resolved(self, batch: GemmBatch, opts: PlanOptions) -> PlanReport:
        tracer = get_tracer()
        decision = select_tiling(
            batch,
            tlp_threshold=opts.tlp_threshold,
            backend=self._backend_of(opts),
            precision=opts.precision,
        )
        tiles = tile_columns(batch, decision)
        tracer.counter("tiles_enumerated", len(tiles))

        requested = opts.heuristic
        heuristic = requested
        if heuristic is Heuristic.AUTO:
            if self.selector:
                with tracer.span("selector.predict") as span:
                    heuristic = Heuristic.coerce(self.selector.predict(batch))
                    if span.enabled:
                        span.set_attr("predicted", heuristic.value)
            else:
                heuristic = Heuristic.BEST
        if heuristic in (Heuristic.BEST, Heuristic.BEST_EXTENDED):
            names = (Heuristic.THRESHOLD, Heuristic.BINARY)
            if heuristic is Heuristic.BEST_EXTENDED:
                names += (Heuristic.GREEDY_PACKING, Heuristic.BALANCED)
            candidates = []
            for name in names:
                report = self._assemble(batch, decision, tiles, name, opts)
                time_ms = self.simulate_plan(report).time_ms
                candidates.append((time_ms, name, report))
            candidates.sort(key=lambda c: c[0])
            tracer.counter("plan_candidates_tried", len(candidates))
            # The summary formats every candidate: build it only to log it.
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "plan(%s): %s -> %s (candidates: %s)",
                    requested.value,
                    decision.threads,
                    candidates[0][1].value,
                    ", ".join(f"{n.value}={t:.4f}ms" for t, n, _ in candidates),
                )
            return candidates[0][2]
        report = self._assemble(batch, decision, tiles, heuristic, opts)
        logger.debug(
            "plan(%s): %d GEMMs -> %d tiles -> %d blocks (%d threads, TLP %d)",
            heuristic.value,
            len(batch),
            report.schedule.num_tiles,
            report.schedule.num_blocks,
            decision.threads,
            decision.tlp,
        )
        return report

    def _assemble(
        self,
        batch: GemmBatch,
        decision: TilingDecision,
        tiles,
        heuristic: Heuristic,
        opts: PlanOptions,
    ) -> PlanReport:
        tracer = get_tracer()
        with tracer.span("assemble", heuristic=heuristic.value) as span:
            batching = batch_tiles(
                tiles,
                threads_per_block=decision.threads,
                heuristic=heuristic.value,
                theta=opts.theta,
                tlp_threshold=opts.tlp_threshold,
            )
            schedule = build_schedule(batch, decision, batching)
            if span.enabled:
                span.set_attr("blocks", schedule.num_blocks)
        return PlanReport(
            batch=batch,
            decision=decision,
            batching=batching,
            schedule=schedule,
            heuristic_requested=opts.heuristic.value,
            heuristic_used=heuristic.value,
            options=replace(opts, heuristic=heuristic),
        )

    # -- introspection -------------------------------------------------

    def explain_plan(self, report: PlanReport, top: int = 5) -> str:
        """A human-readable cost breakdown of a plan.

        Prices every block under the launch's converged context and
        reports the kernel-level picture (occupancy, concurrency,
        L2 hit fraction) plus the ``top`` most expensive blocks --
        the diagnostic view a performance engineer wants before
        accepting a schedule.
        """
        from repro.gpu.occupancy import occupancy
        from repro.gpu.simulator import _converge_kernel

        launch = report.kernel_launch()
        first = launch.classes[0]
        occ = occupancy(
            self.device,
            first.threads,
            first.registers_per_thread,
            first.shared_memory_bytes,
        )
        durations, makespan, concurrency, ctx = _converge_kernel(
            self.device, launch, occ.blocks_per_sm
        )
        order = sorted(range(len(durations)), key=lambda i: -durations[i])
        lines = [
            f"kernel: {launch.num_blocks} blocks x {first.threads} threads, "
            f"occupancy {occ.blocks_per_sm}/SM (limited by {occ.limited_by})",
            f"converged concurrency {concurrency:.0f} blocks, "
            f"L2 hit fraction {ctx.l2_hit_fraction:.2f}, "
            f"makespan {self.device.cycles_to_ms(makespan) * 1e3:.1f} us",
            f"critical blocks (of {launch.num_blocks}):",
        ]
        for i in order[:top]:
            tiles = launch.classes[launch.class_of[i]].tiles
            ks = "+".join(str(t.k) for t in tiles)
            lines.append(
                f"  block {i}: {len(tiles)} tile(s) "
                f"[{tiles[0].strategy.name if tiles else 'bubble'}, K={ks}] "
                f"-> {self.device.cycles_to_ms(durations[i]) * 1e3:.1f} us"
            )
        return "\n".join(lines)

    # -- timing ------------------------------------------------------

    def simulate_plan(self, report: PlanReport) -> SimulationResult:
        """Execution time of an existing plan on the device model.

        When a recording tracer is installed, the returned
        :class:`SimulationResult` carries the ``simulate`` span (with
        the kernel-level child span) in its ``trace`` field.
        """
        tracer = get_tracer()
        with tracer.span(
            "simulate",
            blocks=report.schedule.num_blocks,
            heuristic=report.heuristic_used,
        ) as span:
            launch = report.kernel_launch()
            result = simulate_kernel(self.device, launch)
            if span.enabled:
                span.set_attr("time_ms", result.time_ms)
                result = replace(result, trace=span)
        return result

    def simulate(
        self,
        batch: GemmBatch,
        heuristic: HeuristicLike = None,
        *,
        options: Optional[PlanOptions] = None,
    ) -> SimulationResult:
        """Plan and time a batch in one call."""
        return self.simulate_plan(self.plan(batch, heuristic, options=options))

    def tiling_only_simulate(self, batch: GemmBatch) -> SimulationResult:
        """Time the *tiling engine alone* (one tile per block).

        This is the "tiling" configuration of the paper's artifact --
        the Figure 8 experiment isolates it against MAGMA.
        """
        report = self.plan(batch, Heuristic.ONE_PER_BLOCK)
        return self.simulate_plan(report)

    # -- numerical execution ------------------------------------------

    def execute(
        self,
        batch: GemmBatch,
        operands: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
        heuristic: HeuristicLike = None,
        *,
        options: Optional[PlanOptions] = None,
        policy=None,
    ) -> list[np.ndarray]:
        """Numerically execute the batch through the planned schedule.

        Returns the list of C result matrices (inputs are not
        modified).  ``policy`` -- an
        :class:`~repro.kernels.ExecutionPolicy` -- says how: which
        engine (``compiled`` by default, which interprets a
        precompiled artifact; ``reference`` is the faithful per-slot
        Figure 7 walk) and whether the reliability envelope (retry /
        engine fallback / fault injection) wraps the run.  Both engines
        produce bit-identical results, so a planning bug shows up as a
        wrong numerical answer under either engine, not just a wrong
        time.

        A policy with :attr:`~repro.kernels.ExecutionPolicy.reliable`
        set runs through a
        :class:`~repro.reliability.ReliableExecutor`: failures are
        retried per ``policy.retry`` and then degrade along the engine
        chain (``compiled`` -> ``reference``), so
        a misbehaving preferred engine costs latency, not the answer.

        Mixed precision is executed for real: under a reduced
        precision (resolved from explicit options, then
        ``policy.precision``, then the operand dtype -- ``float16``
        operands imply fp16 -- then the framework default) operands
        are staged on the storage grid before the FP64-accumulating
        engines run, and bf16 outputs are re-quantized to the bf16
        grid.  The fp32 path passes operands through untouched and
        stays bit-exact.  ``policy.verify`` runs the
        :mod:`repro.kernels.verify` tolerance check on the outputs
        (bit-exact for fp32, per-dtype ``atol``/``rtol`` otherwise)
        and raises :class:`~repro.kernels.verify.VerificationError`
        on failure.
        """
        from repro.kernels import ExecutionPolicy

        pol = ExecutionPolicy.of(policy)
        opts = self._execution_options(heuristic, options, operands, pol)
        report = self.plan(batch, options=opts)
        return self._execute_plan(report.schedule, batch, operands, pol, opts)

    def _execute_plan(
        self,
        schedule: BatchSchedule,
        batch: GemmBatch,
        operands,
        pol,
        opts: PlanOptions,
    ) -> list[np.ndarray]:
        """Run a planned schedule: stage, execute, re-quantize, verify.

        The one post-plan step of :meth:`execute` and
        :meth:`PlanCache.execute
        <repro.core.plancache.PlanCache.execute>`.  Operands are staged
        at ``opts.precision``; a reliable policy runs through a
        :class:`~repro.reliability.ReliableExecutor`, any other through
        :func:`repro.kernels.get_engine` (the ``compiled`` engine finds
        its artifact in the compiled memo, compiling on first use).
        """
        from repro.kernels import get_engine

        prec = Precision.coerce(opts.precision)
        staged = quantize_operands(operands, prec) if prec.is_reduced else operands
        tracer = get_tracer()
        with tracer.span("execute", gemms=len(batch), engine=pol.engine) as span:
            if pol.reliable:
                from repro.reliability import ReliableExecutor

                executor = ReliableExecutor.from_policy(pol)
                values, engine_used = executor.execute(schedule, batch, staged)
                tracer.counter("execute.retries", executor.retries)
                tracer.counter("execute.fallbacks", executor.fallbacks)
                if span.enabled:
                    span.set_attr("engine_used", engine_used)
                    span.set_attr("fallbacks", executor.fallbacks)
            else:
                values = get_engine(pol.engine)(schedule, batch, staged)
        values = quantize_outputs(values, prec)
        if pol.verify:
            from repro.kernels.verify import verify_outputs

            verify_outputs(
                batch, staged, values, prec, schedule=schedule, raise_on_failure=True
            )
        return values

    def _execution_options(
        self, heuristic, options, operands, pol
    ) -> PlanOptions:
        """Resolve planning options for an execution, dtype-qualified.

        An explicitly pinned ``options.precision`` wins; otherwise the
        policy's precision, then the operands' storage dtype
        (``float16`` operands imply fp16 -- the qualification that
        keeps an fp16 submission from reusing a cached fp32 plan),
        then the framework default.
        """
        pinned = None
        for spec in (options, heuristic):
            if isinstance(spec, PlanOptions) and spec.precision is not None:
                pinned = spec.precision
                break
        opts = self.resolve_options(heuristic, options)
        if pinned is None:
            choice = pol.precision or infer_precision(operands)
            if choice is not None:
                value = Precision.coerce(choice).value
                if value != opts.precision:
                    opts = replace(opts, precision=value)
        return opts
