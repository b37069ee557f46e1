"""Oracle tile search: how good is the paper's cheap tiling algorithm?

The selection algorithm of Section 4.2.3 is a greedy heuristic over an
exponentially large space (any strategy per GEMM, from either thread
pool).  This module implements a *beam search* over per-GEMM strategy
assignments, scoring each complete assignment by simulated kernel time
-- an (approximate) oracle.  The regret experiment compares the
algorithm's plan against the oracle's, quantifying how much the
paper's heuristic leaves on the table; on the paper's workloads the
answer should be "very little", which is the point of a cheap greedy
design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.batching import batch_tiles
from repro.core.problem import GemmBatch
from repro.core.schedule import build_schedule, tile_columns
from repro.core.tiling import (
    BATCHED_STRATEGIES_128,
    BATCHED_STRATEGIES_256,
    TilingDecision,
    TilingStrategy,
    available_strategies,
    select_tiling,
)
from repro.gpu.simulator import KernelLaunch, simulate_kernel
from repro.gpu.specs import DeviceSpec, VOLTA_V100


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one oracle search."""

    decision: TilingDecision
    time_ms: float
    evaluations: int


def _evaluate(
    device: DeviceSpec,
    batch: GemmBatch,
    strategies: Sequence[TilingStrategy],
    threads: int,
    heuristic: str,
) -> float:
    """Simulated time of one complete strategy assignment."""
    decision = TilingDecision(
        strategies=tuple(strategies), threads=threads, tlp=0, trace=()
    )
    batching = batch_tiles(
        tile_columns(batch, decision),
        threads_per_block=threads,
        heuristic=heuristic,
        theta=device.batching_theta,
        tlp_threshold=device.tlp_threshold,
    )
    schedule = build_schedule(batch, decision, batching)
    launch = KernelLaunch.of_classes(
        "oracle",
        *schedule.block_classes(batch),
        compulsory_ab_bytes=float(batch.compulsory_ab_bytes),
    )
    return simulate_kernel(device, launch).time_ms


def oracle_search(
    batch: GemmBatch,
    device: DeviceSpec = VOLTA_V100,
    beam_width: int = 4,
    heuristic: str = "threshold",
) -> OracleResult:
    """Beam search over per-GEMM strategies in both thread pools.

    GEMMs are assigned strategies one at a time; partial assignments
    are completed with the smallest available strategy for scoring, and
    the ``beam_width`` best partials survive each step.  Both the 128-
    and 256-thread pools are searched (the unified thread structure
    forbids mixing them).
    """
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    best_time = float("inf")
    best: tuple[TilingStrategy, ...] | None = None
    best_threads = 256
    evaluations = 0

    for pool, threads in ((BATCHED_STRATEGIES_256, 256), (BATCHED_STRATEGIES_128, 128)):
        options = [available_strategies(g, pool) for g in batch]
        # Beam over prefixes; fill the suffix with smallest strategies.
        beam: list[tuple[float, tuple[TilingStrategy, ...]]] = [(0.0, ())]
        for gi in range(len(batch)):
            candidates = []
            for _score, prefix in beam:
                for strat in options[gi]:
                    assignment = prefix + (strat,)
                    filler = tuple(opts[0] for opts in options[gi + 1 :])
                    time_ms = _evaluate(
                        device, batch, assignment + filler, threads, heuristic
                    )
                    evaluations += 1
                    candidates.append((time_ms, assignment))
            candidates.sort(key=lambda c: c[0])
            # Deduplicate identical prefixes (different paths can meet).
            seen = set()
            beam = []
            for time_ms, assignment in candidates:
                key = tuple(s.index for s in assignment)
                if key in seen:
                    continue
                seen.add(key)
                beam.append((time_ms, assignment))
                if len(beam) == beam_width:
                    break
        pool_time, pool_best = beam[0]
        if pool_time < best_time:
            best_time = pool_time
            best = pool_best
            best_threads = threads

    assert best is not None
    decision = TilingDecision(
        strategies=best, threads=best_threads, tlp=0, trace=()
    )
    return OracleResult(decision=decision, time_ms=best_time, evaluations=evaluations)


def tiling_regret(
    batch: GemmBatch,
    device: DeviceSpec = VOLTA_V100,
    beam_width: int = 4,
) -> tuple[float, float, float]:
    """(algorithm time, oracle time, regret ratio) for one batch.

    Regret = algorithm / oracle >= ~1; the closer to 1, the less the
    greedy selection leaves behind.
    """
    decision = select_tiling(batch, tlp_threshold=device.tlp_threshold)
    algorithm_ms = _evaluate(
        device, batch, decision.strategies, decision.threads, "threshold"
    )
    oracle = oracle_search(batch, device, beam_width=beam_width)
    return algorithm_ms, oracle.time_ms, algorithm_ms / oracle.time_ms
