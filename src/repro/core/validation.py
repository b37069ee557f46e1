"""Standalone schedule validation (linting without execution).

``build_schedule`` guarantees its own output, but schedules also
arrive from outside -- deserialized from :meth:`BatchSchedule.to_dict`
payloads, or hand-constructed through the programming interface
(Section 6 promises it can describe *any* scheme, which includes
broken ones).  ``validate_schedule`` reports every fault of the
engines' own check, :func:`~repro.core.schedule.check_schedule`, not
just the first, plus the two checks only a device launch needs: the
unified thread structure and the fused footprint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import GemmBatch
from repro.core.schedule import BatchSchedule, _schedule_faults
from repro.core.tiling import ALL_BATCHED_STRATEGIES, strategy_by_index


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating one schedule against one batch."""

    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_invalid(self) -> None:
        """Raise ``ValueError`` listing every error, if any."""
        if self.errors:
            raise ValueError(
                "invalid schedule:\n" + "\n".join(f"- {e}" for e in self.errors)
            )


def validate_schedule(schedule: BatchSchedule, batch: GemmBatch) -> ValidationReport:
    """Check a schedule fully and safely against a batch.

    Errors (schedule must not run): every fault
    :func:`~repro.core.schedule.check_schedule` would raise first --
    each slot with an out-of-range GEMM or strategy id or a tile origin
    outside its matrix, or else each GEMM not tiled exactly once --
    plus each used strategy that breaks the unified thread structure or
    that the fused footprint understates.  Warnings (legal but
    suspicious): a GEMM tiled by several strategies (the engines run
    it, the planner never builds it), and blocks with very many tiles.
    """
    _y0, _x0, faults = _schedule_faults(schedule, batch)
    errors = [str(e) if slot is None else f"slot {slot}: {e}" for slot, e in faults]
    warnings: list[str] = []

    n_strats = len(ALL_BATCHED_STRATEGIES)
    gemm_ids = schedule.gemm_ids.astype(np.int64)
    strat_ids = schedule.strategy_ids.astype(np.int64)
    known = (strat_ids >= 0) & (strat_ids < n_strats)
    for sid in np.unique(strat_ids[known]).tolist():
        strat = strategy_by_index(sid)
        if strat.threads != schedule.threads_per_block:
            errors.append(
                f"strategy {strat} breaks the unified thread structure "
                f"({strat.threads} != {schedule.threads_per_block})"
            )
        if strat.shared_memory_bytes > schedule.shared_memory_bytes:
            errors.append(
                f"fused shared-memory footprint {schedule.shared_memory_bytes} "
                f"understates strategy {strat} ({strat.shared_memory_bytes})"
            )
        if strat.registers_per_thread > schedule.registers_per_thread:
            errors.append(
                f"fused register footprint {schedule.registers_per_thread} "
                f"understates strategy {strat} ({strat.registers_per_thread})"
            )

    # Distinct (GEMM, strategy) pairs, sorted by GEMM.
    known &= (gemm_ids >= 0) & (gemm_ids < len(batch))
    pairs = np.unique(gemm_ids[known] * n_strats + strat_ids[known])
    gemm_of, strat_of = np.divmod(pairs, n_strats)
    for gi in np.unique(gemm_of[1:][gemm_of[1:] == gemm_of[:-1]]).tolist():
        warnings.append(
            f"GEMM {gi} is tiled by strategies {strat_of[gemm_of == gi].tolist()}; "
            "the engines run it, but the planner gives each GEMM one strategy"
        )

    sizes = np.diff(schedule.tile_offsets)
    if sizes.max(initial=0) >= 32:
        warnings.append(
            f"a block carries {int(sizes.max())} tiles; such monster blocks "
            "serialize badly (see the threshold-batching ablation)"
        )
    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))
