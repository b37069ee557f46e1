"""The paper's primary contribution: coordinated tiling and batching.

Layout:

* :mod:`repro.core.problem` -- GEMM problem descriptions
  (:class:`~repro.core.problem.Gemm`,
  :class:`~repro.core.problem.GemmBatch`).
* :mod:`repro.core.tiling` -- the tiling strategy tables (paper
  Tables 1 and 2) and the tiling-strategy selection algorithm
  (Section 4.2.3).
* :mod:`repro.core.models` -- the analytic TLP model (Eq. 1) and
  arithmetic-intensity model (Eqs. 2-4).
* :mod:`repro.core.batching` -- threshold batching and binary batching
  (Section 5).
* :mod:`repro.core.schedule` -- the five auxiliary arrays of the
  programming interface (Section 6 / Figure 6).
* :mod:`repro.core.selector` -- the random-forest online policy that
  picks a batching heuristic per case.
* :mod:`repro.core.framework` -- the end-to-end facade tying the two
  engines together.
"""

from repro.core.problem import Gemm, GemmBatch, Tile, batch_signature
from repro.core.options import Heuristic, PlanOptions
from repro.core.precision import (
    Precision,
    default_precision,
    infer_precision,
    quantize_operands,
    quantize_outputs,
)
from repro.core.tiling import (
    TilingStrategy,
    SINGLE_GEMM_STRATEGIES,
    BATCHED_STRATEGIES_128,
    BATCHED_STRATEGIES_256,
    strategy_by_name,
    strategy_by_index,
    available_strategies,
    select_tiling,
    TilingDecision,
)
from repro.core.models import (
    tlp_of_selection,
    gemm_tile_count,
    num_load_per_iteration,
    num_fma_per_iteration,
    arithmetic_intensity,
)
from repro.core.batching import (
    BatchingResult,
    threshold_batching,
    binary_batching,
    batch_tiles,
)
from repro.core.schedule import BatchSchedule, build_schedule
from repro.core.selector import HeuristicSelector, train_default_selector
from repro.core.framework import CoordinatedFramework, PlanReport
from repro.core.plancache import CacheStats, PlanCache
from repro.core.autotune import oracle_search, tiling_regret, OracleResult

__all__ = [
    "Gemm",
    "GemmBatch",
    "Tile",
    "Heuristic",
    "PlanOptions",
    "Precision",
    "default_precision",
    "infer_precision",
    "quantize_operands",
    "quantize_outputs",
    "TilingStrategy",
    "SINGLE_GEMM_STRATEGIES",
    "BATCHED_STRATEGIES_128",
    "BATCHED_STRATEGIES_256",
    "strategy_by_name",
    "strategy_by_index",
    "available_strategies",
    "select_tiling",
    "TilingDecision",
    "tlp_of_selection",
    "gemm_tile_count",
    "num_load_per_iteration",
    "num_fma_per_iteration",
    "arithmetic_intensity",
    "BatchingResult",
    "threshold_batching",
    "binary_batching",
    "batch_tiles",
    "BatchSchedule",
    "build_schedule",
    "HeuristicSelector",
    "train_default_selector",
    "CoordinatedFramework",
    "PlanReport",
    "PlanCache",
    "CacheStats",
    "batch_signature",
    "oracle_search",
    "tiling_regret",
    "OracleResult",
]
