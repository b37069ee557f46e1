"""Tiling strategies and the tiling-strategy selection algorithm.

Implements Section 4 of the paper:

* Table 1 -- the six classic tiling strategies for the *single*-GEMM
  scenario (thread count varies per strategy, 32-256).
* Table 2 -- the twelve strategies dedicated to the *batched* scenario:
  the same six tile sizes, each in a 128-thread and a 256-thread
  variant, so that every strategy in a pool shares one thread-block
  size (the "unified thread structure" that removes idle threads).
* The selection algorithm of Section 4.2.3: start every GEMM at its
  smallest available strategy (TLP-first), and while the aggregate TLP
  (Eq. 1) exceeds an architecture-dependent threshold, advance every
  GEMM that still has a larger strategy available, trading TLP for
  data reuse and ILP.  When every GEMM is pinned at its largest
  strategy and TLP is still above the threshold, fall back from the
  256-thread pool to the 128-thread pool (larger sub-tiles, more ILP).

A note on the paper's worked example (three GEMMs 16x32x128, 64x64x64,
256x256x64): the prose claims the first GEMM has *two* available
strategies, but its reported TLP trace (70144 -> 17920 ending at
(small, medium, medium)) is only consistent with the availability rule
``BY <= M and BX <= N`` under which the 16x32 GEMM admits only the
small strategy.  We implement the rule the trace implies and reproduce
the trace exactly in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.problem import Gemm, GemmBatch
from repro.core.models import tlp_of_selection
from repro.telemetry import get_tracer


@dataclass(frozen=True)
class TilingStrategy:
    """One tiling strategy: tile size, thread count, and sub-tile shape.

    ``by`` x ``bx`` is the C-tile computed by one thread block; ``bk``
    is the K-depth of the A/B tiles staged through shared memory each
    main-loop iteration; ``threads`` is the block size; each thread
    accumulates a ``sub_y`` x ``sub_x`` register sub-tile.

    The invariant ``by * bx == threads * sub_y * sub_x`` (every C
    element owned by exactly one thread) is validated on construction.
    """

    name: str
    by: int
    bx: int
    bk: int
    threads: int
    sub_y: int
    sub_x: int
    index: int = -1  # position in the 12-entry batched table, -1 for Table 1

    def __post_init__(self) -> None:
        if self.by <= 0 or self.bx <= 0 or self.bk <= 0:
            raise ValueError(f"tile dimensions must be positive: {self}")
        if self.threads <= 0:
            raise ValueError(f"threads must be positive: {self}")
        if self.by * self.bx != self.threads * self.sub_y * self.sub_x:
            raise ValueError(
                f"inconsistent strategy {self.name}: tile {self.by}x{self.bx} != "
                f"{self.threads} threads x sub-tile {self.sub_y}x{self.sub_x}"
            )

    @property
    def tile_elems(self) -> int:
        """C elements per tile."""
        return self.by * self.bx

    @property
    def sub_tile_elems(self) -> int:
        """C elements per thread."""
        return self.sub_y * self.sub_x

    def tiles_for(self, gemm: Gemm) -> tuple[int, int]:
        """Tile grid ``(rows, cols)`` covering the GEMM's C matrix."""
        rows = -(-gemm.m // self.by)
        cols = -(-gemm.n // self.bx)
        return rows, cols

    def num_tiles(self, gemm: Gemm) -> int:
        """Total tiles this strategy induces on the GEMM's C matrix."""
        rows, cols = self.tiles_for(gemm)
        return rows * cols

    def smem_footprint(self, element_bytes: int) -> int:
        """Double-buffered A and B staging tiles at one element width.

        ``element_bytes`` is the *storage* width of the precision the
        tiles are staged in (4 for fp32, 2 for fp16/bf16 -- see
        :class:`repro.core.precision.Precision`); accumulation width
        does not appear here because accumulators live in registers.
        """
        if element_bytes <= 0:
            raise ValueError(f"element_bytes must be positive, got {element_bytes}")
        return 2 * (self.by * self.bk + self.bk * self.bx) * element_bytes

    @property
    def shared_memory_bytes(self) -> int:
        """Double-buffered A and B staging tiles (FP32), as in Figure 2."""
        return self.smem_footprint(4)

    @property
    def registers_per_thread(self) -> int:
        """Estimated register footprint per thread.

        Sub-tile accumulators, double-buffered A/B register fragments
        (Figure 2 lines 2-4), plus a fixed overhead for addresses and
        loop state.  The estimate drives occupancy only; it never
        exceeds the architectural cap for any table entry.
        """
        accumulators = self.sub_y * self.sub_x
        fragments = 2 * (self.sub_y + self.sub_x)
        overhead = 24
        return accumulators + fragments + overhead

    def __str__(self) -> str:
        return f"{self.name}/{self.threads}t({self.by}x{self.bx}x{self.bk})"


def _table(entries: Sequence[tuple], base_index: int = -1) -> tuple[TilingStrategy, ...]:
    out = []
    for i, (name, by, bx, bk, threads, sy, sx) in enumerate(entries):
        idx = base_index + i if base_index >= 0 else -1
        out.append(
            TilingStrategy(
                name=name, by=by, bx=bx, bk=bk, threads=threads, sub_y=sy, sub_x=sx, index=idx
            )
        )
    return tuple(out)


#: Table 1 -- tiling strategies for the single-GEMM scenario.
SINGLE_GEMM_STRATEGIES: tuple[TilingStrategy, ...] = _table(
    [
        ("small", 16, 16, 8, 32, 4, 2),
        ("medium", 32, 32, 8, 64, 4, 4),
        ("large", 64, 64, 8, 64, 8, 8),
        ("tall", 128, 64, 8, 128, 8, 8),
        ("wide", 64, 128, 8, 128, 8, 8),
        ("huge", 128, 128, 8, 256, 8, 8),
    ]
)

#: Table 2, 256-thread column -- the variant the algorithm tries first.
BATCHED_STRATEGIES_256: tuple[TilingStrategy, ...] = _table(
    [
        ("small", 16, 16, 8, 256, 1, 1),
        ("medium", 32, 32, 8, 256, 2, 2),
        ("large", 64, 64, 8, 256, 4, 4),
        ("tall", 128, 64, 8, 256, 8, 4),
        ("wide", 64, 128, 8, 256, 8, 4),
        ("huge", 128, 128, 8, 256, 8, 8),
    ],
    base_index=0,
)

#: Table 2, 128-thread column -- the ILP-heavier fallback pool.
BATCHED_STRATEGIES_128: tuple[TilingStrategy, ...] = _table(
    [
        ("small", 16, 16, 8, 128, 2, 1),
        ("medium", 32, 32, 8, 128, 4, 2),
        ("large", 64, 64, 8, 128, 8, 4),
        ("tall", 128, 64, 8, 128, 8, 8),
        ("wide", 64, 128, 8, 128, 8, 8),
        ("huge", 128, 128, 8, 128, 16, 8),
    ],
    base_index=6,
)

#: All twelve batched strategies, indexable by the 0-11 ids the
#: programming interface stores in its "Tiling strategy" array.
ALL_BATCHED_STRATEGIES: tuple[TilingStrategy, ...] = (
    BATCHED_STRATEGIES_256 + BATCHED_STRATEGIES_128
)

#: The BK depth all twelve batched strategies share (the unified thread
#: structure of §4), so a GEMM's K main loop does not depend on which
#: strategies tile it.  The unpacking fails at import if the table ever
#: mixes depths.
(BATCHED_BK,) = {s.bk for s in ALL_BATCHED_STRATEGIES}


def strategy_by_index(index: int) -> TilingStrategy:
    """The batched strategy with the given 0-11 table index."""
    if not 0 <= index < len(ALL_BATCHED_STRATEGIES):
        raise IndexError(
            f"strategy index {index} out of range 0-{len(ALL_BATCHED_STRATEGIES) - 1}"
        )
    return ALL_BATCHED_STRATEGIES[index]


def strategy_by_name(name: str, threads: int = 256) -> TilingStrategy:
    """Look up a batched strategy by name and thread-pool variant."""
    pool = BATCHED_STRATEGIES_256 if threads == 256 else BATCHED_STRATEGIES_128
    if threads not in (128, 256):
        raise ValueError(f"threads must be 128 or 256, got {threads}")
    for s in pool:
        if s.name == name:
            return s
    raise KeyError(f"no strategy named {name!r}; known: {[s.name for s in pool]}")


def available_strategies(
    gemm: Gemm, pool: Sequence[TilingStrategy] = BATCHED_STRATEGIES_256
) -> list[TilingStrategy]:
    """Strategies applicable to a GEMM: ``BY <= M and BX <= N``.

    Sorted smallest-first (the priority order of the selection
    algorithm's queue).  A GEMM smaller than the smallest tile keeps the
    smallest strategy so every GEMM always has at least one choice.
    """
    fits = [s for s in pool if s.by <= gemm.m and s.bx <= gemm.n]
    if not fits:
        fits = [min(pool, key=lambda s: s.tile_elems)]
    return sorted(fits, key=lambda s: (s.tile_elems, s.by))


@dataclass(frozen=True)
class TilingDecision:
    """Output of the tiling engine for one batch.

    ``strategies[i]`` is the strategy chosen for ``batch[i]``; all
    strategies share ``threads`` (the unified thread structure);
    ``tlp`` is the Eq. 1 value of the final selection; ``trace`` holds
    the (selection, tlp) pairs the algorithm examined, for explanation
    and for tests that reproduce the paper's worked example.
    """

    strategies: tuple[TilingStrategy, ...]
    threads: int
    tlp: int
    trace: tuple[tuple[tuple[str, ...], int], ...]

    def strategy_for(self, gemm_index: int) -> TilingStrategy:
        """The strategy chosen for the batch's ``gemm_index``-th GEMM."""
        return self.strategies[gemm_index]


def select_tiling(
    batch: GemmBatch,
    tlp_threshold: int = 65536,
    *,
    backend=None,
    precision=None,
) -> TilingDecision:
    """The tiling-strategy selection algorithm of Section 4.2.3.

    Step 1: per-GEMM priority queues of available strategies
    (smallest = highest priority), starting from the 256-thread pool.
    Step 2: pop one strategy per GEMM (a GEMM whose queue holds a single
    strategy keeps it).  Step 3: if the aggregate TLP still exceeds the
    threshold, repeat step 2 with larger strategies; when every queue is
    exhausted, switch to the 128-thread pool.  The first selection whose
    TLP does not exceed the threshold is final.

    ``backend`` -- an optional
    :class:`~repro.gpu.backends.BackendSpec` -- replaces the two
    Table-2 pools with the backend's per-precision candidate pools
    (``backend.strategy_pools(precision)``): the same algorithm, run
    over what the target hardware actually admits for that storage
    dtype.  ``None`` (the default) keeps the published V100 tables,
    bit-identical to the pre-backend behaviour; ``precision`` without
    a backend is accepted and has no effect on selection (the CUDA
    pools are precision-independent).
    """
    if tlp_threshold <= 0:
        raise ValueError(f"tlp_threshold must be positive, got {tlp_threshold}")

    pools = (BATCHED_STRATEGIES_256, BATCHED_STRATEGIES_128)
    if backend is not None:
        from repro.core.precision import Precision

        prec = Precision.coerce(precision) if precision is not None else Precision.FP32
        pools = backend.strategy_pools(prec)

    with get_tracer().span(
        "tiling.select", gemms=len(batch), tlp_threshold=tlp_threshold
    ) as _span:
        decision = _select_tiling(batch, tlp_threshold, pools)
        if _span.enabled:
            _span.set_attr("tlp", decision.tlp)
            _span.set_attr("threads", decision.threads)
            _span.set_attr("steps", len(decision.trace))
    return decision


def _select_tiling(
    batch: GemmBatch,
    tlp_threshold: int,
    pools: tuple[Sequence[TilingStrategy], Sequence[TilingStrategy]] = (
        BATCHED_STRATEGIES_256,
        BATCHED_STRATEGIES_128,
    ),
) -> TilingDecision:
    pool_256, pool_128 = pools
    queues = [available_strategies(g, pool_256) for g in batch]
    cursors = [0] * len(batch)
    trace: list[tuple[tuple[str, ...], int]] = []

    def current() -> list[TilingStrategy]:
        return [q[c] for q, c in zip(queues, cursors)]

    def record(selection: list[TilingStrategy], tlp: int) -> None:
        trace.append((tuple(str(s) for s in selection), tlp))

    threads = 256
    while True:
        selection = current()
        tlp = tlp_of_selection(batch, selection)
        record(selection, tlp)
        if tlp <= tlp_threshold:
            break
        can_advance = [c < len(q) - 1 for q, c in zip(queues, cursors)]
        if any(can_advance):
            cursors = [c + 1 if adv else c for c, adv in zip(cursors, can_advance)]
            continue
        if threads == 256:
            # Every queue is pinned at its largest strategy and TLP is
            # still above the threshold: switch to the 128-thread pool
            # (same tile sizes, heavier sub-tiles for more per-thread
            # ILP) and repeat step 2 -- pop from the fresh queues,
            # smallest first, advancing as before.
            threads = 128
            queues = [available_strategies(g, pool_128) for g in batch]
            cursors = [0] * len(batch)
            continue
        break

    selection = current()
    tlp = tlp_of_selection(batch, selection)
    return TilingDecision(
        strategies=tuple(selection),
        threads=threads,
        tlp=tlp,
        trace=tuple(trace),
    )
