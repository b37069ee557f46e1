"""Per-thread-block cycle cost model.

This is the analytic stand-in for GPU silicon.  It prices one thread
block's execution in SM cycles given the *context* the block runs in
(how many blocks share each SM and what slice of DRAM bandwidth the
block gets).  The model captures exactly the mechanisms the paper's
framework trades against each other:

* **Throughput terms.**  Each main-loop iteration (Figure 2) moves
  ``(BY*BK + BK*BX)*4`` bytes through DRAM and performs ``BY*BX*BK``
  FMAs; with ``R`` co-resident blocks, the block's fair share of FMA
  lanes and issue slots shrinks by ``R``; bandwidth is shared across
  every concurrently running block on the device.
* **Memory-level parallelism (Little's law).**  A block cannot consume
  more bandwidth than its in-flight requests sustain: ``warps x
  loads-in-flight-per-warp x request size / latency``.  A sparse
  launch therefore cannot saturate DRAM no matter how large its fair
  share -- the low-TLP pathology the tiling engine's threshold guards
  against.
* **Pipeline-fill (ILP).**  The first A/B tile load of a block is
  fully exposed (software pipelining has nothing to overlap with);
  later tiles of the *same* block prefetch under the previous tile's
  main loop and pay only a small switch cost.  This is the mechanism
  the batching engine exploits for small-K tiles, amortizing one
  exposed round trip plus one dispatch across several tiles.
* **Idle threads.**  A tile computed by fewer threads than the block
  allocates (the non-unified thread structure of Figure 3(b)) issues
  work and sustains memory traffic from its active warps only, while
  the block's full footprint still counts against occupancy.
* **Bubble blocks** (MAGMA's rectangular ``gridDim.z`` expansion)
  carry no tiles and cost one dispatch.

All constants are per-device (:class:`repro.gpu.specs.DeviceSpec`) or
module-level and documented; ``repro.gpu.calibration`` ties them to
the paper's offline threshold procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, NamedTuple

from repro.core.precision import Precision, PrecisionLike
from repro.core.tiling import TilingStrategy
from repro.gpu.specs import DeviceSpec

#: Cycles to switch a persistent block from one tile to the next when
#: the next tile's first loads were prefetched under the current tile.
TILE_SWITCH_CYCLES = 32

#: Fixed epilogue drain cycles per tile (C writeback bookkeeping).
EPILOGUE_CONST_CYCLES = 24

#: Auxiliary (address/loop) instructions per thread per iteration.
AUX_INSTS_PER_ITER = 4

#: Floats per vectorized shared-memory load.
SMEM_VECTOR_WIDTH = 4

#: Floats per vectorized global load (the paper's 16-byte Load_width).
GMEM_VECTOR_WIDTH = 4

#: Pipeline fill cost of a block's first tile, in units of one
#: steady-state iteration.  The Figure 2 kernel is a 3-4 stage
#: software pipeline (global->shared, shared->register, compute, each
#: double-buffered); the ramp until every stage is busy costs a few
#: iterations beyond the exposed memory round trip.  Subsequent tiles
#: of the same block prefetch under the previous tile's main loop and
#: skip the ramp -- the ILP the batching engine recovers for small-K
#: tiles (calibrated against the paper's batching-engine contribution,
#: Figure 9).
PIPELINE_FILL_ITERS = 4.0

#: Instruction-count compression of FP16 tensor-core math: one HMMA
#: instruction covers many scalar FMAs, shrinking issue pressure.
TENSOR_CORE_ISSUE_COMPRESSION = 8.0


@dataclass(frozen=True)
class TileWork:
    """One tile's workload as seen by the cost model.

    ``strategy`` fixes the tile geometry; ``k`` is the reduction depth
    (the tile's GEMM's K); ``active_threads`` is how many of the
    block's threads participate -- fewer than the block allocation
    models the idle-thread pathology of a non-unified thread structure.
    """

    strategy: TilingStrategy
    k: int
    active_threads: int = 0  # 0 means "strategy.threads"
    precision: PrecisionLike = Precision.FP32

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"tile depth k must be positive, got {self.k}")
        if self.active_threads < 0:
            raise ValueError("active_threads must be non-negative")
        # Strings coerce through the enum, which raises on unknown
        # spellings -- a typo must not silently price as fp32.
        object.__setattr__(self, "precision", Precision.coerce(self.precision))

    @property
    def threads(self) -> int:
        return self.active_threads or self.strategy.threads

    @property
    def n_iterations(self) -> int:
        """Main-loop trip count: ceil(K / BK)."""
        return -(-self.k // self.strategy.bk)

    @property
    def element_bytes(self) -> int:
        """Bytes per matrix element for the tile's storage precision."""
        return self.precision.storage_bytes

    @property
    def bytes_per_iteration(self) -> int:
        """DRAM bytes staged per iteration (A tile + B tile)."""
        s = self.strategy
        return (s.by * s.bk + s.bk * s.bx) * self.element_bytes

    @property
    def fmas_per_iteration(self) -> int:
        """FMA operations per iteration for the whole tile."""
        s = self.strategy
        return s.by * s.bx * s.bk

    @property
    def gmem_loads_per_thread_per_iteration(self) -> float:
        """Equation 2: vectorized global loads per thread per iteration."""
        s = self.strategy
        return (s.by * s.bk + s.bk * s.bx) / (GMEM_VECTOR_WIDTH * self.threads)

    @property
    def insts_per_thread_per_iteration(self) -> float:
        """Per-thread instruction count of one main-loop iteration.

        FMAs (Eq. 3 per iteration), vectorized shared-memory fragment
        loads, vectorized global loads (Eq. 2), and auxiliary
        arithmetic.
        """
        s = self.strategy
        t = self.threads
        fma = s.by * s.bx * s.bk / t
        smem = (s.by * s.bk + s.bk * s.bx) / (SMEM_VECTOR_WIDTH * t)
        return fma + smem + self.gmem_loads_per_thread_per_iteration + AUX_INSTS_PER_ITER

    @property
    def active_warps(self) -> int:
        return -(-self.threads // 32)

    @property
    def epilogue_bytes(self) -> int:
        """C-tile writeback traffic."""
        s = self.strategy
        return s.by * s.bx * self.element_bytes

    def little_bw_bytes_per_cycle(self, device: DeviceSpec) -> float:
        """Little's-law bandwidth ceiling of this tile's memory stream.

        Each active warp keeps about ``device.mlp_bytes_per_warp``
        bytes in flight (issue serialization, iteration barriers and
        address dependencies keep this well below the architectural
        maximum), scaled up when a thread issues several independent
        global loads per iteration (heavier sub-tiles expose more
        memory-level parallelism per warp -- the per-thread ILP the
        128-thread strategy pool trades threads for).  Dividing by the
        round-trip latency gives the bandwidth this block can sustain
        on its own.  A sparse launch is therefore bandwidth-starved no
        matter how large its fair share -- the low-TLP pathology the
        framework fights.
        """
        ilp_scale = 0.5 + 0.5 * self.gmem_loads_per_thread_per_iteration
        in_flight = self.active_warps * device.mlp_bytes_per_warp * ilp_scale
        return in_flight / device.mem_latency_cycles


@dataclass(frozen=True)
class BlockWork:
    """One thread block: its resource footprint plus the tiles it runs.

    ``threads`` / ``registers_per_thread`` / ``shared_memory_bytes``
    describe the *allocated* footprint used for occupancy (in a fused
    kernel these are the maxima over every strategy the kernel may
    execute).  An empty ``tiles`` tuple is a bubble block.
    """

    threads: int
    registers_per_thread: int
    shared_memory_bytes: int
    tiles: tuple[TileWork, ...] = ()

    def __post_init__(self) -> None:
        if self.threads <= 0:
            raise ValueError(f"threads must be positive, got {self.threads}")
        if self.registers_per_thread <= 0:
            raise ValueError("registers_per_thread must be positive")
        if self.shared_memory_bytes < 0:
            raise ValueError("shared_memory_bytes must be non-negative")

    @property
    def is_bubble(self) -> bool:
        return not self.tiles

    @property
    def warps(self) -> int:
        return -(-self.threads // 32)

    @property
    def total_iterations(self) -> int:
        return sum(t.n_iterations for t in self.tiles)

    @property
    def total_fmas(self) -> int:
        return sum(t.fmas_per_iteration * t.n_iterations for t in self.tiles)

    @property
    def total_dram_bytes(self) -> int:
        return sum(
            t.bytes_per_iteration * t.n_iterations + t.epilogue_bytes for t in self.tiles
        )


@dataclass(frozen=True)
class SmContext:
    """The sharing context a block executes under.

    ``resident_blocks`` -- blocks co-resident on the SM (>= 1); scales
    the block's FMA-lane and issue-slot shares.
    ``bw_bytes_per_cycle`` -- the block's fair share of device DRAM
    bandwidth given how many blocks run concurrently device-wide.
    ``l2_bw_bytes_per_cycle`` -- the block's fair share of L2
    bandwidth.
    ``l2_hit_fraction`` -- fraction of the kernel's A/B tile traffic
    served from L2 (redundant re-loads of a working set that fits);
    computed per launch by the simulator from the batch footprint.
    """

    resident_blocks: int
    bw_bytes_per_cycle: float
    l2_bw_bytes_per_cycle: float = 1.0
    l2_hit_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.resident_blocks < 1:
            raise ValueError("resident_blocks must be >= 1")
        if self.bw_bytes_per_cycle <= 0:
            raise ValueError("bw_bytes_per_cycle must be positive")
        if self.l2_bw_bytes_per_cycle <= 0:
            raise ValueError("l2_bw_bytes_per_cycle must be positive")
        if not 0.0 <= self.l2_hit_fraction <= 1.0:
            raise ValueError("l2_hit_fraction must be within [0, 1]")


def add_in_order(values: Iterable[float], start: float = 0.0) -> float:
    """Left fold of ``values`` onto ``start``: ``((start + v0) + v1) + ...``.

    Modeled float sums use this (or an explicit loop), never the
    builtin ``sum``, which compensates rounding from CPython 3.12 on.
    Floating-point addition is not associative, so only one fixed order
    of additions gives the same modeled numbers on every Python.
    """
    return reduce(add, values, start)


class TileTerms(NamedTuple):
    """One tile's cost terms that no fixed-point round changes.

    Within one launch, only the :class:`SmContext` shares (co-resident
    blocks, DRAM and L2 bandwidth) change between the simulator's
    fixed-point rounds.  Everything else about a tile is derived here,
    once per launch (:meth:`of`): its bytes and FMAs per iteration, the
    FMA lanes of its datapath, warps x instructions, the two
    Little's-law ceilings, and the launch's L2-hit split of its bytes
    (the C-store share rides with the DRAM part).  :meth:`cycles` then
    prices the tile under one round's context.  The scalar functions
    below go through the same two steps, so each term of the model is
    written once.
    """

    #: Main-loop trip count.
    n_iterations: int
    #: A/B bytes staged per iteration.
    ab_bytes: int
    #: FMAs per iteration for the whole tile.
    fmas: int
    #: FMA lanes per SM on the tile's datapath.
    lanes: int
    #: Active warps x per-thread instructions per iteration.
    warp_insts: float
    #: Tensor-Core instruction packing of the issue term (1.0: none).
    issue_divisor: float
    #: Little's-law DRAM ceiling, bytes/cycle.
    little_dram: float
    #: The same in-flight bytes against the L2 latency.
    little_l2: float
    #: DRAM bytes per iteration: the L2 misses plus the C-store share.
    dram_bytes: float
    #: DRAM bytes per iteration of the A/B pipeline alone.
    dram_ab_bytes: float
    #: L2-served A/B bytes per iteration.
    l2_bytes: float

    @classmethod
    def of(cls, device: DeviceSpec, tile: TileWork, hit: float) -> "TileTerms":
        """The terms of ``tile`` on ``device`` in a launch with L2-hit
        fraction ``hit``."""
        ab_bytes = tile.bytes_per_iteration
        n_iterations = tile.n_iterations
        little = tile.little_bw_bytes_per_cycle(device)
        # fp16 and bf16 share the half-width datapath (Tensor-Core /
        # matrix unit where present, packed half2 math otherwise).
        reduced = tile.precision.is_reduced
        # Tensor-core FP16 math packs many FMAs per instruction,
        # shrinking issue pressure.
        packed = reduced and device.tensor_core_fp16_fma_per_sm > 0
        dram_ab_bytes = (1.0 - hit) * ab_bytes
        return cls(
            n_iterations=n_iterations,
            ab_bytes=ab_bytes,
            fmas=tile.fmas_per_iteration,
            lanes=device.fp16_fma_per_sm if reduced else device.fma_lanes_per_sm,
            warp_insts=tile.active_warps * tile.insts_per_thread_per_iteration,
            issue_divisor=TENSOR_CORE_ISSUE_COMPRESSION if packed else 1.0,
            little_dram=little,
            little_l2=little * device.mem_latency_cycles / device.l2_latency_cycles,
            # The C writeback's bandwidth demand is spread over the
            # tile's iterations (see memory_cycles).
            dram_bytes=dram_ab_bytes + tile.epilogue_bytes / n_iterations,
            dram_ab_bytes=dram_ab_bytes,
            l2_bytes=hit * ab_bytes,
        )

    def dram_bandwidth(self, ctx: SmContext) -> float:
        """DRAM bandwidth this tile's stream sustains: the smaller of the
        fair share (contention) and the Little's-law ceiling (a lone
        block cannot keep DRAM busy)."""
        return min(ctx.bw_bytes_per_cycle, self.little_dram)

    def l2_bandwidth(self, ctx: SmContext) -> float:
        """L2 bandwidth this tile's stream sustains (same MLP, lower
        latency)."""
        return min(ctx.l2_bw_bytes_per_cycle, self.little_l2)

    def memory_cycles(self, ctx: SmContext, include_stores: bool = True) -> float:
        """Cycles the memory system needs per main-loop iteration.

        The L2-served and DRAM-served streams pipeline, so the slower
        one bounds the iteration.  ``include_stores=False`` leaves out
        the C-store share (the pipeline-fill prologue).
        """
        dram_bytes = self.dram_bytes if include_stores else self.dram_ab_bytes
        dram = dram_bytes / self.dram_bandwidth(ctx)
        l2 = self.l2_bytes / self.l2_bandwidth(ctx)
        return max(dram, l2)

    def iteration_cycles(
        self, device: DeviceSpec, ctx: SmContext, include_stores: bool = True
    ) -> float:
        """Steady-state cycles per main-loop iteration: the slowest of
        the FMA-lane share, the memory system and the warp-issue
        demand."""
        r = ctx.resident_blocks
        compute = self.fmas / (self.lanes / r)
        memory = self.memory_cycles(ctx, include_stores)
        # Warps issue roughly one instruction per scheduler slot per
        # cycle; R blocks share the SM's schedulers.
        issue = self.warp_insts * r / device.warp_schedulers_per_sm / self.issue_divisor
        return max(compute, memory, issue)

    def cycles(self, device: DeviceSpec, ctx: SmContext, first_in_block: bool) -> float:
        """Cycles for the tile: prologue + main loop + epilogue.

        The first tile of a block pays a fully exposed prologue -- one
        memory round trip plus the pipeline ramp; later tiles were
        prefetched and pay only the switch cost.
        """
        t_iter = self.iteration_cycles(device, ctx)
        if first_in_block:
            ramp = self.iteration_cycles(device, ctx, include_stores=False)
            prologue = device.mem_latency_cycles + PIPELINE_FILL_ITERS * ramp
        else:
            prologue = TILE_SWITCH_CYCLES
        main = self.n_iterations * t_iter
        # Store *time* is folded into the iteration stream (see
        # memory_cycles); only the bookkeeping drain is serial here.
        return float(prologue + main + EPILOGUE_CONST_CYCLES)


def effective_dram_bandwidth(
    device: DeviceSpec, tile: TileWork, ctx: SmContext
) -> float:
    """DRAM bandwidth this tile's stream actually sustains.

    The smaller of the fair share (contention) and the Little's-law
    ceiling (a lone block cannot keep DRAM busy).
    """
    return TileTerms.of(device, tile, ctx.l2_hit_fraction).dram_bandwidth(ctx)


def effective_l2_bandwidth(device: DeviceSpec, tile: TileWork, ctx: SmContext) -> float:
    """L2 bandwidth this tile's stream sustains (same MLP, lower latency)."""
    return TileTerms.of(device, tile, ctx.l2_hit_fraction).l2_bandwidth(ctx)


def memory_cycles_per_iteration(
    device: DeviceSpec, tile: TileWork, ctx: SmContext, include_stores: bool = True
) -> float:
    """Cycles the memory system needs per main-loop iteration.

    The iteration's A/B traffic splits into an L2-served fraction and
    a DRAM-served remainder; the two streams pipeline, so the slower
    one bounds the iteration.  The C writeback is fire-and-forget
    streaming DRAM traffic: it does not serialize the block (the SM
    retires the block while stores drain) but its bandwidth demand is
    spread over the tile's iterations.
    """
    return TileTerms.of(device, tile, ctx.l2_hit_fraction).memory_cycles(
        ctx, include_stores
    )


def iteration_cycles(
    device: DeviceSpec, tile: TileWork, ctx: SmContext, include_stores: bool = True
) -> float:
    """Steady-state cycles per main-loop iteration of one tile.

    Bound by the slowest of three resources: the block's FMA-lane
    share, its achievable memory bandwidth, and its warp-issue demand.
    ``include_stores=False`` prices the A/B pipeline alone (used for
    the pipeline-fill prologue, which the C writeback is not part of).
    """
    return TileTerms.of(device, tile, ctx.l2_hit_fraction).iteration_cycles(
        device, ctx, include_stores
    )


def tile_cycles(
    device: DeviceSpec, tile: TileWork, ctx: SmContext, first_in_block: bool
) -> float:
    """Cycles for one tile: prologue + main loop + epilogue.

    The first tile of a block pays a fully exposed prologue -- one
    memory round trip plus roughly one iteration of pipeline ramp.
    Subsequent tiles were prefetched under the previous tile's main
    loop and pay only the switch cost -- the ILP benefit the batching
    engine buys, largest exactly when K is small and the ramp is a big
    fraction of the tile's work.
    """
    return TileTerms.of(device, tile, ctx.l2_hit_fraction).cycles(
        device, ctx, first_in_block
    )


def l2_hit_fraction(
    device: DeviceSpec,
    compulsory_ab_bytes: float | None,
    traffic_ab_bytes: float,
) -> float:
    """Fraction of a kernel's A/B traffic served from L2.

    ``compulsory_ab_bytes`` is the batch's unique A/B footprint (each
    operand read once from DRAM no matter the tiling);
    ``traffic_ab_bytes`` the total tile traffic the chosen tiling
    induces.  The redundant fraction ``1 - compulsory/traffic`` hits L2
    to the extent the footprint fits (``l2_size / compulsory``, capped
    at 1).  ``None`` footprint (unknown workload) disables L2 credit.
    """
    if compulsory_ab_bytes is None or compulsory_ab_bytes <= 0 or traffic_ab_bytes <= 0:
        return 0.0
    redundant = max(0.0, 1.0 - compulsory_ab_bytes / traffic_ab_bytes)
    coverage = min(1.0, device.l2_size_bytes / compulsory_ab_bytes)
    return redundant * coverage


def block_cycles(device: DeviceSpec, block: BlockWork, ctx: SmContext) -> float:
    """Total cycles one block occupies its SM slot.

    A bubble block costs one dispatch.  A working block costs dispatch
    plus the sum of its tiles' costs, the first tile paying the exposed
    pipeline-fill prologue.
    """
    return add_in_order(
        (
            tile_cycles(device, tile, ctx, first_in_block=(i == 0))
            for i, tile in enumerate(block.tiles)
        ),
        float(device.block_dispatch_cycles),
    )
