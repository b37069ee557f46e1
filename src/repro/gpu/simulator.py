"""Wave-based kernel execution simulator.

Given the thread blocks of one kernel launch, the simulator:

1. computes the kernel's occupancy from its (uniform) resource
   footprint -- how many blocks one SM can hold;
2. estimates the *effective concurrency* of the launch by fixed-point
   iteration: block durations depend on the bandwidth share, which
   depends on how many blocks run at once, which depends on the
   durations.  Three or four rounds converge for every launch shape,
   including badly imbalanced ones (a few monster blocks next to many
   minnows);
3. prices every *block class* once per round -- a block's price
   depends only on its value and the round's context, so equal blocks
   cost the same.  A :class:`KernelLaunch` holds its blocks as
   classes: the planner's lowering hands them over directly
   (:meth:`KernelLaunch.of_classes`), and only
   ``KernelLaunch(name, blocks)`` groups blocks by value, once, when
   the launch is built.  Each distinct tile's round-invariant terms
   (:class:`repro.gpu.costmodel.TileTerms`) are derived once per
   launch, and each round prices every distinct (tile, first-in-block)
   pair once;
4. list-schedules blocks onto SM residency slots in issue order (the
   GigaThread engine's behaviour) and reports the makespan.  A launch
   that fits in one wave starts every block at cycle 0, so its
   makespan is its longest block.

``simulate_stream_serial`` strings kernels together back-to-back with
host launch gaps (the default one-kernel-per-GEMM execution mode);
``simulate_streams_concurrent`` overlaps kernels the way the CUDA
stream interface does, with a per-launch host-side serialization gap
(the "coarse-grained scheduling overhead" the paper cites for CKE).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.gpu.costmodel import (
    BlockWork,
    SmContext,
    TileTerms,
    add_in_order,
    l2_hit_fraction,
)
from repro.gpu.occupancy import occupancy
from repro.gpu.specs import DeviceSpec
from repro.telemetry import get_tracer

#: Fixed-point rounds for the concurrency estimate.
_CONCURRENCY_ROUNDS = 4


@dataclass(frozen=True, init=False)
class KernelLaunch:
    """One kernel: a name plus the blocks it launches, held as classes.

    ``classes`` are the launch's distinct blocks in first-issue order,
    and ``class_of[i]`` is the class of the ``i``-th block issued;
    :attr:`blocks` expands them back into issue order.
    ``KernelLaunch(name, blocks)`` groups equal blocks by value, once,
    here; a caller that already knows the classes (the schedule
    lowering, :meth:`repro.core.schedule.BatchSchedule.block_classes`)
    passes them to :meth:`of_classes` and no grouping runs.

    The resource footprint for occupancy is taken from the first
    class; a real CUDA kernel has a single static footprint, so all
    blocks of a launch must share ``threads``, ``registers_per_thread``
    and ``shared_memory_bytes`` (validated over the classes).

    ``compulsory_ab_bytes`` is the unique A/B operand footprint of the
    workload (bytes each matrix contributes once); when provided, the
    L2 cache serves the redundant fraction of tile traffic.  ``None``
    disables L2 credit (used by micro-probes).
    """

    name: str
    classes: tuple[BlockWork, ...]
    class_of: tuple[int, ...]
    compulsory_ab_bytes: float | None = None

    def __init__(
        self,
        name: str,
        blocks: Sequence[BlockWork],
        compulsory_ab_bytes: float | None = None,
    ) -> None:
        # Identity first: callers that repeat one object per composition
        # hash each object once.  The distinct objects are then grouped
        # by value, so equal blocks built as separate objects (the
        # baselines build one per block) share a class too.
        blocks = tuple(blocks)
        objects = dict(zip(map(id, blocks), blocks))
        index: dict[BlockWork, int] = {}
        class_of_object = {key: index.setdefault(b, len(index)) for key, b in objects.items()}
        class_of = tuple(map(class_of_object.__getitem__, map(id, blocks)))
        self._set(name, tuple(index), class_of, compulsory_ab_bytes)

    @classmethod
    def of_classes(
        cls,
        name: str,
        classes: Sequence[BlockWork],
        class_of: Sequence[int],
        compulsory_ab_bytes: float | None = None,
    ) -> "KernelLaunch":
        """A launch from its block classes and each block's class index.

        Every class must be issued at least once.
        """
        launch = object.__new__(cls)
        launch._set(name, tuple(classes), tuple(class_of), compulsory_ab_bytes)
        if set(launch.class_of) != set(range(len(launch.classes))):
            raise ValueError(
                f"kernel {name!r}: class_of must issue every one of its "
                f"{len(launch.classes)} classes and name no other"
            )
        return launch

    def _set(
        self,
        name: str,
        classes: tuple[BlockWork, ...],
        class_of: tuple[int, ...],
        compulsory_ab_bytes: float | None,
    ) -> None:
        if not class_of:
            raise ValueError(f"kernel {name!r} launches no blocks")
        first = classes[0]
        for b in classes:
            if (
                b.threads != first.threads
                or b.registers_per_thread != first.registers_per_thread
                or b.shared_memory_bytes != first.shared_memory_bytes
            ):
                raise ValueError(
                    f"kernel {name!r} mixes block footprints: a CUDA kernel "
                    "has one static resource footprint for every block"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "class_of", class_of)
        object.__setattr__(self, "compulsory_ab_bytes", compulsory_ab_bytes)

    @property
    def num_blocks(self) -> int:
        """Blocks the kernel launches."""
        return len(self.class_of)

    @property
    def blocks(self) -> tuple[BlockWork, ...]:
        """Every block in issue order (class objects repeated)."""
        return tuple(map(self.classes.__getitem__, self.class_of))


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating one kernel (or a whole sequence).

    ``cycles`` excludes host launch latency; ``time_ms`` includes it
    when the simulation entry point charges one.  ``concurrency`` is
    the converged estimate of blocks running at once; ``waves`` is the
    block count over the slot count.

    ``trace`` is the telemetry span recorded while simulating (a
    :class:`repro.telemetry.Span` subtree) when a recording tracer was
    installed, else ``None``.  It is excluded from equality so results
    compare by their numbers alone.
    """

    name: str
    cycles: float
    time_ms: float
    num_blocks: int
    blocks_per_sm: int
    concurrency: float
    active_sms: int
    waves: float
    limited_by: str
    trace: Any = field(default=None, compare=False)

    @property
    def time_us(self) -> float:
        return self.time_ms * 1e3


def _schedule(durations: Iterable[float], slots: int) -> float:
    """List-schedule durations onto ``slots`` servers; return makespan."""
    heap = [0.0] * slots
    heapq.heapify(heap)
    makespan = 0.0
    for d in durations:
        start = heapq.heappop(heap)
        end = start + d
        makespan = max(makespan, end)
        heapq.heappush(heap, end)
    return makespan


def _converge_kernel(
    device: DeviceSpec,
    launch: KernelLaunch,
    blocks_per_sm: int,
) -> tuple[list[float], float, float, SmContext]:
    """Fixed-point estimate of (durations, makespan, concurrency, ctx).

    ``durations`` has one entry per block, in issue order.  Each round
    prices every distinct (tile, first-in-block) pair once and each of
    the launch's block classes as the dispatch cost plus its tile
    prices, added left to right -- the same additions
    :func:`~repro.gpu.costmodel.block_cycles` makes.  ``Σ durations``
    is a left fold in issue order and the makespan is the list
    schedule's, so every number is the one pricing each block on its
    own gives, to the last bit.
    """
    classes, class_of = launch.classes, launch.class_of
    n = len(class_of)
    slots = device.num_sms * blocks_per_sm
    concurrency = float(min(slots, n))
    multiplicity = Counter(class_of)
    tiles = {id(t): t for b in classes for t in b.tiles}
    # Integer byte counts: regrouping this sum by class is exact.
    traffic_ab = float(
        sum(
            multiplicity[c] * t.bytes_per_iteration * t.n_iterations
            for c, b in enumerate(classes)
            for t in b.tiles
        )
    )
    hit = l2_hit_fraction(device, launch.compulsory_ab_bytes, traffic_ab)
    terms = {key: TileTerms.of(device, t, hit) for key, t in tiles.items()}
    # Every distinct (tile, first-in-block) pair, and each class as the
    # indices of its tiles' pairs in block order.
    pair_index: dict[tuple[int, bool], int] = {}
    class_pairs = []
    for b in classes:
        keys = [(id(t), i == 0) for i, t in enumerate(b.tiles)]
        class_pairs.append([pair_index.setdefault(key, len(pair_index)) for key in keys])
    pairs = [(terms[key], first) for key, first in pair_index]
    dispatch = float(device.block_dispatch_cycles)
    l2_total = device.l2_bandwidth_gbps / device.clock_ghz
    one_wave = n <= slots
    prices: list[float] = []
    makespan = 0.0
    ctx = SmContext(resident_blocks=1, bw_bytes_per_cycle=device.bytes_per_cycle_per_device)
    for _ in range(_CONCURRENCY_ROUNDS):
        resident = max(1, min(blocks_per_sm, round(concurrency / device.num_sms + 0.499)))
        ctx = SmContext(
            resident_blocks=resident,
            bw_bytes_per_cycle=device.bytes_per_cycle_per_device / max(1.0, concurrency),
            l2_bw_bytes_per_cycle=l2_total / max(1.0, concurrency),
            l2_hit_fraction=hit,
        )
        pair_prices = [tile.cycles(device, ctx, first) for tile, first in pairs]
        prices = [add_in_order(map(pair_prices.__getitem__, p), dispatch) for p in class_pairs]
        if one_wave:
            # Every block starts at cycle 0: the list schedule's
            # makespan is the longest block.
            makespan = max(prices)
        else:
            makespan = _schedule(map(prices.__getitem__, class_of), slots)
        if makespan <= 0:
            break
        busy = add_in_order(map(prices.__getitem__, class_of))
        new_concurrency = min(float(slots), max(1.0, busy / makespan))
        if abs(new_concurrency - concurrency) < 0.5:
            concurrency = new_concurrency
            break
        concurrency = new_concurrency
    return list(map(prices.__getitem__, class_of)), makespan, concurrency, ctx


def simulate_kernel(
    device: DeviceSpec,
    kernel: KernelLaunch,
    include_launch_overhead: bool = True,
) -> SimulationResult:
    """Simulate one kernel launch and return its execution time.

    Raises ``ValueError`` for an unlaunchable footprint (zero
    occupancy), mirroring a CUDA launch failure.
    """
    tracer = get_tracer()
    with tracer.span(
        "simulate.kernel", kernel=kernel.name, blocks=kernel.num_blocks
    ) as span:
        first = kernel.classes[0]
        occ = occupancy(
            device,
            threads_per_block=first.threads,
            registers_per_thread=first.registers_per_thread,
            shared_memory_per_block=first.shared_memory_bytes,
        )
        if occ.blocks_per_sm == 0:
            raise ValueError(
                f"kernel {kernel.name!r} cannot launch: footprint exceeds one SM "
                f"(limited by {occ.limited_by})"
            )

        _durations, makespan, concurrency, ctx = _converge_kernel(
            device, kernel, occ.blocks_per_sm
        )
        launch_cycles = device.kernel_launch_us * 1e-6 * device.clock_ghz * 1e9
        total_cycles = makespan + (launch_cycles if include_launch_overhead else 0.0)
        slots = device.num_sms * occ.blocks_per_sm
        result = SimulationResult(
            name=kernel.name,
            cycles=makespan,
            time_ms=device.cycles_to_ms(total_cycles),
            num_blocks=kernel.num_blocks,
            blocks_per_sm=occ.blocks_per_sm,
            concurrency=concurrency,
            active_sms=min(device.num_sms, kernel.num_blocks),
            waves=kernel.num_blocks / slots,
            limited_by=occ.limited_by,
            trace=span if span.enabled else None,
        )
        if span.enabled:
            span.set_attr("waves", result.waves)
            span.set_attr("concurrency", result.concurrency)
            span.set_attr("time_ms", result.time_ms)
            tracer.gauge("waves", result.waves)
            tracer.counter("kernels_simulated")
    return result


def simulate_stream_serial(
    device: DeviceSpec, kernels: Sequence[KernelLaunch]
) -> SimulationResult:
    """Back-to-back execution of a kernel sequence (the default mode).

    Each kernel pays the full host launch latency before its blocks
    start; nothing overlaps.
    """
    if not kernels:
        raise ValueError("no kernels to simulate")
    with get_tracer().span("simulate.serial", kernels=len(kernels)) as span:
        total_ms = 0.0
        total_cycles = 0.0
        total_blocks = 0
        for k in kernels:
            r = simulate_kernel(device, k, include_launch_overhead=True)
            total_ms += r.time_ms
            total_cycles += r.cycles
            total_blocks += r.num_blocks
        return SimulationResult(
            name=f"serial[{len(kernels)} kernels]",
            cycles=total_cycles,
            time_ms=total_ms,
            num_blocks=total_blocks,
            blocks_per_sm=0,
            concurrency=1.0,
            active_sms=device.num_sms,
            waves=0.0,
            limited_by="serialization",
            trace=span if span.enabled else None,
        )


def simulate_streams_concurrent(
    device: DeviceSpec,
    kernels: Sequence[KernelLaunch],
    launch_gap_us: float = 2.0,
) -> SimulationResult:
    """Concurrent kernel execution on streams (the CKE baseline).

    The host serializes launches ``launch_gap_us`` apart; on the
    device, blocks of different kernels may co-reside.  Each kernel is
    priced under its own converged context, then all blocks are
    list-scheduled onto a shared slot pool no earlier than their
    kernel's launch time.  The coarse-grained overheads the paper
    cites for CKE (launch serialization, per-kernel residual tails)
    emerge from the schedule.
    """
    if not kernels:
        raise ValueError("no kernels to simulate")
    gap_cycles = launch_gap_us * 1e-6 * device.clock_ghz * 1e9

    with get_tracer().span("simulate.streams", kernels=len(kernels)) as span:
        jobs: list[tuple[float, float]] = []  # (release_cycle, duration)
        slot_candidates: list[int] = []
        for i, k in enumerate(kernels):
            first = k.classes[0]
            occ = occupancy(
                device, first.threads, first.registers_per_thread, first.shared_memory_bytes
            )
            if occ.blocks_per_sm == 0:
                raise ValueError(f"kernel {k.name!r} cannot launch")
            durations, _m, _c, _ctx = _converge_kernel(device, k, occ.blocks_per_sm)
            release = (i + 1) * gap_cycles
            jobs.extend((release, d) for d in durations)
            slot_candidates.append(occ.blocks_per_sm)

        # Shared residency pool sized by the most restrictive kernel.
        slots = device.num_sms * max(1, min(slot_candidates))
        heap = [0.0] * slots
        heapq.heapify(heap)
        makespan = 0.0
        for release, d in jobs:  # issue order = launch order
            start = max(heapq.heappop(heap), release)
            end = start + d
            makespan = max(makespan, end)
            heapq.heappush(heap, end)

        return SimulationResult(
            name=f"streams[{len(kernels)} kernels]",
            cycles=makespan,
            time_ms=device.cycles_to_ms(makespan),
            num_blocks=len(jobs),
            blocks_per_sm=min(slot_candidates),
            concurrency=float(slots),
            active_sms=device.num_sms,
            waves=len(jobs) / slots,
            limited_by="streams",
            trace=span if span.enabled else None,
        )
