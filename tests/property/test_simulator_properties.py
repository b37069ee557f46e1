"""Property-based tests for the kernel simulator."""

import heapq

from hypothesis import given, settings, strategies as st

from repro.core.tiling import BATCHED_STRATEGIES_256
from repro.gpu.costmodel import (
    BlockWork,
    SmContext,
    TileWork,
    block_cycles,
    l2_hit_fraction,
)
from repro.gpu.occupancy import occupancy
from repro.gpu.simulator import KernelLaunch, _converge_kernel, simulate_kernel
from repro.gpu.specs import VOLTA_V100 as V100
from repro.gpu.specs import get_device

strategy_st = st.sampled_from(BATCHED_STRATEGIES_256)

#: A Tensor-Core part and one without, so both FP16 datapaths are priced.
P100 = get_device("Tesla P100")


@st.composite
def launch_st(draw):
    strat = draw(strategy_st)
    n_blocks = draw(st.integers(min_value=1, max_value=600))
    k = draw(st.integers(min_value=1, max_value=512))
    tiles_per_block = draw(st.integers(min_value=1, max_value=3))
    tile = TileWork(strat, k=k)
    block = BlockWork(
        threads=strat.threads,
        registers_per_thread=strat.registers_per_thread,
        shared_memory_bytes=strat.shared_memory_bytes,
        tiles=(tile,) * tiles_per_block,
    )
    return KernelLaunch(name="prop", blocks=(block,) * n_blocks)


@settings(max_examples=60, deadline=None)
@given(launch=launch_st())
def test_simulation_always_positive_and_finite(launch):
    r = simulate_kernel(V100, launch)
    assert 0 < r.cycles < float("inf")
    assert r.time_ms > 0
    assert 1 <= r.concurrency <= V100.num_sms * r.blocks_per_sm


@settings(max_examples=40, deadline=None)
@given(launch=launch_st())
def test_doubling_blocks_never_speeds_up(launch):
    base = simulate_kernel(V100, launch, include_launch_overhead=False).cycles
    doubled = simulate_kernel(
        V100,
        KernelLaunch(name="x2", blocks=launch.blocks * 2),
        include_launch_overhead=False,
    ).cycles
    assert doubled >= base - 1e-6


@settings(max_examples=40, deadline=None)
@given(launch=launch_st())
def test_deep_launch_scales_subadditively(launch):
    """Quadrupling the block count at most quadruples the makespan
    (plus rounding): no superlinear blow-up in the model."""
    base = simulate_kernel(V100, launch, include_launch_overhead=False).cycles
    quad = simulate_kernel(
        V100,
        KernelLaunch(name="x4", blocks=launch.blocks * 4),
        include_launch_overhead=False,
    ).cycles
    assert quad <= 4 * base * 1.35 + 1e-6


@settings(max_examples=40, deadline=None)
@given(launch=launch_st(), extra_k=st.integers(min_value=8, max_value=256))
def test_deeper_tiles_never_faster(launch, extra_k):
    deeper_blocks = tuple(
        BlockWork(
            threads=b.threads,
            registers_per_thread=b.registers_per_thread,
            shared_memory_bytes=b.shared_memory_bytes,
            tiles=tuple(
                TileWork(t.strategy, k=t.k + extra_k, active_threads=t.active_threads)
                for t in b.tiles
            ),
        )
        for b in launch.blocks
    )
    base = simulate_kernel(V100, launch, include_launch_overhead=False).cycles
    deeper = simulate_kernel(
        V100, KernelLaunch(name="deep", blocks=deeper_blocks), include_launch_overhead=False
    ).cycles
    assert deeper >= base - 1e-6


@st.composite
def mixed_launch_st(draw):
    """A device, drawn blocks and the fused launch built from them.

    The blocks mix a few distinct compositions, some of them differing
    from another in one field of one tile.  Some blocks repeat one
    object and some are fresh but equal objects, so classes must be
    formed by value, not identity.  Tiles draw their precision and may run on
    fewer threads than the block allocates; the device may lack Tensor
    Cores.  Repeating the issue order up to 120 times gives launches of
    one wave and of many.
    """
    device = draw(st.sampled_from((V100, P100)))
    pool = draw(st.lists(strategy_st, min_size=1, max_size=3))
    footprint = dict(
        threads=256,
        registers_per_thread=max(s.registers_per_thread for s in pool),
        shared_memory_bytes=max(s.shared_memory_bytes for s in pool),
    )
    tile_st = st.tuples(
        st.sampled_from(pool),
        st.integers(1, 512),
        st.one_of(st.just(0), st.integers(1, 255)),
        st.sampled_from(("fp32", "fp16", "bf16")),
    )
    shapes = draw(
        st.lists(st.lists(tile_st, min_size=0, max_size=3), min_size=1, max_size=5)
    )
    # Near twins: a drawn composition with one field of one tile changed,
    # so a grouping that ignores any field merges unequal blocks.
    for twin_of in draw(st.lists(st.integers(0, len(shapes) - 1), max_size=3)):
        twin = list(shapes[twin_of])
        if not twin:
            continue
        i = draw(st.integers(0, len(twin) - 1))
        s, k, threads, precision = twin[i]
        field = draw(st.sampled_from(("strategy", "k", "threads", "precision")))
        if field == "strategy" and any(p != s for p in pool):
            s = next(p for p in pool if p != s)
        elif field == "threads":
            threads = (threads + 1) % 256
        elif field == "precision":
            precision = {"fp32": "fp16", "fp16": "bf16", "bf16": "fp32"}[precision]
        else:
            k = k % 512 + 1
        twin[i] = (s, k, threads, precision)
        shapes.append(twin)
    order = draw(
        st.lists(
            st.tuples(st.integers(0, len(shapes) - 1), st.booleans()),
            min_size=1,
            max_size=20,
        )
    )
    repeats = draw(st.integers(1, 120))

    def block(shape):
        tiles = tuple(TileWork(s, k, threads, precision) for s, k, threads, precision in shape)
        return BlockWork(tiles=tiles, **footprint)

    shared = [block(shape) for shape in shapes]
    blocks = tuple(block(shapes[i]) if fresh else shared[i] for i, fresh in order * repeats)
    compulsory = draw(st.one_of(st.none(), st.floats(1.0, 1e8)))
    launch = KernelLaunch(name="mixed", blocks=blocks, compulsory_ab_bytes=compulsory)
    return device, blocks, launch


def _per_block_converge(device, blocks, blocks_per_sm, compulsory_ab_bytes):
    """The fixed point with every block priced on its own, round by round."""
    slots = device.num_sms * blocks_per_sm
    concurrency = float(min(slots, len(blocks)))
    traffic = float(
        sum(t.bytes_per_iteration * t.n_iterations for b in blocks for t in b.tiles)
    )
    hit = l2_hit_fraction(device, compulsory_ab_bytes, traffic)
    l2_total = device.l2_bandwidth_gbps / device.clock_ghz
    for _ in range(4):
        share = round(concurrency / device.num_sms + 0.499)
        resident = max(1, min(blocks_per_sm, share))
        ctx = SmContext(
            resident_blocks=resident,
            bw_bytes_per_cycle=device.bytes_per_cycle_per_device / max(1.0, concurrency),
            l2_bw_bytes_per_cycle=l2_total / max(1.0, concurrency),
            l2_hit_fraction=hit,
        )
        durations = [block_cycles(device, b, ctx) for b in blocks]
        heap = [0.0] * slots
        makespan = 0.0
        busy = 0.0
        for d in durations:
            end = heapq.heappop(heap) + d
            makespan = max(makespan, end)
            heapq.heappush(heap, end)
            busy += d
        new_concurrency = min(float(slots), max(1.0, busy / makespan))
        if abs(new_concurrency - concurrency) < 0.5:
            concurrency = new_concurrency
            break
        concurrency = new_concurrency
    return durations, makespan, concurrency, ctx


@settings(max_examples=100, deadline=None)
@given(drawn=mixed_launch_st())
def test_class_pricing_matches_per_block_pricing(drawn):
    """Pricing distinct tiles and blocks once from hoisted terms changes
    no number, to the last bit."""
    device, blocks, launch = drawn
    first = blocks[0]
    bps = occupancy(
        device, first.threads, first.registers_per_thread, first.shared_memory_bytes
    ).blocks_per_sm
    got = _converge_kernel(device, launch, bps)
    # The reference prices the drawn blocks, never the launch's grouping.
    want = _per_block_converge(device, blocks, bps, launch.compulsory_ab_bytes)
    assert got == want
    assert launch.blocks == blocks
