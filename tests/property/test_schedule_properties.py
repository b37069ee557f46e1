"""Property-based tests for the auxiliary-array schedule."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.batching import batch_tiles
from repro.core.problem import Gemm, GemmBatch
from repro.core.schedule import BatchSchedule, build_schedule, check_schedule, enumerate_tiles
from repro.core.tiling import ALL_BATCHED_STRATEGIES, select_tiling, strategy_by_index
from repro.core.validation import validate_schedule
from repro.gpu.specs import VOLTA_V100
from repro.gpu.simulator import KernelLaunch, simulate_kernel
from repro.kernels.compiled import compile_plan
from repro.kernels.persistent import execute_schedule

gemm_st = st.builds(
    Gemm,
    m=st.integers(min_value=1, max_value=300),
    n=st.integers(min_value=1, max_value=300),
    k=st.integers(min_value=1, max_value=512),
)
batch_st = st.lists(gemm_st, min_size=1, max_size=5).map(GemmBatch)
heuristic_st = st.sampled_from(["threshold", "binary", "one-per-block"])


def build(batch, heuristic):
    decision = select_tiling(batch, 65536)
    tiles = enumerate_tiles(batch, decision)
    batching = batch_tiles(tiles, decision.threads, heuristic)
    return decision, build_schedule(batch, decision, batching)


@settings(max_examples=60, deadline=None)
@given(batch=batch_st, heuristic=heuristic_st)
def test_schedule_decodes_to_exact_tile_set(batch, heuristic):
    """Decoding every block recovers each tile exactly once."""
    decision, sched = build(batch, heuristic)
    decoded = []
    for b in range(sched.num_blocks):
        decoded.extend(sched.tiles_of_block(b, batch))
    keys = [(t.gemm_index, t.y, t.x) for t in decoded]
    expected = [
        (t.gemm_index, t.y, t.x) for t in enumerate_tiles(batch, decision)
    ]
    assert sorted(keys) == sorted(expected)


@settings(max_examples=60, deadline=None)
@given(batch=batch_st, heuristic=heuristic_st)
def test_coordinates_inside_grid(batch, heuristic):
    decision, sched = build(batch, heuristic)
    for slot in range(sched.num_tiles):
        gi = int(sched.gemm_ids[slot])
        strat = strategy_by_index(int(sched.strategy_ids[slot]))
        rows, cols = strat.tiles_for(batch[gi])
        assert 0 <= sched.y_coords[slot] < rows
        assert 0 <= sched.x_coords[slot] < cols


@settings(max_examples=60, deadline=None)
@given(batch=batch_st, heuristic=heuristic_st)
def test_offsets_are_cumulative(batch, heuristic):
    _d, sched = build(batch, heuristic)
    diffs = np.diff(sched.tile_offsets)
    assert np.all(diffs >= 1)
    assert int(sched.tile_offsets[-1]) == sched.num_tiles


@settings(max_examples=40, deadline=None)
@given(batch=batch_st, heuristic=heuristic_st)
def test_block_works_preserve_totals(batch, heuristic):
    _d, sched = build(batch, heuristic)
    works = KernelLaunch.of_classes("k", *sched.block_classes(batch)).blocks
    assert len(works) == sched.num_blocks
    total_iters = sum(w.total_iterations for w in works)
    expected = 0
    for slot in range(sched.num_tiles):
        strat = strategy_by_index(int(sched.strategy_ids[slot]))
        k = batch[int(sched.gemm_ids[slot])].k
        expected += -(-k // strat.bk)
    assert total_iters == expected


@st.composite
def tile_cover_st(draw):
    """One to three GEMMs with hand-built schedules: full covers, then damaged.

    Tiles are dropped, repeated, or added with another strategy or an
    origin before, on or past the matrix edge; some draws move one
    tile to a GEMM id outside the batch (-1 included).  The slots of
    all GEMMs are shuffled together and cut into one or more blocks, so
    every outcome of the checks (exact, uncovered, overlapping,
    negative, outside, no such GEMM) is drawn, in any GEMM and in any
    slot order.  The kernel runs 128 or 256 threads: each GEMM is tiled
    from that pool, and an added tile may break the thread structure.
    The fused footprint is the drawn strategies' maximum, understated
    in some draws.
    """
    shapes = draw(
        st.lists(st.tuples(st.integers(1, 150), st.integers(1, 150)), min_size=1, max_size=3)
    )
    threads = draw(st.sampled_from([128, 256]))
    pool = [s for s in ALL_BATCHED_STRATEGIES if s.threads == threads]
    slots = []
    for gi, (m, n) in enumerate(shapes):
        strat = draw(st.sampled_from(pool))
        rows, cols = strat.tiles_for(Gemm(m, n, 8))
        tiles = [(gi, strat.index, y, x) for y in range(rows) for x in range(cols)]
        for _ in range(draw(st.integers(0, 2))):
            action = draw(st.sampled_from(["drop", "repeat", "add"]))
            if action == "drop" and len(tiles) > 1:
                tiles.pop(draw(st.integers(0, len(tiles) - 1)))
            elif action == "repeat":
                tiles.append(tiles[draw(st.integers(0, len(tiles) - 1))])
            else:
                other = draw(st.sampled_from(ALL_BATCHED_STRATEGIES))
                r, c = other.tiles_for(Gemm(m, n, 8))
                y, x = draw(st.integers(-1, r)), draw(st.integers(-1, c))
                tiles.append((gi, other.index, y, x))
        slots += tiles
    if draw(st.booleans()):
        i = draw(st.integers(0, len(slots) - 1))
        stray = draw(st.sampled_from([-1, -2, len(shapes), len(shapes) + 1]))
        slots[i] = (stray,) + slots[i][1:]
    slots = draw(st.permutations(slots))
    cuts = draw(st.sets(st.integers(1, len(slots) - 1))) if len(slots) > 1 else set()
    offsets = [0, *sorted(cuts), len(slots)]
    used = [strategy_by_index(s) for s in {t[1] for t in slots}]
    smem = max(s.shared_memory_bytes for s in used)
    regs = max(s.registers_per_thread for s in used)
    if draw(st.booleans()):
        smem -= draw(st.sampled_from([0, 1, smem]))
        regs -= draw(st.sampled_from([0, 1]))
    return shapes, slots, offsets, (threads, smem, regs)


@settings(max_examples=200, deadline=None)
@given(case=tile_cover_st())
def test_lowering_and_coverage_check_match_reference_walk(case):
    """The schedule contract, the engines and the validator agree with the walk.

    ``check_schedule`` and the compile, which lowers a schedule to its
    artifact, raise what the reference walk raises, type and message,
    through one edge-grid coverage pass.  The walk counts coverage per element, so equal
    messages also mean the cell-area weighting counts the same
    elements.  The validator accepts exactly what the walk runs with a
    footprint and thread count that fit every used strategy, and every
    accepted schedule round-trips and prices.
    """
    shapes, slots, offsets, (threads, smem, regs) = case
    batch = GemmBatch([Gemm(m, n, 8) for m, n in shapes])
    sched = BatchSchedule(
        tile_offsets=np.array(offsets, dtype=np.int32),
        gemm_ids=np.array([t[0] for t in slots], dtype=np.int32),
        strategy_ids=np.array([t[1] for t in slots], dtype=np.int32),
        y_coords=np.array([t[2] for t in slots], dtype=np.int32),
        x_coords=np.array([t[3] for t in slots], dtype=np.int32),
        threads_per_block=threads,
        shared_memory_bytes=smem,
        registers_per_thread=regs,
    )
    ops = batch.random_operands(np.random.default_rng(0))

    def error_of(check):
        try:
            check()
        except (IndexError, ValueError) as err:
            return type(err), str(err)
        return None

    want = error_of(lambda: execute_schedule(sched, batch, ops))
    assert error_of(lambda: check_schedule(sched, batch)) == want
    assert error_of(lambda: compile_plan(sched, batch)) == want

    fits = all(
        s.threads == threads
        and s.shared_memory_bytes <= smem
        and s.registers_per_thread <= regs
        for s in {strategy_by_index(t[1]) for t in slots}
    )
    report = validate_schedule(sched, batch)
    assert report.ok == (want is None and fits)
    if want is not None:
        assert report.errors[0].endswith(want[1])
    if report.ok:
        assert BatchSchedule.from_dict(json.loads(json.dumps(sched.to_dict()))) == sched
        launch = KernelLaunch.of_classes(
            "k", *sched.block_classes(batch), compulsory_ab_bytes=float(batch.compulsory_ab_bytes)
        )
        assert len(launch.blocks) == sched.num_blocks
        assert simulate_kernel(VOLTA_V100, launch).time_ms > 0
