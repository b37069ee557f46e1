"""Property-based round-trip tests for the serialization layers."""

import json

from hypothesis import given, settings, strategies as st

from repro.core.problem import Gemm, GemmBatch
from repro.gpu.specs import DeviceSpec, VOLTA_V100
from repro.workloads.io import batch_from_dict, batch_to_dict

gemm_st = st.builds(
    Gemm,
    m=st.integers(min_value=1, max_value=4096),
    n=st.integers(min_value=1, max_value=4096),
    k=st.integers(min_value=1, max_value=4096),
    alpha=st.floats(min_value=-100, max_value=100, allow_nan=False),
    beta=st.floats(min_value=-100, max_value=100, allow_nan=False),
    trans_a=st.booleans(),
    trans_b=st.booleans(),
)
batch_st = st.lists(gemm_st, min_size=1, max_size=12).map(GemmBatch)


@settings(max_examples=80, deadline=None)
@given(batch=batch_st)
def test_batch_round_trip_is_identity(batch):
    rebuilt = batch_from_dict(json.loads(json.dumps(batch_to_dict(batch))))
    assert tuple(rebuilt) == tuple(batch)


@settings(max_examples=40, deadline=None)
@given(
    num_sms=st.integers(min_value=1, max_value=256),
    clock=st.floats(min_value=0.5, max_value=3.0, allow_nan=False),
    bw=st.floats(min_value=50, max_value=4000, allow_nan=False),
)
def test_device_round_trip_is_identity(num_sms, clock, bw):
    import dataclasses

    device = dataclasses.replace(
        VOLTA_V100, num_sms=num_sms, clock_ghz=clock, mem_bandwidth_gbps=bw
    )
    rebuilt = DeviceSpec.from_dict(json.loads(json.dumps(device.to_dict())))
    assert rebuilt == device


@settings(max_examples=40, deadline=None)
@given(batch=batch_st)
def test_schedule_round_trip_preserves_decode(batch):
    """Plan -> serialize -> rebuild -> decode gives the same tiles."""
    from repro.core.framework import CoordinatedFramework
    from repro.core.schedule import BatchSchedule

    fw = CoordinatedFramework()
    schedule = fw.plan(batch, heuristic="binary").schedule
    rebuilt = BatchSchedule.from_dict(json.loads(json.dumps(schedule.to_dict())))
    assert rebuilt.num_blocks == schedule.num_blocks
    for b in range(schedule.num_blocks):
        assert rebuilt.tiles_of_block(b, batch) == schedule.tiles_of_block(b, batch)
