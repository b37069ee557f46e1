"""Cluster-tier gates: goodput scaling, kill resilience, Bloom admission.

Replays a 10^5-request Poisson trace through the deterministic cluster
driver (:func:`repro.cluster.driver.replay_cluster_trace`) and gates
the tier's headline numbers:

* goodput of 4 shards vs 1 shard under 4x overload (must scale >= 2x),
* completion share with one shard killed mid-run (every ticket still
  settles),
* per-shard plan-cache hit rate with and without second-hit Bloom
  admission under a one-hit-wonder-heavy signature churn,
* bit-identical reports across repeated replays (routing determinism).

The replays are deterministic, so each test also pins every figure it
measures with ``==``, at the rounding a report prints: a change that
moves a replay's numbers fails here.

They are plain tests that write no snapshot.  The 10^5-request replays
take about 90 s on a 2-vCPU host, so CI runs this file as its own step
("Cluster gates"), outside the tier-1 suite::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_cluster.py -q
"""

from __future__ import annotations

import json

from repro.cluster import BloomConfig, ClusterConfig, replay_cluster_trace
from repro.core.framework import CoordinatedFramework
from repro.core.problem import Gemm
from repro.gpu.specs import VOLTA_V100
from repro.serve import BatcherConfig, ServeConfig
from repro.serve.loadgen import TraceRequest, poisson_trace

#: Headline workload: 10^5 requests at 4x a single shard's capacity.
N_REQUESTS = 100_000
RATE_RPS = 200_000.0
TRACE_SEED = 7
DEADLINE_US = 50_000.0
HEAVY_SHAPES = ((512, 512, 512), (768, 768, 768), (1024, 512, 256))

#: Mid-run kill instant (the trace spans ~500 ms of virtual time).
KILL_SHARD, KILL_AT_US = 1, 250_000.0


def _framework():
    return CoordinatedFramework(device=VOLTA_V100)


def _trace():
    return poisson_trace(
        RATE_RPS,
        None,
        n_requests=N_REQUESTS,
        shapes=HEAVY_SHAPES,
        seed=TRACE_SEED,
        deadline_us=DEADLINE_US,
    )


def _config(shards: int, **kw) -> ClusterConfig:
    kw.setdefault(
        "serve", ServeConfig(batcher=BatcherConfig(max_batch_size=4))
    )
    return ClusterConfig(shards=shards, **kw)


def test_cluster_goodput_scaling():
    """4 shards must deliver >= 2x one shard's goodput under overload.

    The offered rate is ~4x what one shard can complete, so the single
    shard saturates and sheds at the deadline while the 4-shard ring
    spreads the signatures and keeps up.  Both arms settle every
    ticket.
    """
    trace = _trace()
    quad = replay_cluster_trace(trace, _framework(), _config(4))
    single = replay_cluster_trace(trace, _framework(), _config(1))

    assert quad.settlement_share == 1.0 and quad.n_stranded == 0
    assert single.settlement_share == 1.0 and single.n_stranded == 0
    scaling = quad.goodput_rps / single.goodput_rps
    assert scaling >= 2.0

    assert quad.n_requests == N_REQUESTS
    assert round(single.goodput_rps, 1) == 24785.3
    assert round(quad.goodput_rps, 1) == 184064.3
    assert round(scaling, 2) == 7.43
    assert round(single.latency.p99_us, 1) == 212362.7
    assert round(quad.latency.p99_us, 1) == 42288.1


def test_cluster_shard_kill_completion():
    """Kill one of 4 shards mid-run: everything still settles.

    The victim's held work settles as ``error:ShardKilled``, its
    signatures remap to the survivors, and the completed share stays
    above what the three survivors can serve at the deadline.
    """
    report = replay_cluster_trace(
        _trace(), _framework(), _config(4), kill=[(KILL_SHARD, KILL_AT_US)]
    )

    assert report.settlement_share == 1.0 and report.n_stranded == 0
    victim = next(s for s in report.shards if s.shard_id == KILL_SHARD)
    assert victim.state == "dead"
    assert report.completed_share >= 0.5  # survivors keep most traffic alive

    assert round(report.completed_share, 3) == 0.772
    assert round(report.goodput_rps, 1) == 154103.2
    assert round(report.latency.p99_us, 1) == 67441.8


def _wonder_shape(i: int) -> tuple[int, int, int]:
    # Bounded dims (planning stays cheap); odd k never collides with
    # the even-k hot set.
    return (16 + 8 * (i % 24), 24 + 8 * ((i // 24) % 24), 17 + 8 * (i // 576))


def _one_hit_wonder_trace(cycles: int):
    """Hot shapes cycling between bursts of never-repeated shapes."""
    hot = [(64, 784, 192), (96, 784, 192), (128, 196, 480), (64, 64, 64)]
    reqs, t, wonder = [], 0.0, 0
    for _ in range(cycles):
        for h in hot:
            reqs.append(TraceRequest(arrival_us=t, gemm=Gemm(*h)))
            t += 100.0
            for _ in range(4):
                reqs.append(
                    TraceRequest(arrival_us=t, gemm=Gemm(*_wonder_shape(wonder)))
                )
                wonder += 1
                t += 100.0
    return reqs


def test_cluster_bloom_hit_rate():
    """Second-hit Bloom admission keeps hot plans warm under churn.

    A one-hit-wonder-heavy trace with a tiny per-shard cache: without
    admission the churn evicts the hot set between reuses and the hit
    rate collapses; with the filter the wonders never enter the cache
    and every shard's hit rate rises.
    """
    cycles = 150  # 3_000 requests, 2_400 of them one-hit wonders
    trace = _one_hit_wonder_trace(cycles)
    serve = ServeConfig(batcher=BatcherConfig(max_batch_size=1))
    base = dict(serve=serve, cache_capacity=4, shards=2)
    with_bloom = replay_cluster_trace(
        trace,
        _framework(),
        ClusterConfig(bloom=BloomConfig(capacity=4096), **base),
    )
    without = replay_cluster_trace(trace, _framework(), ClusterConfig(**base))

    def tier_hit_rate(report) -> float:
        hits = sum(s.report.cache.hits for s in report.shards)
        misses = sum(s.report.cache.misses for s in report.shards)
        return hits / (hits + misses)

    def per_shard(report) -> dict:
        return {s.shard_id: round(s.report.cache.hit_rate, 3) for s in report.shards}

    assert with_bloom.settlement_share == 1.0
    assert tier_hit_rate(with_bloom) > tier_hit_rate(without)
    for s in with_bloom.shards:
        assert s.bloom is not None and s.bloom["deferred"] > 0

    assert len(trace) == 3000
    assert round(tier_hit_rate(with_bloom), 3) == 0.197
    assert round(tier_hit_rate(without), 3) == 0.001
    assert per_shard(with_bloom) == {0: 0.271, 1: 0.109}
    assert per_shard(without) == {0: 0.001, 1: 0.001}
    assert sum(s.bloom["deferred"] for s in with_bloom.shards) == 2404


def test_cluster_routing_deterministic():
    """Replaying the same trace twice yields byte-identical reports.

    Consistent-hash routing, stealing decisions, the kill, and Bloom
    admission are all functions of the trace and the config alone, so
    two full replays must serialize to the same bytes.
    """
    trace = poisson_trace(
        RATE_RPS,
        None,
        n_requests=10_000,
        shapes=HEAVY_SHAPES,
        seed=TRACE_SEED,
        deadline_us=DEADLINE_US,
    )

    def run():
        return replay_cluster_trace(
            trace,
            _framework(),
            _config(4, bloom=BloomConfig(capacity=1024)),
            kill=[(2, 20_000.0)],
        )

    first, second = run(), run()
    a = json.dumps(first.to_dict(), sort_keys=True)
    b = json.dumps(second.to_dict(), sort_keys=True)
    assert a == b
