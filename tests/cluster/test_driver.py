"""Deterministic cluster replay: settlement, kills, Bloom, determinism."""

from __future__ import annotations

import json

import pytest

from repro.cluster.config import BloomConfig, ClusterConfig
from repro.cluster.driver import replay_cluster_trace
from repro.cluster.report import REASON_SHARD_KILLED
from repro.cluster.supervisor import SupervisorConfig
from repro.core.options import Heuristic
from repro.core.plancache import PlanCache
from repro.kernels import ExecutionPolicy
from repro.reliability import FaultPlan
from repro.serve.config import (
    AdmissionConfig,
    BatcherConfig,
    ReliabilityConfig,
    ServeConfig,
)
from repro.serve.driver import replay_trace
from repro.serve.loadgen import poisson_trace
from repro.serve.request import REASON_QUEUE_FULL, REASON_STRANDED
from repro.telemetry import tracing
from tests.serve.test_driver import burst_then_calm

HOT_SHAPES = ((64, 784, 192), (96, 784, 192), (128, 196, 480))


def _trace(n=400, rate=8000.0, seed=7, shapes=HOT_SHAPES, **kw):
    return poisson_trace(rate, None, n_requests=n, shapes=shapes, seed=seed, **kw)


def _config(shards=4, **kw):
    kw.setdefault(
        "serve", ServeConfig(batcher=BatcherConfig(max_batch_size=4))
    )
    return ClusterConfig(shards=shards, **kw)


@pytest.fixture(scope="module")
def base_report(framework_module):
    return replay_cluster_trace(_trace(), framework_module, _config())


@pytest.fixture(scope="module")
def framework_module():
    from repro.core.framework import CoordinatedFramework
    from repro.gpu.specs import VOLTA_V100

    return CoordinatedFramework(device=VOLTA_V100)


class TestSettlement:
    def test_every_request_settles(self, base_report):
        assert base_report.n_requests == 400
        assert base_report.n_settled == 400
        assert base_report.settlement_share == 1.0
        assert base_report.n_stranded == 0

    def test_shard_reports_disjoint_and_complete(self, base_report):
        ids = [
            r.request_id for s in base_report.shards for r in s.report.results
        ]
        assert sorted(ids) == list(range(400))

    def test_assigned_counts_match_results(self, base_report):
        for s in base_report.shards:
            assert s.n_assigned == s.report.n_requests


class TestDeterminism:
    def test_byte_identical_reports(self, framework_module):
        kill = [(1, 20_000.0)]
        a = replay_cluster_trace(_trace(), framework_module, _config(), kill=kill)
        b = replay_cluster_trace(_trace(), framework_module, _config(), kill=kill)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_assignments_deterministic(self, framework_module):
        a = replay_cluster_trace(_trace(), framework_module, _config())
        b = replay_cluster_trace(_trace(), framework_module, _config())
        assert a.router["routed"] == b.router["routed"]

    def test_seed_changes_trace_changes_report(self, framework_module, base_report):
        other = replay_cluster_trace(
            _trace(seed=8), framework_module, _config()
        )
        assert other.router["routed"] != base_report.router["routed"]


class TestShardKill:
    def test_kill_settles_held_work_as_typed_rejection(self, framework_module):
        # High rate so the victim's queue is non-empty at the kill.
        trace = _trace(n=600, rate=50_000.0, shapes=((64, 784, 192),))
        report = replay_cluster_trace(
            trace, framework_module, _config(), kill=[(1, 4_000.0)]
        )
        assert report.settlement_share == 1.0
        assert report.n_stranded == 0
        reasons = {
            r.reason
            for s in report.shards
            for r in s.report.results
            if getattr(r, "reason", None)
        }
        victim = next(s for s in report.shards if s.shard_id == 1)
        assert victim.state == "dead"
        if victim.report.n_requests:
            assert REASON_SHARD_KILLED in reasons

    def test_survivors_absorb_the_traffic(self, framework_module):
        report = replay_cluster_trace(
            _trace(n=600), framework_module, _config(), kill=[(0, 1.0)]
        )
        survivors = [s for s in report.shards if s.shard_id != 0]
        assert sum(s.report.n_completed for s in survivors) == 600
        assert report.completed_share == 1.0

    def test_kill_all_shards_rejects_remaining_globally(self, framework_module):
        report = replay_cluster_trace(
            _trace(n=100),
            framework_module,
            _config(shards=2),
            kill=[(0, 1.0), (1, 1.0)],
        )
        # Nothing routable after t=1us: every later arrival is refused
        # at the tier, still a settled outcome.
        assert report.settlement_share == 1.0
        assert report.n_rejected_global > 0

    def test_unknown_kill_shard_raises(self, framework_module):
        with pytest.raises(ValueError):
            replay_cluster_trace(
                _trace(n=10), framework_module, _config(), kill=[(9, 0.0)]
            )


class TestBloom:
    @staticmethod
    def _one_hit_wonder_trace():
        """Hot shapes cycling between bursts of never-repeated shapes.

        With an LRU of capacity 4 and >= 4 distinct arrivals between
        consecutive uses of each hot shape, the wonders evict the hot
        set every cycle -- unless admission keeps them out.
        """
        from repro.core.problem import Gemm
        from repro.serve.loadgen import TraceRequest

        hot = [(64, 784, 192), (96, 784, 192), (128, 196, 480), (64, 64, 64)]
        reqs, t, wonder = [], 0.0, 0
        for _ in range(15):
            for h in hot:
                reqs.append(TraceRequest(arrival_us=t, gemm=Gemm(*h)))
                t += 100.0
                for _ in range(4):
                    reqs.append(
                        TraceRequest(
                            arrival_us=t, gemm=Gemm(16 + 8 * wonder, 48, 24)
                        )
                    )
                    wonder += 1
                    t += 100.0
        return reqs

    def test_bloom_raises_hit_rate_under_one_hit_wonders(self, framework_module):
        """A one-hit-wonder-heavy trace with a tiny cache: Bloom keeps
        the repeating signatures warm, no-Bloom churns them out."""
        serve = ServeConfig(batcher=BatcherConfig(max_batch_size=1))
        base = dict(serve=serve, cache_capacity=4, shards=2)
        with_bloom = replay_cluster_trace(
            self._one_hit_wonder_trace(),
            framework_module,
            ClusterConfig(bloom=BloomConfig(capacity=256), **base),
        )
        without = replay_cluster_trace(
            self._one_hit_wonder_trace(),
            framework_module,
            ClusterConfig(**base),
        )

        def hit_rate(report):
            hits = sum(s.report.cache.hits for s in report.shards)
            misses = sum(s.report.cache.misses for s in report.shards)
            return hits / (hits + misses)

        assert hit_rate(with_bloom) > hit_rate(without)

    def test_bloom_snapshot_in_report(self, framework_module):
        report = replay_cluster_trace(
            _trace(n=50),
            framework_module,
            _config(bloom=BloomConfig(capacity=64)),
        )
        for s in report.shards:
            assert s.bloom is not None
            assert "deferred" in s.bloom
        assert sum(
            s.report.cache.admission_deferred for s in report.shards
        ) == sum(s.bloom["deferred"] for s in report.shards)

    def test_no_bloom_no_snapshot(self, base_report):
        assert all(s.bloom is None for s in base_report.shards)


class TestBackpressure:
    def test_global_capacity_rejects_at_tier(self, framework_module):
        report = replay_cluster_trace(
            _trace(n=400, rate=100_000.0),
            framework_module,
            _config(global_queue_capacity=8),
        )
        assert report.n_rejected_global > 0
        assert report.settlement_share == 1.0

    def test_per_shard_admission_still_applies(self, framework_module):
        serve = ServeConfig(
            batcher=BatcherConfig(max_batch_size=4),
            admission=AdmissionConfig(queue_capacity=2),
        )
        report = replay_cluster_trace(
            _trace(n=400, rate=100_000.0, shapes=((64, 784, 192),)),
            framework_module,
            ClusterConfig(shards=2, serve=serve),
        )
        reasons = [
            r.reason
            for s in report.shards
            for r in s.report.results
            if getattr(r, "reason", None) == REASON_QUEUE_FULL
        ]
        assert reasons  # shard-level queue_full rejections occurred
        assert report.settlement_share == 1.0


class TestAdmissionLockIn:
    def test_one_shard_completes_calm_traffic_after_an_overload_burst(
        self, framework_module
    ):
        """The single-server lock-in reproducer, on a one-shard tier.

        Four shards split the burst and never lock in; one shard takes
        all of it.
        """
        trace, n_calm = burst_then_calm()
        report = replay_cluster_trace(trace, framework_module, _config(shards=1))
        (shard,) = report.shards
        calm = [r for r in shard.report.results if r.request_id >= len(trace) - n_calm]
        assert len(calm) == n_calm == 155
        assert sum(r.ok for r in calm) >= 140


class TestReportShape:
    def test_to_dict_json_round_trip(self, base_report):
        d = json.loads(json.dumps(base_report.to_dict()))
        assert d["n_shards"] == 4
        assert d["time_base"] == "virtual"
        assert len(d["shards"]) == 4
        assert REASON_STRANDED not in json.dumps(d)

    def test_goodput_consistent(self, base_report):
        expected = base_report.n_completed / (base_report.makespan_us / 1e6)
        assert base_report.goodput_rps == pytest.approx(expected)

    def test_steals_move_work_off_the_home_shard(self, framework_module):
        # Single-shape traffic homes onto one shard; stealing must
        # spread it once the queue-depth skew trips the threshold.
        report = replay_cluster_trace(
            _trace(n=400, rate=50_000.0, shapes=((64, 784, 192),)),
            framework_module,
            _config(steal_threshold=4),
        )
        assert report.n_steals > 0
        busy = [s for s in report.shards if s.n_assigned > 0]
        assert len(busy) > 1


def _faults(*specs: str) -> ReliabilityConfig:
    return ReliabilityConfig(fault_plan=FaultPlan.parse(list(specs), seed=11))


class TestOneShardIsTheSingleServer:
    """A one-shard cluster drives the single server's pipeline.

    Given the same trace and per-server config, shard 0 settles every
    request exactly as :func:`replay_trace` does.
    """

    @pytest.mark.parametrize(
        "trace, serve, capacity",
        [
            # Admission refuses arrivals while waiters' deadlines
            # expire: a refusal must not poll the batcher in either.
            pytest.param(
                poisson_trace(4000.0, duration_s=0.1, seed=3, deadline_us=2200.0),
                ServeConfig(
                    workers=1,
                    admission=AdmissionConfig(queue_capacity=8),
                    heuristic=Heuristic.THRESHOLD,
                ),
                256,
                id="refusals",
            ),
            pytest.param(
                poisson_trace(2000.0, duration_s=0.2, seed=7),
                ServeConfig(
                    heuristic=Heuristic.THRESHOLD,
                    reliability=_faults(
                        "planner_error:rate=0.05", "planner_slow:ms=0.5,rate=0.1"
                    ),
                ),
                256,
                id="planner_faults",
            ),
            pytest.param(
                poisson_trace(4000.0, duration_s=0.05, seed=5),
                ServeConfig(
                    heuristic=Heuristic.BEST, policy=ExecutionPolicy(engine="compiled")
                ),
                2,
                id="compiled_eviction",
            ),
        ],
    )
    def test_shard_report_equals_single_server_report(
        self, framework_module, trace, serve, capacity
    ):
        single = replay_trace(
            trace, framework_module, serve,
            cache=PlanCache(framework_module, capacity=capacity),
        )
        cluster = replay_cluster_trace(
            trace,
            framework_module,
            ClusterConfig(shards=1, serve=serve, cache_capacity=capacity),
        )
        (shard,) = cluster.shards
        assert shard.report.to_dict() == single.to_dict()


class TestFaultInjection:
    def test_supervised_kill_under_planner_faults(self, framework_module):
        """Every ticket settles, retries absorb faults, reruns match."""
        serve = ServeConfig(
            batcher=BatcherConfig(max_batch_size=4),
            reliability=_faults(
                "planner_error:rate=0.2", "planner_slow:ms=0.5,rate=0.1"
            ),
        )
        config = _config(
            serve=serve, supervisor=SupervisorConfig(restart_backoff_us=10_000.0)
        )
        trace = poisson_trace(20_000.0, 0.05, seed=7)

        def run():
            return replay_cluster_trace(
                trace, framework_module, config, kill=[(1, 25_000.0)]
            )

        first, second = run(), run()
        assert first.settlement_share == 1.0 and first.n_stranded == 0
        assert first.supervisor["restarts"] == 1
        assert first.supervisor["resubmissions"] > 0
        reliability = [s.report.reliability for s in first.shards]
        assert sum(r["faults_injected"] for r in reliability) > 0
        assert sum(r["planner_retries"] for r in reliability) > 0
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )
        assert [
            [r.to_dict() for r in s.report.results] for s in first.shards
        ] == [[r.to_dict() for r in s.report.results] for s in second.shards]


class TestTelemetry:
    def test_traced_replay_counts_every_shard(self, framework_module):
        with tracing() as tracer:
            report = replay_cluster_trace(
                _trace(), framework_module, _config(), kill=[(1, 20_000.0)]
            )
        counters = tracer.metrics.to_dict()["counters"]
        assert counters["serve.requests_completed"] == report.n_completed
        assert counters["serve.batches_formed"] == sum(
            s.report.n_batches for s in report.shards
        )
        assert counters["cluster.shard_killed"] == 1
