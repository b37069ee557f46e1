"""Shard supervision: restart policy, warm respawn, supervised recovery.

Covers the policy objects (:class:`SupervisorConfig`,
:class:`RestartTracker`) in isolation, the plan-cache manifest handoff
(:meth:`PlanCache.snapshot` / :meth:`restore`, Bloom state carryover),
supervised recovery in the deterministic replay driver (completion
recovered, byte-identical reruns, typed failover/budget settlement,
window-bounded ejection), and the live :class:`ShardSupervisor`
probe-and-respawn loop end to end.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cluster import (
    BloomAdmission,
    RestartTracker,
    SupervisorConfig,
    replay_cluster_trace,
)
from repro.cluster.config import ClusterConfig
from repro.cluster.frontend import ClusterFrontend
from repro.cluster.report import REASON_SHARD_KILLED
from repro.core.framework import CoordinatedFramework
from repro.core.options import Heuristic
from repro.core.plancache import PlanCache
from repro.core.problem import Gemm, GemmBatch
from repro.gpu.specs import VOLTA_V100
from repro.serve.config import BatcherConfig, ServeConfig
from repro.serve.loadgen import poisson_trace
from repro.serve.request import (
    REASON_BUDGET_EXHAUSTED,
    REASON_FAILOVER_EXHAUSTED,
)

HOT_SHAPES = ((64, 784, 192), (96, 784, 192), (128, 196, 480))


def _trace(n=600, rate=50_000.0, seed=7, shapes=HOT_SHAPES, **kw):
    return poisson_trace(rate, None, n_requests=n, shapes=shapes, seed=seed, **kw)


def _config(shards=4, **kw):
    kw.setdefault("serve", ServeConfig(batcher=BatcherConfig(max_batch_size=4)))
    return ClusterConfig(shards=shards, **kw)


@pytest.fixture(scope="module")
def framework_module():
    return CoordinatedFramework(device=VOLTA_V100)


class TestSupervisorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restart_backoff_us": -1.0},
            {"backoff_multiplier": 0.5},
            {"restart_backoff_us": 100.0, "max_backoff_us": 50.0},
            {"max_restarts": -1},
            {"restart_window_us": 0.0},
            {"failover_limit": -1},
            {"probe_interval_us": 0.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorConfig(**kwargs)

    def test_defaults_are_valid(self):
        config = SupervisorConfig()
        assert config.max_restarts == 3
        assert config.failover_limit == 1


class TestRestartTracker:
    CFG = SupervisorConfig(
        restart_backoff_us=10.0,
        backoff_multiplier=2.0,
        max_backoff_us=35.0,
        max_restarts=2,
        restart_window_us=100.0,
    )

    def test_backoff_is_capped_exponential(self):
        tracker = RestartTracker()
        backoffs = []
        for i in range(4):
            backoffs.append(tracker.backoff_us(self.CFG))
            tracker.record(float(i))
        assert backoffs == [10.0, 20.0, 35.0, 35.0]  # 40 hits the cap

    def test_window_bounds_restarts(self):
        tracker = RestartTracker()
        assert tracker.may_restart(0.0, self.CFG)
        tracker.record(0.0)
        assert tracker.may_restart(1.0, self.CFG)
        tracker.record(1.0)
        # Two restarts inside the 100us window: allowance spent.
        assert not tracker.may_restart(2.0, self.CFG)
        # Once the earliest falls out of the window, allowance returns
        # -- but the lifetime backoff keeps escalating regardless.
        assert tracker.may_restart(101.0, self.CFG)
        assert tracker.backoff_us(self.CFG) == 35.0

    def test_zero_max_restarts_never_allows(self):
        tracker = RestartTracker()
        assert not tracker.may_restart(
            0.0, SupervisorConfig(max_restarts=0)
        )


class TestManifestHandoff:
    """The warm-respawn handoff: cache manifest + Bloom state."""

    def plan_some(self, cache, shapes, heuristic=Heuristic.THRESHOLD):
        for shape in shapes:
            cache.plan(GemmBatch.from_shapes([shape]), heuristic)

    def test_snapshot_restore_replans_the_same_keys(self, framework):
        """Under ``BEST`` too, whose plans record the heuristic they chose."""
        shapes = [(16, 32, 24), (40, 40, 40), (64, 64, 64)]
        for heuristic in (Heuristic.THRESHOLD, Heuristic.BEST):
            old = PlanCache(framework, capacity=8)
            self.plan_some(old, shapes, heuristic)
            manifest = old.snapshot()
            assert len(manifest) == 3

            fresh = PlanCache(framework, capacity=8)
            assert fresh.restore(manifest) == 3
            # The restored cache serves the predecessor's working set hot.
            self.plan_some(fresh, shapes, heuristic)
            assert fresh.stats.hits == 3, heuristic
            assert fresh.stats.misses == 0, heuristic

    def test_restore_bypasses_stats(self, framework):
        old = PlanCache(framework, capacity=8)
        self.plan_some(old, [(16, 32, 24)])
        fresh = PlanCache(framework, capacity=8)
        fresh.restore(old.snapshot())
        assert fresh.stats.hits == 0
        assert fresh.stats.misses == 0

    def test_bloom_state_carries_generations(self):
        old = BloomAdmission(capacity=64)
        sig = "sig:a"
        assert not old.admit(sig)  # first hit: deferred
        state = old.export_state()

        fresh = BloomAdmission(capacity=64)
        assert fresh.import_state(state)
        # The second hit lands on the *respawned* filter and admits.
        assert fresh.admit(sig)

    def test_bloom_import_refuses_mismatched_geometry(self):
        old = BloomAdmission(capacity=64)
        other = BloomAdmission(capacity=1024)
        assert not other.import_state(old.export_state())
        # Refusal leaves the filter untouched: still everything-unseen.
        assert not other.seen("sig:a")


class TestSupervisedReplay:
    """Supervised recovery in the deterministic virtual-time driver.

    The trace arrives faster than the four shards serve it, so every
    shard builds a backlog: when shard 1 dies 1 ms in, it holds queued
    and in-flight requests by construction, not by the chance that the
    kill lands between two of its batches.  The bare arm pins that the
    kill costs requests, so the scenario cannot quietly degenerate into
    the kill of an idle shard.
    """

    RATE = 200_000.0
    KILL = [(1, 1_000.0)]

    def replay(self, framework_module, *, supervisor, trace=None, **cfg):
        return replay_cluster_trace(
            trace if trace is not None else _trace(rate=self.RATE),
            framework_module,
            _config(supervisor=supervisor, **cfg),
            kill=self.KILL,
        )

    def test_supervision_recovers_completion(self, framework_module):
        bare = self.replay(framework_module, supervisor=None)
        supervised = self.replay(
            framework_module, supervisor=SupervisorConfig()
        )
        assert bare.settlement_share == 1.0
        assert supervised.settlement_share == 1.0
        # The kill catches several requests the victim holds.
        killed = [
            r
            for s in bare.shards
            for r in s.report.results
            if not r.ok and r.reason == REASON_SHARD_KILLED
        ]
        assert len(killed) >= 4
        assert bare.completed_share < 1.0
        # The whole point: killed-shard casualties complete elsewhere
        # and the shard comes back -- strictly better completion.
        assert supervised.completed_share > bare.completed_share
        sup = supervised.supervisor
        assert sup is not None
        assert sup["restarts"] >= 1
        assert sup["resubmissions"] >= 1
        assert sup["ejected"] == []

    def test_unsupervised_report_has_no_supervisor_block(
        self, framework_module
    ):
        report = self.replay(framework_module, supervisor=None)
        assert report.supervisor is None
        assert report.to_dict()["supervisor"] is None

    def test_supervised_recovery_is_byte_deterministic(self, framework_module):
        dumps = []
        for _ in range(2):
            report = self.replay(
                framework_module, supervisor=SupervisorConfig()
            )
            dumps.append(json.dumps(report.to_dict(), sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_respawned_shard_serves_after_the_kill(self, framework_module):
        report = self.replay(framework_module, supervisor=SupervisorConfig())
        victim = report.shards[1]
        assert victim.state == "active"  # rejoined by the end of the run
        assert victim.report.n_completed > 0

    def test_failover_limit_zero_settles_exhausted(self, framework_module):
        report = self.replay(
            framework_module, supervisor=SupervisorConfig(failover_limit=0)
        )
        sup = report.supervisor
        assert sup["resubmissions"] == 0
        assert sup["failover_exhausted"] > 0
        reasons = {
            r.reason
            for s in report.shards
            for r in s.report.results
            if not r.ok
        }
        assert REASON_FAILOVER_EXHAUSTED in reasons

    def test_spent_deadline_settles_budget_exhausted(self, framework_module):
        # A batcher that cannot trigger before the kill (huge size and
        # wait-window thresholds) holds already-expired requests
        # *pending* at the kill instant; resubmitting those would burn
        # capacity on answers nobody can use, so they settle typed.
        trace = _trace(
            n=300,
            rate=20_000.0,
            shapes=((64, 784, 192),),  # one signature: one home shard
            deadline_us=1_000.0,
        )
        report = replay_cluster_trace(
            trace,
            framework_module,
            _config(
                serve=ServeConfig(
                    batcher=BatcherConfig(
                        max_batch_size=128, max_wait_us=50_000.0
                    )
                ),
                supervisor=SupervisorConfig(),
            ),
            kill=[(2, 4_000.0)],  # the home shard of the lone signature
        )
        sup = report.supervisor
        assert sup["budget_exhausted"] > 0
        reasons = {
            r.reason
            for s in report.shards
            for r in s.report.results
            if not r.ok
        }
        assert REASON_BUDGET_EXHAUSTED in reasons

    def test_max_restarts_zero_ejects_permanently(self, framework_module):
        report = self.replay(
            framework_module, supervisor=SupervisorConfig(max_restarts=0)
        )
        sup = report.supervisor
        assert sup["restarts"] == 0
        assert sup["ejected"] == [1]
        assert report.shards[1].state == "ejected"
        assert report.settlement_share == 1.0


class TestLiveSupervision:
    """The probe thread respawns a killed shard in wall time."""

    def test_kill_respawn_rejoin(self):
        config = ClusterConfig(
            shards=3,
            serve=ServeConfig(
                workers=1,
                batcher=BatcherConfig(max_batch_size=4, max_wait_us=500.0),
            ),
            supervisor=SupervisorConfig(
                restart_backoff_us=10_000.0,
                probe_interval_us=2_000.0,
                failover_limit=1,
            ),
        )
        shapes = [(64, 784, 192), (96, 784, 192), (16, 784, 192)]
        with ClusterFrontend(config=config) as fe:
            first = [fe.submit(Gemm(*shapes[i % 3])) for i in range(24)]
            fe.kill(1)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if fe.supervisor.stats.restarts >= 1:
                    break
                time.sleep(0.01)
            second = [fe.submit(Gemm(*shapes[i % 3])) for i in range(24)]
            results = [t.result(30) for t in first + second]
            health = fe.cluster_health()
        # Supervision + failover: every ticket completes despite the
        # mid-run kill -- the PR-7 ShardKilled casualties are gone.
        assert all(r.ok for r in results)
        assert health["shards"][1]["state"] == "active"
        assert health["supervisor"]["restarts"] == 1
        report = fe.summary()
        assert report.supervisor["restarts"] == 1
        assert report.n_stranded == 0

    def test_supervisor_stops_with_the_frontend(self):
        config = ClusterConfig(
            shards=2,
            serve=ServeConfig(workers=1),
            supervisor=SupervisorConfig(probe_interval_us=2_000.0),
        )
        fe = ClusterFrontend(config=config).start()
        thread = fe.supervisor._thread
        assert thread is not None and thread.is_alive()
        fe.close()
        assert not thread.is_alive()
