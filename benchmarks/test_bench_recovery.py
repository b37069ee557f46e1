"""Chaos-recovery gates: supervised respawn + failover vs a dead shard.

The cluster gates (``benchmarks/test_bench_cluster.py``) kill one of 4
shards mid-run *without* supervision and complete ~78% of the trace: the
victim's held work settles as ``error:ShardKilled`` and its capacity is
gone for the back half of the run.  These gates rerun the identical
workload under :class:`~repro.cluster.supervisor.SupervisorConfig` --
the shard respawns warm from its predecessor's plan-cache manifest and
the kill's casualties fail over along the ring -- and require that
supervision buys back the lost completion: >= 95% completed, 100%
typed settlement, and byte-identical reruns.

They are plain tests that write no snapshot.  The 10^5-request replay
takes about 90 s on a 2-vCPU host, so CI runs this file as its own
step ("Recovery gates"), outside the tier-1 suite::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_recovery.py -q
"""

from __future__ import annotations

import json

from repro.cluster import ClusterConfig, SupervisorConfig, replay_cluster_trace
from repro.core.framework import CoordinatedFramework
from repro.gpu.specs import VOLTA_V100
from repro.serve import BatcherConfig, ServeConfig
from repro.serve.loadgen import poisson_trace

#: Identical workload to ``benchmarks/test_bench_cluster.py`` so the
#: supervised completion share is directly comparable to the
#: unsupervised kill arm that file pins (``completed_share`` 0.772).
N_REQUESTS = 100_000
RATE_RPS = 200_000.0
TRACE_SEED = 7
DEADLINE_US = 50_000.0
HEAVY_SHAPES = ((512, 512, 512), (768, 768, 768), (1024, 512, 256))
KILL_SHARD, KILL_AT_US = 1, 250_000.0


def _framework():
    return CoordinatedFramework(device=VOLTA_V100)


def _trace(n=N_REQUESTS):
    return poisson_trace(
        RATE_RPS,
        None,
        n_requests=n,
        shapes=HEAVY_SHAPES,
        seed=TRACE_SEED,
        deadline_us=DEADLINE_US,
    )


def _config(supervisor=None) -> ClusterConfig:
    return ClusterConfig(
        shards=4,
        serve=ServeConfig(batcher=BatcherConfig(max_batch_size=4)),
        supervisor=supervisor,
    )


def test_recovery_completion():
    """Supervision recovers a killed shard's lost completion share.

    Same 10^5-request overload trace and mid-run kill as the cluster
    benchmark; with respawn + failover the tier must complete >= 95%
    of the trace (the unsupervised arm manages ~78%) while still
    settling every ticket with a typed outcome.
    """
    trace = _trace()
    kill = [(KILL_SHARD, KILL_AT_US)]
    supervised = replay_cluster_trace(
        trace, _framework(), _config(SupervisorConfig()), kill=kill
    )
    bare = replay_cluster_trace(trace, _framework(), _config(), kill=kill)

    assert supervised.settlement_share == 1.0 and supervised.n_stranded == 0
    assert supervised.completed_share >= 0.95
    assert supervised.completed_share > bare.completed_share
    assert supervised.supervisor["restarts"] >= 1
    victim = next(s for s in supervised.shards if s.shard_id == KILL_SHARD)
    assert victim.state == "active"  # respawned and rejoined


def test_recovery_deterministic():
    """Supervised recovery replays to byte-identical reports.

    Respawn scheduling, failover resubmission, and budget settlement
    are all functions of the trace and config alone -- two replays of
    the same supervised kill must serialize identically.
    """
    trace = _trace(n=10_000)

    def run():
        return replay_cluster_trace(
            trace, _framework(), _config(SupervisorConfig()), kill=[(2, 20_000.0)]
        )

    first, second = run(), run()
    a = json.dumps(first.to_dict(), sort_keys=True)
    b = json.dumps(second.to_dict(), sort_keys=True)
    assert a == b
    assert first.supervisor["restarts"] >= 1
