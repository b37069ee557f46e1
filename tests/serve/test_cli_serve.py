"""Tests for the repro-serve command-line interface."""

import json
import re
import weakref

import pytest

from repro.core.problem import Gemm
from repro.serve.cli import _run_live, main
from repro.serve.loadgen import TraceRequest

FAST = [
    "--rate", "2000", "--duration", "0.01", "--shapes", "32x32x32",
    "--seed", "3", "--deadline-us", "50000",
]


class TestHelp:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "repro-serve" in capsys.readouterr().out

    def test_module_alias_importable(self):
        import repro.serve.__main__  # noqa: F401


class TestReplayRuns:
    def test_small_run_prints_report(self, capsys):
        assert main(FAST) == 0
        out = capsys.readouterr().out
        assert "plan cache" in out
        assert "shutdown summary" in out
        assert "p99" in out

    def test_two_runs_identical_output(self, capsys):
        main(FAST)
        first = capsys.readouterr().out
        main(FAST)
        second = capsys.readouterr().out
        assert first == second

    def test_json_output_parses(self, capsys):
        assert main(FAST + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_requests"] > 0
        assert "latency" in payload and "cache" in payload

    def test_warm_start_hits(self, capsys):
        assert main(FAST + ["--warm", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["misses"] == 0
        assert payload["cache"]["hits"] > 0


class TestTraceFiles:
    def test_save_then_replay_trace(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.json")
        assert main(FAST + ["--save-trace", trace_file]) == 0
        saved_out = capsys.readouterr().out
        assert main(["--trace", trace_file, "--deadline-us", "50000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_requests"] > 0
        assert "shutdown summary" in saved_out

    def test_missing_trace_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--trace", str(tmp_path / "nope.json")])


class TestValidation:
    def test_bad_heuristic_rejected(self):
        with pytest.raises(SystemExit):
            main(FAST + ["--heuristic", "bogus"])

    def test_bad_shape_rejected(self):
        with pytest.raises(SystemExit):
            main(["--shapes", "not-a-shape", "--duration", "0.01"])

    def test_bad_device_rejected(self):
        with pytest.raises(SystemExit):
            main(FAST + ["--device", "bogus9000"])


class TestLiveMode:
    def test_live_mode_completes(self, capsys):
        args = [
            "--live", "--rate", "2000", "--duration", "0.005",
            "--shapes", "32x32x32", "--seed", "1", "--time-scale", "0.1",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "shutdown summary" in out

    def test_live_json_includes_health(self, capsys):
        args = [
            "--live", "--rate", "2000", "--duration", "0.005",
            "--shapes", "32x32x32", "--seed", "1", "--time-scale", "0",
            "--json",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "health" in payload
        assert "ok" in payload["health"]
        assert "breakers" in payload["health"]

    def test_settled_tickets_are_not_kept(self):
        """A settled ticket holds its output, so the pacing loop drops it."""
        target = StubTarget()
        _run_live(target, STUB_TRACE, time_scale=0.0)
        assert len(target.alive) == len(STUB_TRACE)
        assert max(target.alive) <= 2

    def test_unsettled_tickets_are_awaited_after_close(self):
        target = StubTarget(hold=3)
        _run_live(target, STUB_TRACE, time_scale=0.0)
        assert len(target.held) == len(STUB_TRACE) // 3
        assert [t for t in target.awaited if not t.settled] == target.held


#: Arrivals at one instant, so ``_run_live`` never sleeps.
STUB_TRACE = [TraceRequest(arrival_us=0.0, gemm=Gemm(8, 8, 8))] * 200


class StubTicket:
    """A ticket of :class:`StubTarget`; records each wait on it."""

    def __init__(self, target: "StubTarget"):
        self.target = target
        self.settled = False

    def done(self) -> bool:
        return self.settled

    def result(self, timeout=None):
        assert self.target.closed
        self.target.awaited.append(self)


class StubTarget:
    """A ``_run_live`` target whose tickets settle as they are submitted.

    With ``hold``, every ``hold``-th ticket never settles instead.  Each
    submit records how many settled tickets are still alive.
    """

    def __init__(self, hold: int = 0):
        self.hold = hold
        self.settled: list = []  # weak references to settled tickets
        self.held: list = []  # the unsettled tickets, in submission order
        self.awaited: list = []
        self.alive: list = []
        self.closed = False

    def submit(self, gemm, **kwargs) -> StubTicket:
        self.alive.append(sum(ref() is not None for ref in self.settled))
        ticket = StubTicket(self)
        if self.hold and len(self.alive) % self.hold == 0:
            self.held.append(ticket)
        else:
            ticket.settled = True
            self.settled.append(weakref.ref(ticket))
        return ticket

    def health(self) -> dict:
        return {}

    def close(self, drain: bool) -> None:
        self.closed = True

    def summary(self):
        return None


CLUSTER = FAST + ["--shards", "2", "--max-batch", "4"]


class TestClusterMode:
    def test_replay_prints_cluster_report(self, capsys):
        assert main(CLUSTER) == 0
        out = capsys.readouterr().out
        assert "cluster of 2 shards" in out
        assert "shutdown summary" in out
        assert "settlement" in out

    def test_replay_deterministic(self, capsys):
        main(CLUSTER)
        first = capsys.readouterr().out
        main(CLUSTER)
        assert capsys.readouterr().out == first

    def test_json_settles_everything(self, capsys):
        assert main(CLUSTER + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_shards"] == 2
        assert payload["settlement_share"] == 1.0
        assert len(payload["shards"]) == 2

    def test_bloom_flag_snapshots(self, capsys):
        assert main(CLUSTER + ["--bloom", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(s["bloom"] is not None for s in payload["shards"])

    def test_kill_shard_replay_settles(self, capsys):
        assert main(CLUSTER + ["--kill-shard", "0@1000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["settlement_share"] == 1.0
        assert payload["shards"][0]["state"] == "dead"

    def test_cluster_live_json_includes_health(self, capsys):
        args = [
            "--shards", "2", "--live", "--rate", "2000",
            "--duration", "0.005", "--shapes", "32x32x32", "--seed", "1",
            "--time-scale", "0", "--json",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "health" in payload
        assert payload["health"]["n_shards"] == 2

    def test_kill_requires_shards(self):
        with pytest.raises(SystemExit):
            main(FAST + ["--kill-shard", "0@1000"])

    def test_bad_kill_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(CLUSTER + ["--kill-shard", "zero@soon"])

    def test_kill_shard_out_of_range(self):
        with pytest.raises(SystemExit):
            main(CLUSTER + ["--kill-shard", "5@1000"])

    def test_warm_incompatible_with_shards(self):
        with pytest.raises(SystemExit):
            main(CLUSTER + ["--warm"])

    def test_operands_incompatible_with_shards(self):
        with pytest.raises(SystemExit):
            main(CLUSTER + ["--live", "--operands"])


class TestClusterSmoke:
    """Sharded replays end to end through the CLI: kills, recovery, faults."""

    def run_json(self, capsys, argv) -> dict:
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_shard_kill_settles_every_ticket(self, capsys):
        rep = self.run_json(capsys, [
            "--shards", "4", "--bloom", "--rate", "20000", "--duration", "0.05",
            "--seed", "7", "--max-batch", "4", "--kill-shard", "1@25000", "--json",
        ])
        assert rep["settlement_share"] == 1.0
        assert rep["n_stranded"] == 0
        assert rep["shards"][1]["state"] == "dead"
        survivors = [s for s in rep["shards"] if s["shard_id"] != 1]
        assert sum(s["report"]["n_completed"] for s in survivors) > 0

    def test_supervised_recovery_respawns_a_killed_shard(self, capsys):
        rep = self.run_json(capsys, [
            "--shards", "4", "--rate", "20000", "--duration", "0.1", "--seed", "7",
            "--max-batch", "4", "--kill-shard", "1@25000", "--kill-shard", "2@60000",
            "--supervise", "--restart-backoff-us", "10000", "--failover-limit", "1",
            "--json",
        ])
        assert rep["settlement_share"] == 1.0
        assert rep["n_stranded"] == 0
        sup = rep["supervisor"]
        assert sup is not None
        assert sup["restarts"] >= 1
        respawned = [
            s for s in rep["shards"] if str(s["shard_id"]) in sup["per_shard_restarts"]
        ]
        assert any(s["state"] == "active" for s in respawned)

    def test_supervised_text_report_prints_supervision_once(self, capsys):
        assert main([
            "--shards", "4", "--rate", "4000", "--duration", "0.1",
            "--kill-shard", "1@50000", "--supervise",
        ]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("supervision:")]
        assert len(lines) == 1, lines

    def test_planner_faults_are_injected_on_every_shard(self, capsys):
        rep = self.run_json(capsys, [
            "--shards", "2", "--rate", "2000", "--duration", "0.2", "--seed", "7",
            "--inject", "planner_error:rate=0.5", "--fault-seed", "11", "--json",
        ])
        assert rep["settlement_share"] == 1.0
        for shard in rep["shards"]:
            assert shard["report"]["reliability"]["faults_injected"] > 0

    def test_text_report_prints_each_shards_fault_counters(self, capsys):
        """The text report's per-shard reliability lines match ``--json``."""
        argv = [
            "--shards", "2", "--rate", "2000", "--duration", "0.2", "--seed", "7",
            "--inject", "planner_error:rate=0.5", "--fault-seed", "11",
        ]
        rep = self.run_json(capsys, argv + ["--json"])
        assert main(argv) == 0
        out = capsys.readouterr().out
        lines = re.findall(
            r"^shard (\d+) reliability: (\d+) retries, \d+ fallbacks, "
            r"\d+ bisections, (\d+) faults injected$",
            out,
            flags=re.MULTILINE,
        )
        printed = {int(s): (int(retries), int(faults)) for s, retries, faults in lines}
        want = {
            s["shard_id"]: (
                s["report"]["reliability"]["retries"],
                s["report"]["reliability"]["faults_injected"],
            )
            for s in rep["shards"]
        }
        assert printed == want
        assert all(faults > 0 for _, faults in printed.values())
