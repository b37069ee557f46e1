"""``repro-serve``: serve a GEMM traffic trace and report latency.

Usage::

    repro-serve                            # synthetic Poisson trace, defaults
    repro-serve --rate 4000 --duration 0.5 --deadline-us 20000 --seed 7
    repro-serve --shapes 64x784x192 --rate 3000 --warm
    repro-serve --save-trace /tmp/trace.json
    repro-serve --trace /tmp/trace.json --workers 4
    repro-serve --live --time-scale 0.1    # wall-clock run through GemmServer

    # chaos: seeded fault injection against the live server
    repro-serve --live --operands --inject engine_error:engine=compiled,at=1-6 \
        --fault-seed 7 --json

    # sharded cluster tier: deterministic replay with a mid-run shard
    # kill, Bloom cache admission, and work stealing
    repro-serve --shards 4 --bloom --steal-threshold 8 --kill-shard 1@150000
    repro-serve --shards 4 --live --time-scale 0.1 --json

    # supervised recovery: respawn killed shards warm and fail
    # their settled tickets over along the ring
    repro-serve --shards 4 --kill-shard 1@150000 --supervise \
        --max-restarts 3 --restart-backoff-us 20000 --failover-limit 1

By default the trace is replayed **deterministically in virtual time**
(:func:`repro.serve.driver.replay_trace`): arrival times come from the
trace, service times from the device model, so the same seed and
configuration always print the same report.  ``--live`` instead paces
the trace in wall time through the threaded
:class:`~repro.serve.server.GemmServer` (real queues, real workers,
nondeterministic latencies).

The report covers p50/p95/p99 end-to-end and queueing latency,
throughput, batch occupancy, shed/timeout counts, and the plan-cache
hit rate; ``--warm`` pre-plans the trace's batch mixes
(:meth:`PlanCache.warm`) so serving starts hot.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.core.framework import CoordinatedFramework
from repro.core.options import Heuristic
from repro.core.plancache import CacheStats, PlanCache
from repro.kernels import ENGINES
from repro.gpu.specs import get_device
from repro.telemetry import NULL_TRACER, Tracer, set_tracer, write_chrome_trace


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro-serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve a batched-GEMM traffic trace and report latency/throughput.",
    )
    traffic = parser.add_argument_group("traffic")
    traffic.add_argument(
        "--trace", default="", metavar="FILE", help="replay a saved trace file"
    )
    traffic.add_argument(
        "--rate", type=float, default=2000.0, help="Poisson arrival rate (req/s)"
    )
    traffic.add_argument(
        "--duration", type=float, default=0.25, help="trace duration (seconds)"
    )
    traffic.add_argument(
        "--requests", type=int, default=0, help="cap the trace at N requests (0 = no cap)"
    )
    traffic.add_argument("--seed", type=int, default=0, help="trace RNG seed")
    traffic.add_argument(
        "--shapes",
        default="",
        help="comma-separated MxNxK pool (default: DNN-inference mix)",
    )
    traffic.add_argument(
        "--deadline-us",
        type=float,
        default=0.0,
        help="per-request deadline relative to arrival (0 = none)",
    )
    traffic.add_argument(
        "--timeout-us",
        type=float,
        default=0.0,
        help="per-request timeout relative to arrival (0 = none)",
    )
    traffic.add_argument(
        "--save-trace", default="", metavar="FILE", help="write the trace as JSON"
    )
    pipeline = parser.add_argument_group("pipeline")
    pipeline.add_argument("--device", default="v100", help="device name or alias")
    pipeline.add_argument(
        "--precision",
        choices=("fp32", "fp16", "bf16"),
        default=None,
        help="storage precision every request plans and executes at "
        "(default: the framework default, REPRO_DTYPE or fp32)",
    )
    pipeline.add_argument(
        "--backend",
        default=None,
        help="tiling backend (cuda:<device> / systolic:<RxC> / sram:<N>k; "
        "default: CUDA on --device)",
    )
    pipeline.add_argument("--workers", type=int, default=2, help="worker pool size")
    pipeline.add_argument(
        "--max-batch", type=int, default=16, help="dynamic batcher size trigger"
    )
    pipeline.add_argument(
        "--max-wait-us",
        type=float,
        default=2000.0,
        help="dynamic batcher wait-window trigger",
    )
    pipeline.add_argument(
        "--queue-capacity", type=int, default=64, help="admission queue bound"
    )
    pipeline.add_argument(
        "--heuristic",
        default="threshold",
        help="batching heuristic (threshold/binary/greedy-packing/balanced/best/best-extended)",
    )
    pipeline.add_argument(
        "--cache-capacity", type=int, default=256, help="plan cache capacity"
    )
    pipeline.add_argument(
        "--engine",
        choices=ENGINES,
        default="compiled",
        help="numerical execution engine for operand-carrying batches "
        "(compiled = precompiled-plan interpreter; reference = the "
        "per-slot Figure 7 walk)",
    )
    pipeline.add_argument(
        "--warm",
        action="store_true",
        help="pre-plan the trace's batch mixes before serving (warm-start)",
    )
    reliability = parser.add_argument_group("reliability")
    reliability.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="SPEC",
        help="inject a seeded fault: <site>_<error|slow>[:key=val,...] with "
        "site in {engine, planner}, keys every=N, at=A-B+C, rate=P, ms=X, "
        "engine=NAME, exc=ExcName (repeatable; e.g. engine_error:every=7)",
    )
    reliability.add_argument(
        "--fault-seed", type=int, default=0, help="fault-injection RNG seed"
    )
    reliability.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="N",
        help="retry attempts per planner call / per engine (default 3)",
    )
    reliability.add_argument(
        "--no-fallback",
        action="store_true",
        help="disable the engine fallback chain (fail instead of degrading)",
    )
    reliability.add_argument(
        "--no-bisect",
        action="store_true",
        help="disable poison-batch bisection (reject whole failed batches)",
    )
    reliability.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="N",
        help="consecutive failures before an engine's circuit opens",
    )
    reliability.add_argument(
        "--breaker-cooldown-s",
        type=float,
        default=1.0,
        metavar="S",
        help="seconds an open circuit waits before a half-open probe",
    )
    cluster = parser.add_argument_group("cluster")
    cluster.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="serve through a sharded cluster tier of N shards "
        "(0 = single server, the default)",
    )
    cluster.add_argument(
        "--vnodes",
        type=int,
        default=64,
        metavar="N",
        help="virtual nodes per shard on the consistent-hash ring",
    )
    cluster.add_argument(
        "--steal-threshold",
        type=int,
        default=8,
        metavar="N",
        help="queue-depth skew that triggers cross-shard work stealing "
        "(0 = stealing disabled)",
    )
    cluster.add_argument(
        "--global-queue-capacity",
        type=int,
        default=0,
        metavar="N",
        help="cluster-wide backpressure bound on total queued work "
        "(0 = unbounded)",
    )
    cluster.add_argument(
        "--bloom",
        action="store_true",
        help="enable second-hit Bloom plan-cache admission on every shard",
    )
    cluster.add_argument(
        "--bloom-capacity",
        type=int,
        default=1024,
        metavar="N",
        help="Bloom filter design capacity per generation",
    )
    cluster.add_argument(
        "--kill-shard",
        action="append",
        default=[],
        metavar="SHARD@TIME_US",
        help="kill a shard mid-run (e.g. 1@150000; repeatable); its held "
        "requests settle as error:ShardKilled and traffic remaps",
    )
    cluster.add_argument(
        "--supervise",
        action="store_true",
        help="supervise the shards: respawn killed shards warm from their "
        "predecessor's plan-cache manifest and transparently resubmit "
        "the tickets a kill settled",
    )
    cluster.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        metavar="N",
        help="restarts allowed per shard per restart window before "
        "permanent ejection (requires --supervise)",
    )
    cluster.add_argument(
        "--restart-backoff-us",
        type=float,
        default=20_000.0,
        metavar="US",
        help="base delay before a killed shard respawns; doubles per "
        "respawn, capped (requires --supervise)",
    )
    cluster.add_argument(
        "--failover-limit",
        type=int,
        default=1,
        metavar="N",
        help="max transparent resubmissions per ticket settled by a "
        "shard kill; 0 settles them failover_exhausted (requires "
        "--supervise)",
    )
    output = parser.add_argument_group("output")
    output.add_argument(
        "--live",
        action="store_true",
        help="run in wall time through the threaded GemmServer (nondeterministic)",
    )
    output.add_argument(
        "--operands",
        action="store_true",
        help="--live only: submit random operands so batches execute "
        "numerically (exercises the engine + fallback chain)",
    )
    output.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="--live arrival pacing multiplier (0 = as fast as possible)",
    )
    output.add_argument(
        "--json", action="store_true", help="print the report as JSON instead of tables"
    )
    output.add_argument(
        "--chrome-trace",
        default="",
        metavar="FILE",
        help="write the telemetry spans as a Chrome trace-event file",
    )
    return parser


def _build_trace(args: argparse.Namespace):
    from repro.__main__ import parse_shape
    from repro.serve.loadgen import (
        DEFAULT_SHAPE_POOL,
        load_trace,
        poisson_trace,
        save_trace,
    )

    if args.trace:
        try:
            trace = load_trace(args.trace)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"error: cannot load trace {args.trace!r}: {exc}") from None
    else:
        try:
            shapes = (
                tuple(parse_shape(tok) for tok in args.shapes.split(",") if tok)
                if args.shapes
                else DEFAULT_SHAPE_POOL
            )
        except argparse.ArgumentTypeError as exc:
            raise SystemExit(f"error: {exc}") from None
        trace = poisson_trace(
            rate_rps=args.rate,
            duration_s=args.duration,
            n_requests=args.requests or None,
            shapes=shapes,
            seed=args.seed,
            deadline_us=args.deadline_us or None,
            timeout_us=args.timeout_us or None,
        )
    if not trace:
        raise SystemExit("error: the trace is empty (rate/duration too small?)")
    if getattr(args, "precision", None):
        from dataclasses import replace

        trace = [
            tr if tr.precision is not None else replace(tr, precision=args.precision)
            for tr in trace
        ]
    if args.save_trace:
        save_trace(args.save_trace, trace)
        print(f"wrote {len(trace)} requests to {args.save_trace}", file=sys.stderr)
    return trace


def _build_config(args: argparse.Namespace, heuristic: Heuristic):
    from repro.kernels import ExecutionPolicy
    from repro.reliability import FaultPlan, RetryPolicy
    from repro.serve import (
        AdmissionConfig,
        BatcherConfig,
        ReliabilityConfig,
        ServeConfig,
    )

    fault_plan = None
    if args.inject:
        try:
            fault_plan = FaultPlan.parse(args.inject, seed=args.fault_seed)
        except ValueError as exc:
            raise SystemExit(f"error: bad --inject spec: {exc}") from None
    try:
        reliability = ReliabilityConfig(
            retry=RetryPolicy(max_attempts=args.max_retries),
            fallback=not args.no_fallback,
            bisect=not args.no_bisect,
            breaker_failure_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown_s,
            fault_plan=fault_plan,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    return ServeConfig(
        workers=args.workers,
        batcher=BatcherConfig(
            max_batch_size=args.max_batch, max_wait_us=args.max_wait_us
        ),
        admission=AdmissionConfig(queue_capacity=args.queue_capacity),
        heuristic=heuristic,
        policy=ExecutionPolicy(engine=args.engine),
        reliability=reliability,
    )


def _run_live(target, trace, time_scale: float, kills=(), operands_seed=None):
    """Pace ``trace`` in wall time into a started server or cluster frontend.

    ``kills`` are ``(shard, time_us)`` pairs, fired before the first
    arrival at or past their time; ``operands_seed`` draws random
    operands for every request.  Returns the summary and a health probe.
    """
    operand_rng = None
    if operands_seed is not None:
        import numpy as np

        operand_rng = np.random.default_rng(operands_seed)
    pending_kills = sorted(kills, key=lambda kt: kt[1])
    prev_us = 0.0
    tickets = []
    for tr in trace:
        gap_s = (tr.arrival_us - prev_us) / 1e6 * time_scale
        if gap_s > 0:
            time.sleep(gap_s)
        prev_us = tr.arrival_us
        while pending_kills and tr.arrival_us >= pending_kills[0][1]:
            target.kill(pending_kills.pop(0)[0])
        operands = None
        if operand_rng is not None:
            g = tr.gemm
            operands = (
                operand_rng.standard_normal((g.m, g.k)),
                operand_rng.standard_normal((g.k, g.n)),
            )
        tickets.append(
            target.submit(
                tr.gemm,
                operands=operands,
                deadline_us=(
                    None if tr.deadline_us is None else tr.deadline_us - tr.arrival_us
                ),
                timeout_us=tr.timeout_us,
                priority=tr.priority,
                precision=tr.precision,
            )
        )
    for shard, _ in pending_kills:  # kills scheduled past the last arrival
        target.kill(shard)
    # Snapshot liveness while the target still accepts -- after close()
    # a health probe would only ever say "shutting down".
    health = (
        target.cluster_health() if hasattr(target, "cluster_health") else target.health()
    )
    target.close(drain=True)
    for t in tickets:
        t.result(timeout=30.0)
    return target.summary(), health


def _parse_kills(specs: list[str], shards: int) -> list[tuple[int, float]]:
    kills = []
    for spec in specs:
        try:
            shard_s, time_s = spec.split("@", 1)
            shard, time_us = int(shard_s), float(time_s)
        except ValueError:
            raise SystemExit(
                f"error: bad --kill-shard {spec!r} (expected SHARD@TIME_US)"
            ) from None
        if not 0 <= shard < shards:
            raise SystemExit(
                f"error: --kill-shard {spec!r}: shard out of range [0, {shards})"
            )
        kills.append((shard, time_us))
    return kills


def _build_cluster_config(args: argparse.Namespace, serve_config):
    from repro.cluster import BloomConfig, ClusterConfig, SupervisorConfig

    try:
        supervisor = None
        if args.supervise:
            supervisor = SupervisorConfig(
                max_restarts=args.max_restarts,
                restart_backoff_us=args.restart_backoff_us,
                failover_limit=args.failover_limit,
            )
        return ClusterConfig(
            shards=args.shards,
            vnodes=args.vnodes,
            steal_threshold=args.steal_threshold or None,
            global_queue_capacity=args.global_queue_capacity or None,
            bloom=BloomConfig(capacity=args.bloom_capacity) if args.bloom else None,
            serve=serve_config,
            cache_capacity=args.cache_capacity,
            supervisor=supervisor,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _reliability_line(reliability: dict) -> str:
    """One server's fault counters, as the text report prints them."""
    return (
        f"{reliability.get('retries', 0)} retries, "
        f"{reliability.get('fallbacks', 0)} fallbacks, "
        f"{reliability.get('bisections', 0)} bisections, "
        f"{reliability.get('faults_injected', 0)} faults injected"
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry: build the trace, serve it, print the latency report."""
    args = build_parser().parse_args(argv)
    if args.operands and not args.live:
        raise SystemExit("error: --operands requires --live (replay never executes)")
    if args.shards:
        if args.warm:
            raise SystemExit(
                "error: --warm is per-server; not supported with --shards"
            )
        if args.operands:
            raise SystemExit("error: --operands is not supported with --shards")
    elif args.kill_shard:
        raise SystemExit("error: --kill-shard requires --shards")
    elif args.supervise:
        raise SystemExit("error: --supervise requires --shards")
    if not args.supervise:
        defaults = build_parser()
        for flag in ("max_restarts", "restart_backoff_us", "failover_limit"):
            if getattr(args, flag) != defaults.get_default(flag):
                raise SystemExit(
                    f"error: --{flag.replace('_', '-')} requires --supervise"
                )
    try:
        heuristic = Heuristic.coerce(args.heuristic)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None

    from repro.analysis.latency import render_cluster_report, render_serve_report
    from repro.serve.driver import replay_trace

    try:
        device = get_device(args.device)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    try:
        framework = CoordinatedFramework(
            device=device, precision=args.precision, backend=args.backend
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    config = _build_config(args, heuristic)
    trace = _build_trace(args)

    health = None
    tracer = Tracer() if args.chrome_trace else NULL_TRACER
    previous = set_tracer(tracer)
    try:
        if args.shards:
            cluster_config = _build_cluster_config(args, config)
            kills = _parse_kills(args.kill_shard, args.shards)
            if args.live:
                from repro.cluster import ClusterFrontend

                frontend = ClusterFrontend(framework, cluster_config).start()
                report, health = _run_live(frontend, trace, args.time_scale, kills)
            else:
                from repro.cluster import replay_cluster_trace

                report = replay_cluster_trace(
                    trace, framework, cluster_config, kill=kills
                )
        else:
            cache = PlanCache(framework, capacity=args.cache_capacity)
            if args.warm:
                scout = replay_trace(trace, framework, config)
                planned = cache.warm(scout.formed_batches, config.heuristic)
                cache.stats = CacheStats()  # report serving-time traffic only
                print(
                    f"warm-start: pre-planned {planned} batch mixes", file=sys.stderr
                )
            if args.live:
                from repro.serve.server import GemmServer

                server = GemmServer(framework, config, cache=cache).start()
                report, health = _run_live(
                    server,
                    trace,
                    args.time_scale,
                    operands_seed=args.seed if args.operands else None,
                )
            else:
                report = replay_trace(trace, framework, config, cache=cache)
    finally:
        set_tracer(previous)

    if args.json:
        payload = report.to_dict()
        if health is not None:
            payload["health"] = health
        print(json.dumps(payload, indent=1))
    elif args.shards:
        print(render_cluster_report(report))
        print(
            "shutdown summary: "
            f"{report.n_completed}/{report.n_requests} completed, "
            f"settlement {report.settlement_share:.1%}, "
            f"{report.n_steals} steals, {report.n_failovers} failovers"
        )
        sup = getattr(report, "supervisor", None)
        if sup is not None:
            print(
                "supervision: "
                f"{sup.get('restarts', 0)} restarts, "
                f"{sup.get('resubmissions', 0)} resubmissions, "
                f"{sup.get('budget_exhausted', 0)} budget-exhausted, "
                f"{sup.get('failover_exhausted', 0)} failover-exhausted, "
                f"ejected {sup.get('ejected', []) or 'none'}"
            )
        if health is not None:
            print(
                "cluster health: "
                f"{'ok' if health['ok'] else 'DEGRADED'}, "
                f"active shards {health['active']}"
            )
        for shard in report.shards:
            if shard.report.reliability is not None:
                print(
                    f"shard {shard.shard_id} reliability: "
                    + _reliability_line(shard.report.reliability)
                )
    else:
        print(render_serve_report(report))
        stats = report.cache
        print(
            "shutdown summary: "
            f"{report.n_completed}/{report.n_requests} completed, "
            f"cache {stats.hits}h/{stats.misses}m/{stats.evictions}e "
            f"(hit rate {stats.hit_rate:.1%})"
        )
        if health is not None:
            print(
                "server health: "
                f"{'ok' if health['ok'] else 'DEGRADED'}, "
                f"queue depth {health['queue_depth']}, "
                f"breakers {health['breakers']}"
            )
        if report.reliability is not None:
            print("reliability: " + _reliability_line(report.reliability))
    if args.chrome_trace:
        try:
            write_chrome_trace(tracer, args.chrome_trace, process_name="repro-serve")
        except OSError as exc:
            raise SystemExit(f"error: cannot write trace file: {exc}") from None
        print(f"wrote telemetry to {args.chrome_trace} (chrome://tracing format)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
