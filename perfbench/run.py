"""The repository benchmark: one pinned workload, timed on this host.

Run from the repository root::

    python3 perfbench/run.py --workload inception --seed 0 --seconds 40 --trace 0

Workloads: ``inception`` and ``ragged_cold``; the two planned serving
workloads are dropped (``DROPPED`` says why, ``README.md`` gives the
measurements).  With ``--trace 0`` it prints every end-to-end metric;
with ``--trace 1`` every per-layer metric, from one traced run.  The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 1 on a wrong output,
and 2 without a result when a workload process fails, a ``REPRO_*``
environment variable is set, or there is no ``src/repro`` to measure.

Each workload runs in fresh child processes (``workloads.py``): an
untraced run reports the median set-up time of ``SETUP_SAMPLES`` of
them (the measured one included); a traced run is one child.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("inception", "ragged_cold")
#: Planned workloads that could not be made steady on a 2-CPU host.
DROPPED = {
    "serve_open": "latency_p99_ms spread 0.33 of its median over 25 s runs, "
    "caches warmed: the requests beyond p99 are the few batches per run "
    "whose new composition misses the plan cache and compiles for 30-46 ms",
    "cluster_overload": "bimodal: a shard's admission estimate passes the "
    "200 ms deadline and the shard then refuses all its traffic for good, "
    "in most runs but not all (goodput 224-235 or 337 rps at 680 rps)",
}
SETUP_SAMPLES = 5
#: The whole run must end within this many seconds.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("model_speedup_vs_magma", "ratio"),
)
PER_LAYER = (
    ("plan.ms_p50", "ms"),
    ("plan.busy_share", "ratio"),
    ("plancache.hit_rate", "ratio"),
    ("plancache.lookups", "count"),
    ("compile.ms_p50", "ms"),
    ("compile.busy_share", "ratio"),
    ("compile.scratch_mb", "MB"),
    ("execute.ms_p50", "ms"),
    ("execute.busy_share", "ratio"),
    ("execute.matmul_calls", "count/op"),
    ("execute.gflop_per_s", "GFLOP/s"),
    ("execute.mb_computed", "MB/op"),
    ("loadgen.lag_ms_p50", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.lag_ms_max", "ms"),
    ("model_gpu_ms", "modeled-ms"),
    ("trace.overhead_share", "ratio"),
)
#: The paper's modeled speedups over MAGMA vbatch.
PAPER_SPEEDUP = {
    "inception": "1.23x on GoogLeNet (Figure 10)",
    "ragged_cold": "1.40x on random batches (Figure 11)",
}


class ChildFailed(RuntimeError):
    """A workload process crashed or ran out of time."""


def host_facts() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_child(args, seconds: float, trace: int, deadline: float, setup_only=False) -> dict:
    """Run ``workloads.py`` once and return the JSON it printed last."""
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before starting a workload process")
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(time.monotonic())],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"workload process exceeded {timeout:.0f} s") from exc
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def untraced(args, deadline: float):
    samples = [
        run_child(args, args.seconds, 0, deadline, setup_only=True)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    child = run_child(args, args.seconds, 0, deadline)
    samples.append(child["setup_s"])
    metrics = dict(
        child["e2e"], setup_s=statistics.median(samples), peak_rss_mb=child["peak_rss_mb"]
    )
    n = child["attempted"] - child["failed"]
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in samples),
        "latency_p50_ms": f"n={n} successful ops",
        "latency_p99_ms": f"n={n} successful ops"
        + ("" if n >= 1000 else " (<1000: fewer than 10 beyond p99)"),
        "model_speedup_vs_magma": "cost model on V100, not host time",
    }
    if args.workload in PAPER_SPEEDUP:
        notes["model_speedup_vs_magma"] += f"; paper: {PAPER_SPEEDUP[args.workload]}"
    return child, END_TO_END, metrics, notes


def traced(args, deadline: float):
    child = run_child(args, args.seconds, 1, deadline)
    notes = dict(child["bases"], model_gpu_ms="cost model on V100, not host time")
    return child, PER_LAYER, child["layers"], notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    # Turn SIGTERM into an exception, on which subprocess.run kills and
    # reaps the running workload process before this one exits.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    stray = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if stray:
        print(f"perfbench: refusing to run with {', '.join(stray)} set", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        child, names, metrics, notes = (traced if args.trace else untraced)(args, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2

    print(
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    for name, reason in DROPPED.items():
        print(f"dropped workload {name}: {reason}")
    print("host " + json.dumps(dict(host_facts(), **child["host"])))
    for name, unit in names:
        note = notes.get(name, "")
        print(f"  {name:36s} {metrics[name]:>14.6g} {unit:9s} {note}".rstrip())
    if args.trace:
        self_ms = {k: round(v, 3) for k, v in sorted(child["self_ms"].items())}
        print("self time by span, ms: " + json.dumps(self_ms))
        print(f"spans written to {child['trace_file']}")
    print(json.dumps({
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0 if child["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
