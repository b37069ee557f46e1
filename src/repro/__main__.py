"""Ad-hoc batched-GEMM timing from the command line.

Usage::

    python -m repro 64x784x192,96x784x192,16x784x192 --device v100
    python -m repro --uniform 128x128x32 --batch 16 --heuristic best
    python -m repro --workload data/cnn_fan_gemms.json --case googlenet/inception3a
    python -m repro 64x64x64,128x128x32 --trace /tmp/t.json
    python -m repro 64x784x192,16x784x192 --execute --engine reference

Plans the batch with the coordinated framework, times it against every
baseline on the chosen device model, and prints the plan summary.
``--trace FILE`` records the whole run (tiling, batching, schedule
build, simulations, baselines) and writes a Chrome trace-event file
loadable in ``chrome://tracing`` / Perfetto; ``--trace-tree`` prints
the span tree to stdout.

For *online* traffic (individual GEMMs arriving continuously, batched
dynamically, served by a worker pool) use ``repro-serve`` /
``python -m repro.serve`` instead -- see :mod:`repro.serve`.
"""

from __future__ import annotations

import argparse
import sys

from repro.baselines.cke import simulate_cke
from repro.baselines.default import simulate_default
from repro.baselines.magma_vbatch import simulate_magma_vbatch
from repro.core.framework import CoordinatedFramework
from repro.core.options import Heuristic
from repro.core.problem import Gemm, GemmBatch
from repro.kernels import ENGINES
from repro.gpu.specs import get_device
from repro.telemetry import NULL_TRACER, Tracer, set_tracer, write_chrome_trace


def parse_shape(text: str) -> tuple[int, int, int]:
    """Parse one ``MxNxK`` token."""
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected MxNxK, got {text!r}")
    try:
        m, n, k = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"non-integer dimension in {text!r}") from exc
    return m, n, k


def build_batch(args: argparse.Namespace) -> GemmBatch:
    """Assemble the batch from whichever input mode was used."""
    modes = sum(bool(x) for x in (args.shapes, args.uniform, args.workload))
    if modes != 1:
        raise SystemExit(
            "choose exactly one input: positional shapes, --uniform, or --workload"
        )
    if args.uniform:
        m, n, k = parse_shape(args.uniform)
        return GemmBatch.uniform(m, n, k, args.batch)
    if args.workload:
        from repro.workloads.io import load_workload

        cases = load_workload(args.workload)
        if args.case not in cases:
            raise SystemExit(
                f"case {args.case!r} not in workload; available: {sorted(cases)[:10]}..."
            )
        return cases[args.case]
    shapes = [parse_shape(tok) for tok in args.shapes.split(",") if tok]
    return GemmBatch(Gemm(*s) for s in shapes)


def main(argv: list[str] | None = None) -> int:
    """CLI entry: build the batch, plan, time, and report."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Plan and time a batched GEMM against every baseline.",
        epilog="For online arrival-driven serving, see repro-serve "
        "(python -m repro.serve).",
    )
    parser.add_argument(
        "shapes",
        nargs="?",
        default="",
        help="comma-separated MxNxK list, e.g. 64x784x192,16x784x192",
    )
    parser.add_argument("--uniform", default="", help="one MxNxK repeated --batch times")
    parser.add_argument("--batch", type=int, default=8, help="batch size for --uniform")
    parser.add_argument("--workload", default="", help="workload JSON file (see repro.workloads.io)")
    parser.add_argument("--case", default="", help="case name within --workload")
    parser.add_argument("--device", default="v100", help="device name or alias")
    parser.add_argument(
        "--heuristic",
        default="best",
        help="batching heuristic (threshold/binary/greedy-packing/balanced/best/best-extended)",
    )
    parser.add_argument("--explain", action="store_true", help="print the plan cost breakdown")
    parser.add_argument(
        "--execute",
        action="store_true",
        help="numerically execute the plan on random operands and report "
        "wall time plus the max error against the np.matmul oracle",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="compiled",
        help="numerical execution engine for --execute "
        "(compiled = precompiled-plan interpreter; reference = the "
        "per-slot Figure 7 walk)",
    )
    parser.add_argument(
        "--trace",
        default="",
        metavar="FILE",
        help="record the run and write a Chrome trace-event JSON file",
    )
    parser.add_argument(
        "--trace-tree",
        action="store_true",
        help="print the recorded span tree (implies tracing)",
    )
    args = parser.parse_args(argv)

    device = get_device(args.device)
    batch = build_batch(args)
    framework = CoordinatedFramework(device=device)
    try:
        heuristic = Heuristic.coerce(args.heuristic)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None

    tracer = Tracer() if (args.trace or args.trace_tree) else NULL_TRACER
    previous = set_tracer(tracer)
    try:
        report = framework.plan(batch, heuristic)
        ours = framework.simulate_plan(report)
        print(report.summary())
        print()
        rows = [
            ("coordinated framework", ours.time_us),
            ("MAGMA vbatch", simulate_magma_vbatch(batch, device).time_us),
            ("streams (CKE)", simulate_cke(batch, device).time_us),
            ("default serial", simulate_default(batch, device).time_us),
        ]
        print(f"simulated on {device.name}:")
        for name, us in rows:
            print(f"  {name:24s} {us:10.1f} us   ({us / rows[0][1]:5.2f}x ours)")
        if args.explain:
            print()
            print(framework.explain_plan(report))
        if args.execute:
            import time

            import numpy as np

            from repro.kernels import get_engine
            from repro.kernels.reference import reference_batched_gemm

            ops = batch.random_operands(np.random.default_rng(0))
            run = get_engine(args.engine)
            t0 = time.perf_counter()
            outs = run(report.schedule, batch, ops)
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            oracle = reference_batched_gemm(batch, ops)
            err = max(
                float(np.max(np.abs(got.astype(np.float64) - want.astype(np.float64))))
                for got, want in zip(outs, oracle)
            )
            print()
            print(
                f"executed numerically ({args.engine} engine): "
                f"{elapsed_ms:.2f} ms host wall time, "
                f"max |err| vs np.matmul oracle {err:.2e}"
            )
    finally:
        set_tracer(previous)
    if args.trace_tree:
        print()
        print(tracer.render_tree())
    if args.trace:
        try:
            write_chrome_trace(tracer, args.trace, process_name="python -m repro")
        except OSError as exc:
            raise SystemExit(f"error: cannot write trace file: {exc}") from None
        n_spans = sum(1 for _ in tracer.walk())
        print(f"\nwrote {n_spans} spans to {args.trace} (chrome://tracing format)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
