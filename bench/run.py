#!/usr/bin/env python3
"""Benchmark of the iwasawa library: three workloads, closed loop, one process.

    python3 bench/run.py --workload interp_grid --seed 1 --seconds 36 --trace 0

Each run is a fresh single-threaded process whose library caches start empty.
One caller issues the next op only after the previous one returned.  Every op
output is checked against a reference outside its timed interval, and the last
line of standard output is one JSON object with the metrics.

--trace 0 reports the end-to-end metrics: ops_per_s, op_ms_p50, op_ms_p90,
setup_s (median of several fresh processes that import iwasawa and generate
the first round of inputs) and peak_rss_mb.  Times are scaled to a reference
host speed by a calibration kernel timed next to every op (see
calibration_kernel); the record keeps the unscaled figures.

--trace 1 wraps the library's layers (see spans.py), runs a fixed number of
whole rounds of the workload (TRACE_OPS, independent of --seconds, so layer
totals compare across builds and the exact counters repeat), writes the spans
to .bench_out/, and reports self time and counts per layer.  It then runs the
same ops untraced in a fresh process, for trace.overhead.

--ops N runs exactly N ops instead and adds every op's scaled latency and
output digest to the record.

The line before the result is a record of the run: seed, op count, failure
ratio, input-size histogram and the share of ops whose level element
(p, chi, r, prec) already occurred earlier in the run.  The exit code is 1 when
any op raised or failed its check, 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 9
# Times are reported at the host speed where one calibration kernel takes
# this long (about the uncontended speed of a 2-vCPU x86 VM, Python 3.11).
REFERENCE_KERNEL_S = 0.001
# Ops in a traced run: whole rounds (14, 20 and 21 ops), about 18 s of ops on
# a 2-vCPU x86 VM, Python 3.11.
TRACE_OPS = {"interp_grid": 8 * 14, "three_way": 5 * 20, "lambda_tower": 14 * 21}


def calibration_kernel() -> float:
    """Seconds taken by a fixed pure-Python load shaped like the library's.

    Shared hosts slow a process by tens of percent for seconds at a time, so
    each op's latency is divided by the kernel time measured next to it.
    """
    t0 = time.perf_counter()
    x = Fraction(1)
    acc = {}
    for a in range(1, 120):
        x = x * Fraction(a + 1, a) + Fraction(1, a * a + 1)
        k = a * 7919 % 61
        acc[k] = acc.get(k, 0) + pow(a, 65537, 10**40 + 121)
    return time.perf_counter() - t0


def measure(workload: str, seed: int, seconds: float | None, n_ops: int | None,
            tracer=None, per_op: bool = False) -> dict:
    """Run ops of one workload until the time or the op budget is spent.

    per_op adds every op's scaled latency and output digest to the record."""
    import random

    import workloads

    stream = workloads.WORKLOADS[workload](random.Random(seed))
    pending = deque(next(stream))
    intervals = []
    normalized = []  # latency at the reference host speed
    failed = 0
    sizes = Counter()
    seen_levels = set()
    repeats = 0
    out_digests = []
    clock = time.perf_counter
    begin = clock()
    kernel_before = calibration_kernel()
    while (len(intervals) < n_ops) if n_ops is not None else (clock() - begin < seconds):
        if not pending:
            pending.extend(next(stream))
        op = pending.popleft()
        if tracer is not None:
            tracer.op = len(intervals)
        t0 = clock()
        try:
            out, err = op.run(), None
        except Exception as exc:  # an op that raises is counted, not fatal
            out, err = None, exc
        t1 = clock()
        if tracer is not None:
            tracer.op = -1
        kernel_after = calibration_kernel()
        intervals.append(t1 - t0)
        normalized.append((t1 - t0) * 2 * REFERENCE_KERNEL_S / (kernel_before + kernel_after))
        kernel_before = kernel_after
        sizes[op.size] += 1
        if op.level is not None:
            repeats += op.level in seen_levels
            seen_levels.add(op.level)
        if err is None:
            try:
                ok = bool(op.check(out))
            except Exception as exc:
                ok, err = False, exc
        else:
            ok = False
        if not ok:
            failed += 1
            why = repr(err) if err is not None else "output differs from the reference"
            print(f"FAILED op {len(intervals) - 1} ({op.size}): {why}", file=sys.stderr)
        if per_op:
            out_digests.append(repr(workloads.canonical(out)))
    return {
        "intervals": intervals,
        "normalized": normalized,
        "failed": failed,
        "record": {
            "workload": workload,
            "seed": seed,
            "samples": len(intervals),
            "fail_ratio": failed / len(intervals),
            "level_repeat_share": repeats / len(intervals),
            "sizes": dict(sorted(sizes.items())),
            "unnormalized": latency_metrics(intervals),
            **({"normalized": normalized, "digests": out_digests} if per_op else {}),
        },
    }


def setup_probe(workload: str, seed: int) -> None:
    """Import the library and generate the first round, then report ready."""
    import random

    import workloads

    next(workloads.WORKLOADS[workload](random.Random(seed)))
    print("ready", flush=True)


def _child(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median time from process start to the first op over fresh processes,
    at the reference host speed and as measured."""
    samples, normalized = [], []
    for _ in range(SETUP_SAMPLES):
        kernel_before = calibration_kernel()
        t0 = time.perf_counter()
        proc = _child(["--probe", "--workload", workload, "--seed", str(seed)])
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        kernel = (kernel_before + calibration_kernel()) / 2
        normalized.append(samples[-1] * REFERENCE_KERNEL_S / kernel)
    return statistics.median(normalized), statistics.median(samples)


def untraced_latencies(workload: str, seed: int, n_ops: int) -> list[float]:
    """Normalized latencies of the same ops, untraced, in a fresh process."""
    proc = _child(["--workload", workload, "--seed", str(seed), "--ops", str(n_ops), "--trace", "0"])
    lines = proc.communicate()[0].splitlines()
    if proc.returncode not in (0, 1):  # 1 only reports failed ops
        raise RuntimeError("untraced comparison run failed")
    return json.loads(lines[-2])["record"]["normalized"]


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    """Throughput, median and 90th percentile (statistics.quantiles, exclusive)."""
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms_p50": 1000 * statistics.median(latencies),
        "op_ms_p90": 1000 * statistics.quantiles(latencies, n=10)[8],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["interp_grid", "three_way", "lambda_tower"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--ops", type=int, default=None, help="run exactly this many ops instead")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "iwasawa", "__init__.py")):
        print(f"error: the iwasawa sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.probe:
        setup_probe(args.workload, args.seed)
        return 0

    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        n_ops = args.ops or TRACE_OPS[args.workload]
    else:
        tracer, n_ops = None, args.ops
        setup = setup_seconds(args.workload, args.seed) if args.ops is None else None

    run = measure(args.workload, args.seed, args.seconds, n_ops, tracer, args.ops is not None)
    intervals, record = run["intervals"], run["record"]
    if tracer is None:
        units = {"ops_per_s": "ops/s", "op_ms_p50": "ms", "op_ms_p90": "ms"}
        metrics = {k: (v, units[k]) for k, v in latency_metrics(run["normalized"]).items()}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        if setup is not None:
            metrics["setup_s"] = (setup[0], "s")
            record["unnormalized"]["setup_s"] = setup[1]
    else:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.tsv"))
        layer = tracer.layer_metrics(sum(intervals))
        layer["group_algebra.level_repeat_share"] = record["level_repeat_share"]
        untraced = untraced_latencies(args.workload, args.seed, len(intervals))
        layer["trace.overhead"] = statistics.median(
            t / u for t, u in zip(run["normalized"], untraced)) - 1
        metrics = {name: (layer[name], unit) for name, unit in spans.PER_LAYER}

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": len(intervals),
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if run["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
