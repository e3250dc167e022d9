#!/usr/bin/env python3
"""Benchmark of fair-topk: one workload per run, one client, one operation
in flight at a time (a closed loop).

    python3 bench/run.py --workload rank-csv-1m --seed 1 --seconds 20 --trace 0

Inputs are generated from --seed.  The set-up runs three times and its median
is setup_s.  Then whole rounds of operations run until --seconds have passed,
and every output is checked against bench/oracles.py.  The last line of
stdout is one JSON object: correct, attempted, failed, and the end-to-end
metrics (--trace 0) or the per-layer metrics from spans (--trace 1), named
and with units as in BENCHMARK.json.  A summary goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fair_topk" / "__init__.py").is_file():
        print(f"error: no fair_topk package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    from workloads import OVER_ALPHA, WORKLOADS

    workload = WORKLOADS[args.workload]()
    directory = HERE / "work" / args.workload
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)

    setup_times, state = [], None
    for _ in range(SETUP_REPEATS):
        state = None  # so two copies of a 10^6 pool never coexist
        started = time.perf_counter()
        state = workload.setup(args.seed, directory)
        setup_times.append(time.perf_counter() - started)

    recorder = None
    if args.trace:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()

    outputs, latencies = [], []
    started = time.perf_counter()
    while True:
        for step in range(workload.round_size):
            op_started = time.perf_counter()
            outputs.append(workload.run(state, step, len(outputs), recorder))
            latencies.append(time.perf_counter() - op_started)
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds:
            break

    if workload.in_process:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak_rss_mb = max(o.peak_rss_mb for o in outputs)

    finished = [o for o in outputs if o.failure is None]
    problems = [[o.failure] for o in outputs if o.failure is not None]
    if finished:
        problems += workload.check(state, finished)
    failed = sum(1 for found in problems if found)
    correct = all(p.startswith(OVER_ALPHA) for found in problems for p in found)

    if recorder is None:
        values = {
            "throughput": len(outputs) / elapsed,
            "latency_p50_s": statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        wanted = spec["end_to_end"]
    else:
        values = recorder.per_operation([m["name"] for m in spec["per_layer"]], len(outputs))
        recorder.write(directory / "spans.csv")
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    shown = sorted({p for found in problems for p in found})
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(outputs)} operations "
        f"in {elapsed:.2f} s, latency p50 {statistics.median(latencies):.4f} s, "
        f"{failed} failed; setup {', '.join(f'{t:.3f}' for t in setup_times)} s",
        file=sys.stderr,
    )
    for problem in shown:
        print(f"  {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
