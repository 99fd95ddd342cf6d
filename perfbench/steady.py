#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs every workload of BENCHMARK.json once per seed and prints, for each
end-to-end metric, the spread of its values: the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median,
beside the metric's bound. A spread at or under a third of the bound is
steady; `setup_s` is exempt. It then reruns the first seed of each workload,
untraced and traced, and checks that the deterministic metrics (accuracy,
ratios of counts, and every count) repeat exactly.

    python3 perfbench/steady.py --seeds 10
    python3 perfbench/steady.py --seeds 5 --workload queue_mix

Run it from the root of the repository. Exits 1 if a spread exceeds its
bound or a deterministic metric differs.
"""

import argparse
import json
import statistics
import subprocess
import sys

# End-to-end metrics that are a function of the seed alone.
DETERMINISTIC_E2E = {"err_mae_ms", "err_p95_ms", "ok_ratio"}
# Per-layer values that are a function of the seed alone: simulated time,
# accuracy, and ratios of counts.
DETERMINISTIC_LAYER = {
    "core.accept_ratio",
    "cluster.outlier_ratio",
    "governor.deadline_miss_ratio",
    "governor.time_in_switch_ms",
    "predict.mae_ms",
    "predict.mape",
    "core.worst_err_ms",
    "sim.device_s",
}
# Counts that depend on thread timing, not on the seed.
TIMING_COUNTS = {"telemetry.dropped_events"}


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} reported an incorrect result")
    return result["metrics"]


def deterministic(name, unit):
    if name in TIMING_COUNTS:
        return False
    return name in DETERMINISTIC_E2E or name in DETERMINISTIC_LAYER or unit in ("count", "bytes")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    ok = True
    for w in workloads:
        runs = [run(bench, w, s, 0) for s in seeds]
        print(f"== {w}: seeds {seeds.start}..{seeds.stop - 1}")
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            median = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
            spread = (q[2] - q[0]) / median
            verdict = "steady" if spread <= bound / 3 else "WIDE"
            if name == "setup_s":
                verdict = "exempt"
            elif spread > bound:
                verdict, ok = "OVER BOUND", False
            print(f"  {name:14} median {median:<12.6g} spread {spread:7.4f} bound {bound:5.2f}  {verdict}")
        repeat = True
        for trace in (0, 1):
            a, b = run(bench, w, seeds.start, trace), run(bench, w, seeds.start, trace)
            for name, m in a.items():
                if deterministic(name, m["unit"]) and m["value"] != b[name]["value"]:
                    print(f"  NOT DETERMINISTIC: {name} {m['value']} vs {b[name]['value']}")
                    repeat = False
        print(f"  deterministic metrics repeat exactly: {'yes' if repeat else 'NO'}")
        ok = ok and repeat
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
