#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each workload named, from the
repository root, and prints for every end-to-end metric the median of
the per-run values and their spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median,
beside the metric's bound from BENCHMARK.json.

    python3 clinbench/spread.py --seeds 1-10 stream-update
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    for name in names:
        values = {}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{name} seed {seed}: correct=false {res}", file=sys.stderr)
            for m, v in res["metrics"].items():
                values.setdefault(m, []).append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in sorted(res["metrics"].items())), flush=True)
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:20s} {m['name']:16s} median {med:12.5g}  spread {spread:7.4f}  bound {m['bound']}")


if __name__ == "__main__":
    main()
