#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's median and its spread: the distance between the first and third
quartile, as a share of the median, next to a third of the metric's bound
from BENCHMARK.json.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1] [--seconds N]

Run from the repository root. Records go to .bench_build/spread/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    out_dir = os.path.join(".bench_build", "spread")
    os.makedirs(out_dir, exist_ok=True)
    ok = True
    for wl in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            rec = os.path.join(out_dir, f"{wl}-{seed}.json")
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            res = subprocess.run(cmd + ["--out", rec], capture_output=True, text=True)
            if res.returncode != 0:
                sys.stderr.write(res.stderr)
                print(f"{wl} seed {seed}: exit {res.returncode}")
                ok = False
                continue
            line = json.loads(res.stdout.strip().splitlines()[-1])
            for name in values:
                values[name].append(line["metrics"][name]["value"])
        for m in bench["end_to_end"]:
            vs = values[m["name"]]
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = m["bound"] / 3
            flag = "" if m["name"] == "setup_s" or spread < limit else "  <-- above a third of the bound"
            print(f"{wl:15s} {m['name']:22s} median {med:12.6g}  spread {spread:6.3f}  bound/3 {limit:5.3f}{flag}")
            sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
