#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the benchmark's
driver measures it: N untraced runs per workload, each with another
--seed; per metric the median and the distance between the first and the
third quartile (statistics.quantiles(values, n=4)) as a share of the
median. A spread must stay within the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--out bench/out/spread.json]

The command, workloads, metrics and bounds are read from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", default="bench/out/spread.json")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        contract = json.load(f)
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    record = {"runs": args.runs, "first_seed": args.first_seed, "workloads": {}}
    within = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        started = time.time()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = contract["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(contract["run_seconds"]), "--trace", "0",
            ]  # fmt: skip
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
            line = json.loads(done.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"] != 0:
                sys.exit(f"{workload} seed {seed}: {line['failed']} failed of {line['attempted']}")
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
        summary = {}
        print(f"{workload}: {args.runs} runs in {time.time() - started:.0f} s")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            # setup_s is gated on its median only, not on its spread.
            ok = name == "setup_s" or spread <= bounds[name]
            within &= ok
            summary[name] = {"median": median, "spread": spread, "values": series}
            flag = "" if ok else "  <-- wider than the bound"
            print(f"  {name:<22} median {median:>14.4f}  spread {spread:7.4f}  bound {bounds[name]}{flag}")
        record["workloads"][workload] = summary
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")
    sys.exit(0 if within else 1)


if __name__ == "__main__":
    main()
