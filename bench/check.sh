#!/usr/bin/env bash
# Smoke check of the benchmark: every workload, untraced and traced, with
# a measured phase of 3 s; validates the result files' schema, asserts that nothing
# failed and that the ladder identity holds. Under 60 s once built.
# Ready to be wired into .github/workflows/ci.yml by a later change (that
# file is outside this package).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
mkdir -p bench/out
started=$(date +%s)
for workload in $(cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- --list |
    awk '$1 == "workload" { print $2 }'); do
    cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
        --workload "$workload" --seconds 3 >"bench/out/check-$workload.log" ||
        { tail -n 20 "bench/out/check-$workload.log"; echo "check: $workload failed" >&2; exit 1; }
done
elapsed=$(($(date +%s) - started))

python3 - <<'EOF'
import json, sys

contract = json.load(open("BENCHMARK.json"))
end_to_end = {m["name"]: m["unit"] for m in contract["end_to_end"]}
per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}


def need(condition, message):
    if not condition:
        sys.exit(f"check: {message}")


for workload in (w["name"] for w in contract["workloads"]):
    result = json.load(open(f"bench/out/{workload}.json"))
    line = json.loads(open(f"bench/out/check-{workload}.log").read().strip().splitlines()[-1])
    need(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result line keys")
    need(line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1,
         f"{workload}: {line['failed']} of {line['attempted']} failed")
    need(set(line["metrics"]) == set(end_to_end) | set(per_layer), f"{workload}: metric names")
    for section, units in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        metrics = result[section]["metrics"]
        need(list(metrics) == list(units), f"{workload}: {section} names or order")
        for name, unit in units.items():
            value = metrics[name]
            need(value["unit"] == unit, f"{workload}: {name} unit {value['unit']}")
            need(isinstance(value["value"], (int, float)), f"{workload}: {name} is not a number")
    need(all(result["end_to_end"]["metrics"][m]["value"] > 0 for m in end_to_end),
         f"{workload}: an end-to-end metric is 0")
    for section in ("end_to_end",):
        detail = result[section]
        need(detail["failed_share"] == 0, f"{workload}: failed_share {detail['failed_share']}")
        need(detail["exact_counts_consistent"] is True, f"{workload}: exact counts moved")
        need(len(detail["window_tokens_per_s"]) == result["provenance"]["options"]["windows"],
             f"{workload}: window count")
    need(result["per_layer"]["traced_socket"]["failed_share"] == 0, f"{workload}: traced failures")
    attribution = result["per_layer"]["attribution"]
    need(abs(attribution["identity_residual_us"]) < 1e-6,
         f"{workload}: ladder identity off by {attribution['identity_residual_us']} us")
    provenance = result["provenance"]
    for key in ("host", "commit", "seed", "options"):
        need(key in provenance, f"{workload}: provenance lacks {key}")
    for key in ("nproc", "cpu_model", "rustflags"):
        need(key in provenance["host"], f"{workload}: host fingerprint lacks {key}")
    print(f"check: {workload}: {line['attempted']} requests, 0 failed, ladder identity holds")
EOF
echo "check: all workloads passed in ${elapsed} s"
