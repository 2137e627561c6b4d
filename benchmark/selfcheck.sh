#!/usr/bin/env bash
# A/A self-check: runs the whole benchmark twice on the same commit and
# compares the two sets.
#
#   benchmark/selfcheck.sh [RUNS_PER_SET]        (default 3; 10 gives the
#                                                 spreads the driver takes)
#
# Each set makes RUNS_PER_SET untraced runs of every workload, alternating
# workloads, run i with --seed i in both sets. For every end-to-end metric
# it prints the two medians, how much worse the second is than the first as
# a share of the first, the bound from BENCHMARK.json, and (from 4 runs per
# set up) the spread of the first set: inter-quartile range over median.
# One traced run per workload then gives the tracing overhead, from
# bench.qps_traced against the untraced qps. Exits 1 if any difference
# exceeds its bound, if q-error, model_bytes or failure counts do not
# repeat exactly, or if a run is incorrect.
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-3}"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/iam-benchmark"

exec python3 - "$bin" "$runs" <<'PY'
import json, statistics, subprocess, sys, time

bin_path, runs = sys.argv[1], int(sys.argv[2])
manifest = json.load(open("BENCHMARK.json"))
seconds = manifest["run_seconds"]
workloads = [w["name"] for w in manifest["workloads"]]
end_to_end = manifest["end_to_end"]
exact = {"qerror_p50", "qerror_p95", "qerror_p99", "model_bytes"}

def run(workload, seed, trace):
    out = subprocess.run(
        [bin_path, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}

started = time.time()
sets = []
for label in "AB":
    got = {w: [] for w in workloads}
    for seed in range(1, runs + 1):
        for w in workloads:
            got[w].append(run(w, seed, 0))
            print(f"set {label} seed {seed} {w}: qps {got[w][-1]['qps']:.1f}", file=sys.stderr)
    sets.append(got)
untraced_wall = time.time() - started

def worse(metric, a, b):
    """How much worse b is than a, as a share of a (negative: better)."""
    return (b - a) / a if metric["better"] == "lower" else (a - b) / a

failed = False
print(f"\n{'workload':<16}{'metric':<18}{'median A':>14}{'median B':>14}"
      f"{'B worse by':>12}{'bound':>8}{'spread A':>10}")
for w in workloads:
    for metric in end_to_end:
        name = metric["name"]
        a = [r[name] for r in sets[0][w]]
        b = [r[name] for r in sets[1][w]]
        ma, mb = statistics.median(a), statistics.median(b)
        diff = worse(metric, ma, mb)
        spread = ""
        if len(a) >= 4:
            q = statistics.quantiles(a, n=4)
            spread = f"{(q[2] - q[0]) / ma:10.4f}"
        verdict = ""
        if diff > metric["bound"]:
            verdict, failed = "  EXCEEDS BOUND", True
        if name in exact and len(set(a + b)) != 1:
            verdict, failed = "  DOES NOT REPEAT", True
        print(f"{w:<16}{name:<18}{ma:14.4f}{mb:14.4f}{diff:12.4f}"
              f"{metric['bound']:8.2f}{spread:>10}{verdict}")

print(f"\n{'workload':<16}{'qps untraced':>14}{'qps traced':>14}{'overhead':>10}")
started = time.time()
for w in workloads:
    traced = run(w, 1, 1)
    untraced = statistics.median(r["qps"] for r in sets[0][w] + sets[1][w])
    print(f"{w:<16}{untraced:14.1f}{traced['bench.qps_traced']:14.1f}"
          f"{1 - traced['bench.qps_traced'] / untraced:10.4f}")
print(f"\nwall time: {2 * runs * len(workloads)} untraced runs {untraced_wall:.0f} s, "
      f"{len(workloads)} traced runs {time.time() - started:.0f} s")
sys.exit(1 if failed else 0)
PY
