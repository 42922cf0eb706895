#!/usr/bin/env bash
# Repeatability check, the way the benchmark's driver takes it: two sets
# of N runs per workload (one process per run, a new --seed each time,
# BENCHMARK.json's run_seconds, tracing off). For every workload x
# end-to-end metric it prints both set medians, their relative difference,
# each set's quartile spread as a share of its median, and the metric's
# bound. Exits non-zero if a difference or a spread exceeds its bound, if
# any run reports a failed op, or if BENCHMARK.json is not what
# `--manifest` prints. A spread above a third of the bound is marked
# "wide": a difference that small between two commits is unresolved.
#
#   e2e_bench/repeat.sh [N=5] [workload ...]      (from the repository root)
set -euo pipefail

N="${1:-5}"
shift || true
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-e2e_bench/target}"
cargo build --release --quiet --manifest-path e2e_bench/Cargo.toml

# BENCHMARK.json is generated from the tables the result line is built
# from; the committed file must not drift from them.
cargo run --release --quiet --manifest-path e2e_bench/Cargo.toml -- --manifest |
    cmp - BENCHMARK.json || { echo "BENCHMARK.json differs from 'e2e_bench --manifest'" >&2; exit 1; }

exec python3 - "$N" "$@" <<'EOF'
import json, statistics, subprocess, sys

n, only = int(sys.argv[1]), sys.argv[2:]
manifest = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in manifest["workloads"] if not only or w["name"] in only]
command = manifest["command"]
seconds = str(manifest["run_seconds"])

def run(workload, seed):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}, {result['failed']} failed ops")
    return {k: v["value"] for k, v in result["metrics"].items()}

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

print(f"two sets of {n} runs, {seconds} s each; every metric is better lower")
print(f"{'workload':<20}{'metric':<15}{'median A':>13}{'median B':>13}{'B vs A':>9}"
      f"{'spread A':>10}{'spread B':>10}{'bound':>7}")
bad, seed = 0, 0
for w in workloads:
    sets = []
    for _ in range(2):
        runs = []
        for _ in range(n):
            seed += 1
            runs.append(run(w, seed))
        sets.append(runs)
    for m in manifest["end_to_end"]:
        a, b = ([r[m["name"]] for r in s] for s in sets)
        ma, mb = statistics.median(a), statistics.median(b)
        diff, sa, sb = (mb - ma) / ma, spread(a), spread(b)
        # As the driver: the spread of setup_s is reported, not gated.
        gated = m["name"] != "setup_s"
        miss = abs(diff) > m["bound"] or (gated and max(sa, sb) > m["bound"])
        bad += miss
        mark = "  MISS" if miss else "  wide" if max(sa, sb) > m["bound"] / 3 else ""
        print(f"{w:<20}{m['name']:<15}{ma:>13.6g}{mb:>13.6g}{diff:>+9.2%}"
              f"{sa:>10.2%}{sb:>10.2%}{m['bound']:>7.0%}{mark}", flush=True)
print("repeatability:", "FAILED" if bad else "ok")
sys.exit(1 if bad else 0)
EOF
