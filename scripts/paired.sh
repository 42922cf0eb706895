#!/usr/bin/env bash
# Paired parent/change comparison on one BENCHMARK.json workload, judged
# the way the benchmark's driver judges a change. Builds e2e_bench twice,
# each with its own target directory: from a `git archive` export of
# <parent-rev> in a temporary directory, and from the working tree. Then
# runs BENCHMARK.json's command `pairs` times on each side (one process
# per run, --seed <seed>, run_seconds, tracing off), alternating which
# side goes first, and prints every run.
#
# For every end-to-end metric it prints each side's median and quartiles,
# the change's wins out of all pairs (ties count for neither), the
# parent's quartile spread as a share of its median, and a verdict:
#   improved    the change wins >= 9/10 of the pairs and the medians
#               differ by more than the parent's quartile spread
#   worse       the change's median is worse by more than the metric's
#               BENCHMARK.json bound
#   unresolved  the parent's spread is wider than the bound
#   unchanged   otherwise
# Exits non-zero if any run fails an op or a metric is `worse`.
#
#   scripts/paired.sh <parent-rev> <workload> [pairs=10] [seed=1]
#
# The working tree builds into $CARGO_TARGET_DIR (default
# e2e_bench/target, as e2e_bench/repeat.sh); the parent into the
# temporary directory, which is removed on exit.
set -euo pipefail

usage="usage: scripts/paired.sh <parent-rev> <workload> [pairs=10] [seed=1]"
PARENT="${1:?$usage}"
WORKLOAD="${2:?$usage}"
PAIRS="${3:-10}"
SEED="${4:-1}"
cd "$(dirname "$0")/.."
REV="$(git rev-parse --verify "$PARENT^{commit}")"
CHANGE_TARGET="$(realpath -m "${CARGO_TARGET_DIR:-e2e_bench/target}")"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/src"
git archive "$REV" | tar -x -C "$TMP/src"
echo "building e2e_bench at ${REV:0:12} and at the working tree" >&2
CARGO_TARGET_DIR="$TMP/target" cargo build --release --quiet \
    --manifest-path "$TMP/src/e2e_bench/Cargo.toml"
CARGO_TARGET_DIR="$CHANGE_TARGET" cargo build --release --quiet \
    --manifest-path e2e_bench/Cargo.toml

# Not `exec`: the shell must outlive python for the EXIT trap to remove
# $TMP (the parent's export and its e2e_bench build).
status=0
python3 - "$TMP/src" "$TMP/target" "$CHANGE_TARGET" "$WORKLOAD" "$PAIRS" "$SEED" <<'EOF' || status=$?
import json, os, statistics, subprocess, sys

parent_dir, parent_target, change_target, workload, pairs, seed = sys.argv[1:]
pairs = int(pairs)
if pairs < 2:
    sys.exit("paired.sh: quartiles need at least 2 pairs")
manifest = json.load(open("BENCHMARK.json"))
if workload not in [w["name"] for w in manifest["workloads"]]:
    sys.exit(f"paired.sh: no workload '{workload}' in BENCHMARK.json")
metrics = manifest["end_to_end"]
command = manifest["command"] + [
    "--workload", workload, "--seed", seed, "--seconds", str(manifest["run_seconds"]),
    "--trace", "0"]
sides = {"parent": (parent_dir, parent_target), "change": (".", change_target)}

def run(side):
    cwd, target = sides[side]
    out = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                         env={**os.environ, "CARGO_TARGET_DIR": target})
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"{side}: no result line (exit {out.returncode})\n{out.stderr[-2000:]}")
    failed = out.returncode != 0 or not result["correct"] or result["failed"] > 0
    return {k: v["value"] for k, v in result["metrics"].items()}, failed

runs = {"parent": [], "change": []}
failures = 0
print(f"{workload}: {pairs} pairs, seed {seed}, {manifest['run_seconds']} s per run")
for i in range(pairs):
    for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
        values, failed = run(side)
        failures += failed
        runs[side].append(values)
        shown = "  ".join(f"{m['name']} {values[m['name']]:.6g}" for m in metrics)
        print(f"  pair {i + 1:>2} {side:<6}  {shown}{'  FAILED' if failed else ''}", flush=True)

def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]

print(f"{'metric':<15}{'parent p50 [Q1-Q3]':>32}{'change p50 [Q1-Q3]':>32}"
      f"{'change':>9}{'wins':>7}{'spread':>8}{'bound':>7}  verdict")
worse = 0
for m in metrics:
    name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
    p = [r[name] for r in runs["parent"]]
    c = [r[name] for r in runs["change"]]
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(better(b, a) for a, b in zip(p, c))
    rel = (cm - pm) / pm if pm else (0.0 if cm == pm else float("inf"))
    spread = (p3 - p1) / pm if pm else 0.0
    if wins >= 0.9 * pairs and better(cm, pm) and abs(cm - pm) > p3 - p1:
        verdict = "improved"
    elif (rel if lower else -rel) > bound:
        verdict = "worse"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    worse += verdict == "worse"
    print(f"{name:<15}{f'{pm:.4g} [{p1:.4g}-{p3:.4g}]':>32}{f'{cm:.4g} [{c1:.4g}-{c3:.4g}]':>32}"
          f"{rel:>+9.2%}{f'{wins}/{pairs}':>7}{spread:>8.1%}{bound:>7.0%}  {verdict}")
print(f"failed runs: {failures}")
sys.exit(1 if failures or worse else 0)
EOF
exit "$status"
