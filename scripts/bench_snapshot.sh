#!/usr/bin/env bash
# Captures a machine-readable perf snapshot of the kernel benches and
# the planning-daemon latency bench.
#
# Usage: scripts/bench_snapshot.sh [output-dir]
#
# Writes BENCH_partition.json, BENCH_gauss.json, and BENCH_serve.json
# (min/median/p95/p99/mean ns per case) to the output dir (default:
# repo root). Set BENCH_BUDGET_MS to change the per-case budget
# (default 300; CI smoke uses 20).
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-.}"
budget="${BENCH_BUDGET_MS:-300}"
mkdir -p "$out"
# Cargo runs bench binaries with the package directory as cwd; hand the
# harness an absolute path so snapshots land where the caller asked.
out="$(cd "$out" && pwd)"

cargo build --release -p xhc-bench --benches

cargo bench -q -p xhc-bench --bench partition_engine -- \
  --budget-ms "$budget" --json "$out/BENCH_partition.json"
cargo bench -q -p xhc-bench --bench gauss_elimination -- \
  --budget-ms "$budget" --json "$out/BENCH_gauss.json"
cargo bench -q -p xhc-bench --bench serve_latency -- \
  --budget-ms "$budget" --json "$out/BENCH_serve.json"

echo "snapshots written to $out/BENCH_{partition,gauss,serve}.json"
