#!/usr/bin/env bash
# End-to-end smoke test of the tracing layer: generate a scaled CKT-A
# workload, run `xhybrid plan --trace`, and assert the chrome://tracing
# export parses as JSON and contains the engine spans the DESIGN doc
# promises (partition.round, gauss.eliminate) plus the cancel counters
# and the packed-kernel counters (xbm.superset_calls per candidate sweep,
# xbm.lane_words from the unrolled sweep, xbm.shards from the
# intra-candidate sharded path — scale 10 keeps the active-cell pool
# above the engine's minimum shard size, and --threads 4 makes the pool
# wide enough that the seed evaluation shards its sweep).
#
# Usage: scripts/trace_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d "${TMPDIR:-/tmp}/xhc-trace-smoke.XXXXXX")"
cleanup() { rm -rf "$work"; }
trap cleanup EXIT

cargo build -q --release --bin xhybrid
xhybrid=target/release/xhybrid

"$xhybrid" gen --profile ckt-a --scale 10 --out "$work/ckta.xmap"
"$xhybrid" plan "$work/ckta.xmap" --strategy best-cost --threads 4 \
  --trace "$work/trace.json" | tee "$work/plan.txt"
grep -q '^partitions' "$work/plan.txt"

python3 - "$work/trace.json" <<'EOF'
import json, sys

events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "trace export is not a non-empty JSON array"

spans = {}
counters = {}
for e in events:
    assert e["ph"] in ("X", "C"), e
    if e["ph"] == "X":
        assert isinstance(e["ts"], (int, float)) and e["dur"] >= 0, e
        spans[e["name"]] = spans.get(e["name"], 0) + 1
    else:
        counters[e["name"]] = e["args"]["value"]

for name in ("partition.run", "partition.round", "gauss.eliminate", "cancel.block"):
    assert spans.get(name, 0) >= 1, (name, spans)
for name in ("cancel.halts", "cancel.x_total"):
    assert name in counters, (name, counters)

# Packed-kernel counters: the sweep reports its call count and its
# full-lane word coverage, and the intra-candidate sharded path its
# shard fan-out.
for name in ("xbm.superset_calls", "xbm.lane_words", "xbm.shards"):
    assert counters.get(name, 0) > 0, (name, counters)

rounds = [e for e in events if e["ph"] == "X" and e["name"] == "partition.round"]
assert all("round" in e["args"] for e in rounds), rounds
print(f"trace smoke OK: {sum(spans.values())} spans "
      f"({spans.get('partition.round')} rounds), counters {sorted(counters)}")
EOF
