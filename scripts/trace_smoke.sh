#!/usr/bin/env bash
# End-to-end smoke test of the tracing layer: generate a scaled CKT-A
# workload, run `xhybrid plan --trace`, and assert the chrome://tracing
# export parses as JSON and contains the engine spans the DESIGN doc
# promises (partition.run, partition.round) plus the packed-kernel
# counters (xbm.superset_calls per candidate sweep,
# xbm.lane_words from the unrolled sweep). Then it plans full CKT-B and
# CKT-C and asserts BestCost prices each partition's candidates once (at
# most 4,300 and 6,600 `partition.candidates`) and that the
# intra-candidate sharded path reports its fan-out (xbm.shards): the
# engine shards only sweeps of at least 2^16 word tests per shard, which
# the full maps have and the scaled one does not, and --threads 4 makes
# the pool wide enough for a seed evaluation to shard.
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

# `plan` runs no cancel session; crates/misr/tests/session_trace.rs
# pins the session's cancel.block/gauss.eliminate spans and counters.
for name in ("partition.run", "partition.round"):
    assert spans.get(name, 0) >= 1, (name, spans)

# Packed-kernel counters: the sweep reports its call count and its
# full-lane word coverage.
for name in ("xbm.superset_calls", "xbm.lane_words"):
    assert counters.get(name, 0) > 0, (name, counters)

rounds = [e for e in events if e["ph"] == "X" and e["name"] == "partition.round"]
assert all("round" in e["args"] for e in rounds), rounds
print(f"trace smoke OK: {sum(spans.values())} spans "
      f"({spans.get('partition.round')} rounds), counters {sorted(counters)}")
EOF

# Full-size BestCost: candidates are counts, so no host can move them.
for bound in ckt-b:4300 ckt-c:6600; do
  profile="${bound%%:*}"
  "$xhybrid" plan --profile "$profile" --strategy best-cost --threads 4 \
    --trace "$work/$profile.json" > /dev/null 2>&1
  python3 - "$work/$profile.json" "$profile" "${bound##*:}" <<'EOF'
import json, sys

path, profile, bound = sys.argv[1], sys.argv[2], int(sys.argv[3])
counters = {e["name"]: e["args"]["value"] for e in json.load(open(path)) if e["ph"] == "C"}
candidates = counters.get("partition.candidates", 0)
assert 0 < candidates <= bound, (profile, candidates, bound)
assert counters.get("xbm.shards", 0) > 0, (profile, counters)
print(f"trace smoke OK: full {profile} priced {candidates} candidates (<= {bound}), "
      f"pruned {counters.get('partition.pruned', 0)}, {counters['xbm.shards']} shards")
EOF
done
