#!/usr/bin/env bash
# Regression gate over the committed kernel bench snapshots.
#
# Reruns the partition and gauss benches and fails if any case's median
# regresses by more than BENCH_GATE_TOLERANCE_PCT percent (default 30 —
# tolerant of CI noise, still catches order-of-magnitude slips) against
# the committed BENCH_partition.json / BENCH_gauss.json. Cases present
# on only one side (added or retired benches) are reported and skipped.
#
# BENCH_GATE_INJECT_SLOWDOWN (a multiplier, default 1) scales the fresh
# medians before comparison; CI runs the gate a second time with 2 to
# prove it really fails on a 2x slip.
#
# The serve_latency bench is also rerun and its tail gated: each case's
# p99 may regress at most SERVE_P99_TOLERANCE_PCT percent (default 150 —
# p99 over a loopback daemon is far noisier than a kernel median)
# against the committed BENCH_serve.json. Cases present on only one
# side are reported and skipped.
#
# On top of the relative gate, the full-size CKT-A BestCost case must
# finish under a wall-clock budget that does not move with
# BENCH_GATE_TOLERANCE_PCT: FULL_CKT_A_BUDGET_NS, by default twice the
# committed strategy/best_cost_full_ckt_a median in BENCH_partition.json.
#
# Usage: scripts/bench_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."
budget="${BENCH_BUDGET_MS:-300}"
tol="${BENCH_GATE_TOLERANCE_PCT:-30}"
inject="${BENCH_GATE_INJECT_SLOWDOWN:-1}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cargo build --release -p xhc-bench --benches

cargo bench -q -p xhc-bench --bench partition_engine -- \
  --budget-ms "$budget" --json "$tmp/BENCH_partition.json"
cargo bench -q -p xhc-bench --bench gauss_elimination -- \
  --budget-ms "$budget" --json "$tmp/BENCH_gauss.json"
cargo bench -q -p xhc-bench --bench serve_latency -- \
  --budget-ms "$budget" --json "$tmp/BENCH_serve.json"

python3 - "$tol" "$inject" "$tmp" <<'EOF'
import json, sys

tol = float(sys.argv[1])
inject = float(sys.argv[2])
tmp = sys.argv[3]
failed = False
for name in ("partition", "gauss"):
    committed = {c["name"]: c for c in json.load(open(f"BENCH_{name}.json"))["cases"]}
    fresh = {c["name"]: c for c in json.load(open(f"{tmp}/BENCH_{name}.json"))["cases"]}
    for case, ref in sorted(committed.items()):
        if case not in fresh:
            print(f"[gate] {name}/{case}: missing from fresh run (skipped)")
            continue
        base = ref["median_ns"]
        now = fresh[case]["median_ns"] * inject
        limit = base * (1 + tol / 100.0)
        ratio = now / base if base else float("inf")
        verdict = "FAIL" if now > limit else "ok"
        print(f"[gate] {name}/{case}: committed {base} ns, fresh {now:.0f} ns "
              f"({ratio:.2f}x) [{verdict}]")
        if now > limit:
            failed = True
    for case in sorted(set(fresh) - set(committed)):
        print(f"[gate] {name}/{case}: new case, no committed baseline (skipped)")
if failed:
    print(f"[gate] FAILED: at least one median regressed more than {tol}% "
          f"vs the committed snapshot")
    sys.exit(1)
print(f"[gate] ok: no median regressed more than {tol}%")
EOF

python3 - "${SERVE_P99_TOLERANCE_PCT:-150}" "$inject" "$tmp" <<'EOF'
import json, sys

tol = float(sys.argv[1])
inject = float(sys.argv[2])
tmp = sys.argv[3]
failed = False
committed = {c["name"]: c for c in json.load(open("BENCH_serve.json"))["cases"]}
fresh = {c["name"]: c for c in json.load(open(f"{tmp}/BENCH_serve.json"))["cases"]}
for case, ref in sorted(committed.items()):
    if case not in fresh:
        print(f"[gate] serve/{case}: missing from fresh run (skipped)")
        continue
    base = ref["p99_ns"]
    now = fresh[case]["p99_ns"] * inject
    limit = base * (1 + tol / 100.0)
    ratio = now / base if base else float("inf")
    verdict = "FAIL" if now > limit else "ok"
    print(f"[gate] serve/{case}: committed p99 {base} ns, fresh {now:.0f} ns "
          f"({ratio:.2f}x) [{verdict}]")
    if now > limit:
        failed = True
for case in sorted(set(fresh) - set(committed)):
    print(f"[gate] serve/{case}: new case, no committed baseline (skipped)")
if failed:
    print(f"[gate] FAILED: a serve p99 regressed more than {tol}% "
          f"vs the committed snapshot")
    sys.exit(1)
print(f"[gate] ok: no serve p99 regressed more than {tol}%")
EOF

python3 - "$tmp" "${FULL_CKT_A_BUDGET_NS:-}" "$inject" <<'EOF'
import json, sys

def cases(path):
    return {c["name"]: c for c in json.load(open(path))["cases"]}

name = "strategy/best_cost_full_ckt_a"
fresh = cases(f"{sys.argv[1]}/BENCH_partition.json")
budget = (int(sys.argv[2]) if sys.argv[2]
          else 2 * cases("BENCH_partition.json")[name]["median_ns"])
case = fresh.get(name)
if case is None:
    print(f"[gate] FAILED: {name} missing from fresh run")
    sys.exit(1)
med = case["median_ns"] * float(sys.argv[3])
verdict = "FAIL" if med > budget else "ok"
print(f"[gate] full ckt-a budget: median {med:.0f} ns vs budget {budget} ns [{verdict}]")
if med > budget:
    print("[gate] FAILED: full CKT-A BestCost exceeded its wall-clock budget")
    sys.exit(1)
EOF
