#!/usr/bin/env bash
# Load smoke for the planning daemon: a short planbench `serve_hot` run,
# open-loop traffic against an out-of-process `xhybrid serve`. The run
# fails on any response that is not byte-identical to the offline
# engine's plan; this script also fails on any failed operation.
#
# Usage: scripts/serve_load_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
result="$(python3 planbench/run.py --workload serve_hot --seed 1 --seconds 3 --trace 0 | tail -n 1)"
python3 - "$result" <<'PY'
import json, sys
r = json.loads(sys.argv[1])
print(f"[load-smoke] {r['attempted']} ops, {r['failed']} failed, correct={r['correct']}")
sys.exit(0 if r["correct"] and r["failed"] == 0 else 1)
PY
echo "[load-smoke] ok"
