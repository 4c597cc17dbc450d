#!/usr/bin/env bash
# End-to-end smoke test of the plan-certificate checker: plan, certify
# and check the demo workload through `xhybrid plan`, re-verify the
# written artifacts independently with `xhybrid verify`, then prove the
# checker actually rejects — a certificate paired with the wrong X map,
# a corrupted certificate file, and a plan for a narrower scan with the
# same pattern count (exit 1 with FAILED; a crash exits 101 and fails
# the script).
# Finally, on a scaled CKT-B workload the verify pass must cost under
# 10% of planning time, in the median of five runs.
#
# Usage: scripts/verify_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d "${TMPDIR:-/tmp}/xhc-verify-smoke.XXXXXX")"
cleanup() { rm -rf "$work"; }
trap cleanup EXIT

cargo build -q --release --bin xhybrid
xhybrid=target/release/xhybrid

# --- plan: plan, certify, self-check, write both artifacts ------------
"$xhybrid" gen --profile demo --out "$work/demo.xmap"
"$xhybrid" plan "$work/demo.xmap" --m 16 --q 3 \
  --plan-out "$work/demo.plan" --cert-out "$work/demo.cert" \
  | tee "$work/fresh.txt"
grep -q '^certificate' "$work/fresh.txt"
[[ -s "$work/demo.plan" && -s "$work/demo.cert" ]]

# --- artifact mode: an independent process re-checks the files -------
"$xhybrid" verify "$work/demo.xmap" \
  --plan "$work/demo.plan" --cert "$work/demo.cert" | tee "$work/re.txt"
grep -q '^verified' "$work/re.txt"

# --- rejection 1: right certificate, wrong X map ---------------------
"$xhybrid" gen --profile ckt-c --scale 8 --out "$work/other.xmap"
if "$xhybrid" verify "$work/other.xmap" \
    --plan "$work/demo.plan" --cert "$work/demo.cert" 2> "$work/err1.txt"; then
  echo "checker accepted a certificate against the wrong X map" >&2
  exit 1
fi
grep -q 'FAILED' "$work/err1.txt" || { cat "$work/err1.txt"; exit 1; }
echo "mismatched X map correctly rejected"

# --- rejection 2: corrupted certificate bytes ------------------------
cp "$work/demo.cert" "$work/bad.cert"
# Flip one byte inside the META payload (past the 8-byte header and the
# section table): either the decoder or the checker must refuse it.
printf '\xff' | dd of="$work/bad.cert" bs=1 seek=40 conv=notrunc status=none
if "$xhybrid" verify "$work/demo.xmap" \
    --plan "$work/demo.plan" --cert "$work/bad.cert" 2> "$work/err2.txt"; then
  echo "checker accepted a corrupted certificate" >&2
  exit 1
fi
echo "corrupted certificate correctly rejected"

# --- rejection 3: same pattern count, narrower scan ------------------
# An 8-cell map (two chains of 4) with the demo's 200 patterns passes
# the pattern-count check, so only the plan-shape check stands between
# its 8-bit masks and the demo map's 1,000 cells.
printf 'xmap v1\nchains 4 4\npatterns 200\nx 0 : 1 2 3\n' > "$work/narrow.xmap"
"$xhybrid" plan "$work/narrow.xmap" \
  --plan-out "$work/narrow.plan" --cert-out "$work/narrow.cert" > /dev/null
status=0
"$xhybrid" verify "$work/demo.xmap" \
  --plan "$work/narrow.plan" --cert "$work/narrow.cert" 2> "$work/err3.txt" || status=$?
if [[ $status -ne 1 ]]; then
  echo "narrower-scan plan: exit $status, expected 1" >&2
  cat "$work/err3.txt" >&2
  exit 1
fi
grep -q 'FAILED' "$work/err3.txt" || { cat "$work/err3.txt"; exit 1; }
echo "narrower-scan plan correctly rejected"

# --- overhead bound on a scaled paper workload -----------------------
# One ~1 ms check against one ~13 ms plan swings with host noise, so the
# bound holds on the median ratio of five runs.
"$xhybrid" gen --profile ckt-b --scale 4 --out "$work/cktb.xmap"
for run in 1 2 3 4 5; do
  "$xhybrid" plan "$work/cktb.xmap" --m 16 --q 3 --strategy best-cost \
    | tee "$work/scaled.txt"
  r="$(sed -n 's/.*(\([0-9.]*\)% of plan).*/\1/p' "$work/scaled.txt")"
  [[ -n "$r" ]] || { echo "no verify/plan ratio in output of run $run"; exit 1; }
  echo "$r" >> "$work/ratios.txt"
done
ratio="$(sort -g "$work/ratios.txt" | sed -n 3p)"
awk -v r="$ratio" 'BEGIN { exit !(r < 10.0) }' \
  || { echo "median verify overhead ${ratio}% exceeds the 10% bound"; exit 1; }

echo "verify smoke OK: round-trip checked, rejections fired, median overhead ${ratio}%"
