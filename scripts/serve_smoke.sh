#!/usr/bin/env bash
# End-to-end smoke test of the planning daemon: start `xhybrid serve` on
# a loopback socket, submit the demo workload twice through `xhybrid
# fetch`, assert the second submission is a cache hit, scrape /metrics
# to confirm the daemon counted exactly one miss, submit it a third time
# with a seeded policy (a miss under a new hash: fetch sends every
# option), and check that a rule-breaking input answers 422 naming its
# rule (q >= m in the query and in a wire plan request: XL0305; a text
# map with an out-of-range cell: XL0202), a malformed request line
# answers 400 and a bad option answers 400 with the text `xhybrid fetch`
# prints for it. A last scrape checks that every request the daemon counted got a
# counted response.
# The daemon runs with --verify-on-write 1, so the plan it produces is
# certificate-checked before it is stored.
#
# Usage: scripts/serve_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d "${TMPDIR:-/tmp}/xhc-serve-smoke.XXXXXX")"
daemon_pid=""
cleanup() {
  [[ -n "$daemon_pid" ]] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

cargo build -q --release --bin xhybrid
xhybrid=target/release/xhybrid

"$xhybrid" gen --profile demo --out "$work/demo.xmap"

"$xhybrid" serve --addr 127.0.0.1:0 --store "$work/store" --verify-on-write 1 \
  > "$work/serve.log" &
daemon_pid=$!
# The daemon prints `listening on ADDR` once bound.
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^listening on //p' "$work/serve.log")"
  [[ -n "$addr" ]] && break
  sleep 0.1
done
[[ -n "${addr:-}" ]] || { echo "daemon never bound"; cat "$work/serve.log"; exit 1; }
echo "daemon up on $addr"

"$xhybrid" fetch --addr "$addr" "$work/demo.xmap" --m 16 --q 3 | tee "$work/first.txt"
grep -q 'cache            : miss' "$work/first.txt"

"$xhybrid" fetch --addr "$addr" "$work/demo.xmap" --m 16 --q 3 | tee "$work/second.txt"
grep -q 'cache            : hit' "$work/second.txt"

# Both submissions must agree on the content hash.
hash1="$(sed -n 's/^plan hash.*: //p' "$work/first.txt")"
hash2="$(sed -n 's/^plan hash.*: //p' "$work/second.txt")"
[[ -n "$hash1" && "$hash1" == "$hash2" ]] || { echo "hash mismatch: '$hash1' vs '$hash2'"; exit 1; }

# The daemon's own counters tell the same story: one miss, one hit.
scrape() {
  exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
  printf 'GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' >&3
  cat <&3
}
metrics="$(scrape)"
echo "$metrics" | grep -q '^xhc_cache_misses_total 1$' || { echo "bad miss count"; echo "$metrics"; exit 1; }
echo "$metrics" | grep -q '^xhc_cache_hits_total 1$' || { echo "bad hit count"; echo "$metrics"; exit 1; }
echo "$metrics" | grep -q '^xhc_verify_total 1$' || { echo "the miss was not verified"; echo "$metrics"; exit 1; }
echo "$metrics" | grep -q '^xhc_verify_failures_total 0$' || { echo "verify-on-write failed"; echo "$metrics"; exit 1; }

# Every option reaches the daemon: a seeded policy is another request.
"$xhybrid" fetch --addr "$addr" "$work/demo.xmap" --m 16 --q 3 --policy seeded --seed 5 \
  | tee "$work/third.txt"
grep -q 'cache            : miss' "$work/third.txt" || { echo "seeded fetch not a miss"; exit 1; }
hash3="$(sed -n 's/^plan hash.*: //p' "$work/third.txt")"
[[ -n "$hash3" && "$hash3" != "$hash1" ]] || { echo "seeded fetch reused hash '$hash1'"; exit 1; }

# Rejections over a raw socket: POST a body file, print the response.
post() {
  exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
  printf 'POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\nConnection: close\r\n\r\n' \
    "$1" "$(wc -c < "$2")" >&3
  cat "$2" >&3
  cat <&3
}
lint="$(post '/v1/plan?m=8&q=8' "$work/demo.xmap")"
echo "$lint" | head -1 | grep -q '^HTTP/1.1 422 ' || { echo "q >= m not a 422"; echo "$lint"; exit 1; }
echo "$lint" | grep -q 'XL0305' || { echo "422 does not name XL0305"; echo "$lint"; exit 1; }
printf 'xmap v1\nchains 2 2\npatterns 4\nx 9 : 0\n' > "$work/out_of_range.xmap"
bad="$(post /v1/plan "$work/out_of_range.xmap")"
echo "$bad" | head -1 | grep -q '^HTTP/1.1 422 ' || { echo "out-of-range cell not a 422"; echo "$bad"; exit 1; }
echo "$bad" | grep -q '^deny\[XL0202\]' || { echo "422 does not name XL0202"; echo "$bad"; exit 1; }
# The same (m, q) inside a wire plan request. `fetch` refuses q >= m
# itself, so the request is built by hand: $2 little-endian bytes of $1.
le() { local i; for ((i = 0; i < $2; i++)); do printf "\\$(printf '%03o' $(($1 >> 8 * i & 255)))"; done; }
{ # The wire form of `chains 2 2 / patterns 4 / x 1 : 0`.
  printf 'XHCW'; le 1 2; le 2 2; le 4 4
  for section in 1:24 2:24 3:4 4:8; do le "${section%:*}" 4; le "${section#*:}" 8; done
  le 2 8; le 2 8; le 2 8 # chains: count, lengths
  le 4 8; le 1 8; le 1 8 # patterns, X cells, X's
  le 1 4                 # cell indices
  le 1 8                 # X sets: pattern 0
} > "$work/tiny.wire"
tiny="$(post '/v1/plan?m=2&q=1' "$work/tiny.wire" | tr -d '\000')"
echo "$tiny" | head -1 | grep -q '^HTTP/1.1 200 ' || { echo "hand-built wire map rejected"; echo "$tiny"; exit 1; }
{ # A plan request for it at m = q = 8, every option at its default.
  printf 'XHCW'; le 1 2; le 6 2; le 2 4
  le 11 4; le 45 8; le 12 4; le "$(wc -c < "$work/tiny.wire")" 8
  le 8 8; le 8 8 # m, q
  le 0 1; le 0 1; le 0 8; le 0 8; le 0 1; le 0 8; le 1 1; le 0 1
  cat "$work/tiny.wire"
} > "$work/q_ge_m.wire"
wire_lint="$(post /v1/plan "$work/q_ge_m.wire")"
echo "$wire_lint" | head -1 | grep -q '^HTTP/1.1 422 ' || { echo "wire q >= m not a 422"; echo "$wire_lint"; exit 1; }
echo "$wire_lint" | grep -q '^deny\[XL0305\]' || { echo "wire 422 does not name XL0305"; echo "$wire_lint"; exit 1; }
# A bad option: the daemon's 400 carries the text the CLI exits 2 with.
cli_status=0
"$xhybrid" fetch --addr "$addr" "$work/demo.xmap" --strategy bogus 2> "$work/cli_bogus.txt" || cli_status=$?
[[ "$cli_status" -eq 2 ]] || { echo "fetch --strategy bogus exited $cli_status, not 2"; exit 1; }
bogus="$(post '/v1/plan?strategy=bogus' "$work/demo.xmap")"
echo "$bogus" | head -1 | grep -q '^HTTP/1.1 400 ' || { echo "strategy=bogus not a 400"; echo "$bogus"; exit 1; }
[[ "$(echo "$bogus" | tail -n 1)" == "$(cat "$work/cli_bogus.txt")" ]] || {
  echo "daemon and CLI disagree:"; echo "$bogus"; cat "$work/cli_bogus.txt"; exit 1; }
# One planning path: `mode` is a parameter no route reads, and there is
# no job route.
async="$(post '/v1/plan?mode=async' "$work/demo.xmap")"
echo "$async" | head -1 | grep -q '^HTTP/1.1 400 ' || { echo "mode=async not a 400"; echo "$async"; exit 1; }
echo "$async" | tail -n 1 | grep -q '^`mode` is not a parameter' || { echo "400 does not name mode"; echo "$async"; exit 1; }
jobs="$(exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"; printf 'GET /v1/jobs/1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' >&3; cat <&3)"
echo "$jobs" | head -1 | grep -q '^HTTP/1.1 404 ' || { echo "/v1/jobs/1 not a 404"; echo "$jobs"; exit 1; }
garbled="$(exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"; printf 'NOT-A-REQUEST-LINE\r\n\r\n' >&3; cat <&3)"
echo "$garbled" | head -1 | grep -q '^HTTP/1.1 400 ' || { echo "malformed request line not a 400"; echo "$garbled"; exit 1; }

# Every request was answered and counted once: the daemon is quiet, so
# the only request without a response yet is this scrape itself.
metrics="$(scrape)"
balance="$(echo "$metrics" | tr -d '\r' | awk '
  /^xhc_requests_total / { requests = $2 }
  /^xhc_responses_total\{/ { responses += $2 }
  END { print requests " " responses }')"
read -r requests responses <<< "$balance"
[[ -n "$requests" && "$requests" -eq $((responses + 1)) ]] || {
  echo "xhc_requests_total $requests != sum(xhc_responses_total) $responses + 1"; echo "$metrics"; exit 1; }

echo "serve smoke OK: one miss, one hit, stable hash $hash1, seeded hash $hash3, $requests requests balanced"
