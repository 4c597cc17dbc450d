#!/usr/bin/env bash
# End-to-end smoke test of the backend race: start `xhybrid serve` on a
# loopback socket, list the backend roster, race the demo workload
# across the full fleet, and assert the race's hybrid leg stored a plan
# whose bytes are identical to a plain /v1/plan submission of the same
# request — the race must ride the normal planning path, not fork it —
# and that every row's control bits match `xhybrid plan --backend`.
# The daemon runs with --verify-on-write 1, so every plan the race
# stores is certificate-checked first.
#
# Usage: scripts/race_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d "${TMPDIR:-/tmp}/xhc-race-smoke.XXXXXX")"
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
host="${addr%:*}"; port="${addr##*:}"
echo "daemon up on $addr"

# Raw HTTP over /dev/tcp: request with a Content-Length body, print the
# response (headers + body) on stdout.
http() { # method path [body-file]
  local method=$1 path=$2 body="${3:-}"
  exec 3<>"/dev/tcp/$host/$port"
  if [[ -n "$body" ]]; then
    printf 'POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %s\r\nConnection: close\r\n\r\n' \
      "$path" "$(wc -c < "$body")" >&3
    cat "$body" >&3
  else
    printf '%s %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' "$method" "$path" >&3
  fi
  cat <&3
  exec 3<&- 3>&-
}

# The roster lists all five backends, hybrid as default.
http GET /v1/backends > "$work/backends.txt"
for id in hybrid masking canceling superset xcode; do
  grep -q "\"id\":\"$id\"" "$work/backends.txt" || { echo "missing backend $id"; cat "$work/backends.txt"; exit 1; }
done
grep -q '"default":true' "$work/backends.txt"

# Race the fleet: all five entries, the hybrid leg cold.
http POST '/v1/plan/race?m=16&q=3' "$work/demo.xmap" > "$work/race.txt"
grep -q '^HTTP/1.1 200' "$work/race.txt" || { echo "race failed"; cat "$work/race.txt"; exit 1; }
for id in hybrid masking canceling superset xcode; do
  grep -q "\"backend\":\"$id\"" "$work/race.txt" || { echo "race lost backend $id"; cat "$work/race.txt"; exit 1; }
done
grep -q '"cache":"miss"' "$work/race.txt"
grep -q '"pareto":true' "$work/race.txt"
hash="$(tr ',' '\n' < "$work/race.txt" | sed -n 's/.*"plan_hash":"\([0-9a-f]\{16\}\)".*/\1/p' | head -n1)"
[[ -n "$hash" ]] || { echo "race reported no plan hash"; cat "$work/race.txt"; exit 1; }
echo "race OK, hybrid plan hash $hash"

# The CLI and the race plan every backend through the same
# `BackendId::plan` call: each race row's control bits, rounded to the
# CLI's one decimal, must equal what `xhybrid plan --backend <id>` prints.
for id in hybrid masking canceling superset xcode; do
  raced="$(tr '{' '\n' < "$work/race.txt" \
    | sed -n "s/^\"backend\":\"$id\",\"control_bits\":\([0-9.]*\),.*/\1/p")"
  cli="$("$xhybrid" plan "$work/demo.xmap" --m 16 --q 3 --backend "$id" \
    | sed -n 's/^control bits *: \([0-9.]*\).*/\1/p')"
  [[ -n "$raced" && -n "$cli" ]] || { echo "no control bits for $id (race '$raced', cli '$cli')"; exit 1; }
  [[ "$(LC_ALL=C printf '%.1f' "$raced")" == "$cli" ]] \
    || { echo "$id: race reports $raced control bits, xhybrid plan prints $cli"; exit 1; }
  echo "  $id: $cli control bits on both paths"
done

# The plan the race stored is byte-identical to the single-backend path:
# fetch it by hash, then submit the same request through /v1/plan (must
# be a cache hit) and compare the plan bytes.
"$xhybrid" fetch --addr "$addr" --hash "$hash" --out "$work/raced.plan" > /dev/null
"$xhybrid" fetch --addr "$addr" "$work/demo.xmap" --m 16 --q 3 --out "$work/direct.plan" \
  | tee "$work/direct.txt"
grep -q 'cache            : hit' "$work/direct.txt" || { echo "race did not warm the plan cache"; exit 1; }
grep -q "plan hash        : $hash" "$work/direct.txt" || { echo "hash mismatch vs /v1/plan"; exit 1; }
cmp "$work/raced.plan" "$work/direct.plan" || { echo "race plan bytes differ from /v1/plan"; exit 1; }

# Unknown backends are rejected up front (`BackendId::parse`'s 400).
http POST '/v1/plan/race?m=16&q=3&backends=bogus' "$work/demo.xmap" > "$work/bogus.txt"
grep -q '^HTTP/1.1 400' "$work/bogus.txt" || { echo "bogus roster not rejected"; cat "$work/bogus.txt"; exit 1; }

metrics="$(http GET /metrics)"
echo "$metrics" | grep -q '^xhc_verify_total 1$' || { echo "the hybrid leg was not verified"; echo "$metrics"; exit 1; }
echo "$metrics" | grep -q '^xhc_verify_failures_total 0$' || { echo "verify-on-write failed"; echo "$metrics"; exit 1; }

echo "race smoke OK: 5 backends, hybrid leg byte-identical under hash $hash"
