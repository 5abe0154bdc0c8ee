#!/usr/bin/env bash
# Memory-ceiling check for the sharded streaming engine (ROADMAP:
# cws-serve). Streams a ~10^6-submission synthetic service run — the
# `--light` profile: one UniformBag(4) tenant at 50 000 arrivals/hour,
# zero boot, immediate reclaim — through `cws-exp serve --report
# summary` and asserts the process peak RSS stays
# under 512 MiB. Lazy arrivals, the shard pools' incremental billing
# fold and the streaming summary keep memory at the live pool, not the
# run length; this script is the regression gate on that property.
#
# Environment overrides:
#   HOURS     — Poisson horizon in hours (default 20 ≈ 10^6 arrivals)
#   SEED      — run seed                  (default 42)
#   LIMIT_KIB — ceiling in KiB            (default 524288 = 512 MiB)

set -euo pipefail
cd "$(dirname "$0")/.."

HOURS="${HOURS:-20}"
SEED="${SEED:-42}"
LIMIT_KIB="${LIMIT_KIB:-524288}"

cargo build --release -q -p cws-experiments

err="$(mktemp)"
trap 'rm -f "$err"' EXIT
out="$(./target/release/cws-exp serve --report summary \
  --light --hours "$HOURS" --seed "$SEED" 2>"$err")"

workflows="$(python3 -c 'import json,sys; print(json.loads(sys.stdin.read())["workflows"])' <<<"$out")"
peak="$(sed -n 's/^peak_rss_kib=//p' "$err" | tail -1)"

if [ -z "$peak" ]; then
  echo "mem ceiling: no peak_rss_kib line on stderr (non-linux kernel?)" >&2
  exit 1
fi
echo "mem ceiling: $workflows workflows streamed, peak RSS ${peak} KiB (limit ${LIMIT_KIB} KiB)"
if [ "$peak" -ge "$LIMIT_KIB" ]; then
  echo "mem ceiling EXCEEDED: ${peak} KiB >= ${LIMIT_KIB} KiB" >&2
  exit 1
fi
