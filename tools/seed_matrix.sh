#!/usr/bin/env bash
# Seed-matrix determinism sweep (ROADMAP: seed-matrix CI; run nightly
# by .github/workflows/nightly.yml, or locally as tools/seed_matrix.sh).
#
# For every (figure, seed) in a small Pareto grid, generate the
# artifacts at --threads 1 and --threads 8 and require them to be
# byte-identical; then compare the run-manifest siblings after
# stripping the fields that legitimately differ between the two runs
# (thread count, wall-clock stamp, command line). Any surviving
# difference is tie-break nondeterminism the single-seed tier-1 suite
# cannot see.
#
# A third run per (figure, seed) records a --threads 1 trace with
# --metrics --manifest and pushes it through `cws-exp trace-report
# --check`: the streaming reducer recomputes cost and makespan from the
# event stream and the check fails unless they match the manifest's
# run.cost_usd / run.makespan_s gauges exactly — trace ⇄ metrics
# reconciliation on every swept artifact. Every non-manifest artifact of
# that traced run must also be byte-identical to the untraced
# --threads 1 run's: with a trace sink installed the simulator replays
# through its event queue, without one through its one-pass engine, so
# this holds the two replay paths together on every swept artifact.
#
# A final shard-matrix leg covers the service engine (cws-serve): for
# every seed, a `cws-exp serve --shards 1 --threads 1` run is the
# reference; runs across shards x threads must reproduce its report and
# trace byte-for-byte, and the reference trace must reconcile under
# `trace-report --check` (the PoolLease/PoolReclaim stream vs the
# manifest's service.fleet_* gauges).
#
# Environment overrides:
#   SEEDS  — space-separated seed list        (default: "7 42 1337")
#   FIGS   — space-separated cws-exp commands (default: "fig4 fig5 spot")
#   SHARDS — shard counts for the serve leg   (default: "1 2 8")
#   OUTDIR — scratch directory               (default: target/seed-matrix)

set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${SEEDS:-7 42 1337}"
# `spot` sweeps the realized spot frontier (19 pairings + SpotHEFT,
# sampled evictions + checkpoint recovery) — the eviction sampling is
# seeded per VM, so it is held to the same byte-identity bar.
FIGS="${FIGS:-fig4 fig5 spot}"
SHARDS="${SHARDS:-1 2 8}"
OUTDIR="${OUTDIR:-target/seed-matrix}"

rm -rf "$OUTDIR"
mkdir -p "$OUTDIR"

cargo build --release -q -p cws-experiments

run_exp() { # fig seed threads outdir
  cargo run --release -q -p cws-experiments --bin cws-exp -- \
    "$1" --seed "$2" --threads "$3" --format csv \
    --out "$4" --manifest >/dev/null
}

fail=0
for seed in $SEEDS; do
  for fig in $FIGS; do
    t1="$OUTDIR/$fig-s$seed-t1"
    t8="$OUTDIR/$fig-s$seed-t8"
    run_exp "$fig" "$seed" 1 "$t1"
    run_exp "$fig" "$seed" 8 "$t8"

    # 1. Artifacts must be byte-identical.
    for f in "$t1"/*; do
      base="$(basename "$f")"
      case "$base" in *.manifest.json) continue ;; esac
      if ! cmp -s "$f" "$t8/$base"; then
        echo "NONDETERMINISM: $fig seed=$seed: $base differs between threads 1 and 8" >&2
        diff "$f" "$t8/$base" | head -10 >&2 || true
        fail=1
      fi
    done

    # 2. Manifest fingerprints (platform hash, counters, gauges) must
    #    match once thread-dependent provenance fields are stripped.
    for m in "$t1"/*.manifest.json; do
      base="$(basename "$m")"
      if ! python3 - "$m" "$t8/$base" <<'EOF'
import json, sys
def stable(path):
    with open(path) as fh:
        d = json.load(fh)
    for volatile in ("threads", "created_unix", "command", "git_sha"):
        d.pop(volatile, None)
    return d
a, b = stable(sys.argv[1]), stable(sys.argv[2])
sys.exit(0 if a == b else 1)
EOF
      then
        echo "NONDETERMINISM: $fig seed=$seed: $base manifests diverge (threads 1 vs 8)" >&2
        fail=1
      fi
    done
    # 3. Trace ⇄ metrics reconciliation: record a --threads 1 trace of
    #    the same cell and require trace-report --check to reproduce
    #    the manifest gauges exactly from the event stream. The traced
    #    run replays through the simulator's event queue and the
    #    untraced t1 run through its one-pass engine, so their
    #    artifacts must be byte-identical too.
    tr="$OUTDIR/$fig-s$seed-trace"
    mkdir -p "$tr"
    cargo run --release -q -p cws-experiments --bin cws-exp -- \
      "$fig" --seed "$seed" --threads 1 --format csv \
      --out "$tr" --trace "$tr/trace.jsonl" --metrics --manifest \
      >/dev/null 2>/dev/null
    if ! cargo run --release -q -p cws-experiments --bin cws-exp -- \
      trace-report "$tr/trace.jsonl" --check >/dev/null; then
      echo "RECONCILIATION: $fig seed=$seed: trace-report --check diverged from the run manifest" >&2
      fail=1
    fi
    for f in "$t1"/*; do
      base="$(basename "$f")"
      case "$base" in *.manifest.json) continue ;; esac
      if ! cmp -s "$f" "$tr/$base"; then
        echo "REPLAY PATHS: $fig seed=$seed: $base differs between the traced and untraced threads 1 runs" >&2
        diff "$f" "$tr/$base" | head -10 >&2 || true
        fail=1
      fi
    done
    echo "ok: $fig seed=$seed (threads 1 == threads 8 == traced, trace reconciles)"
  done
done

# 4. Shard matrix: the service engine must be byte-identical to its
#    one-shard, one-thread run — report and trace — at every shard and
#    thread count, and that reference trace must reconcile against the
#    run's service.fleet_* gauges.
for seed in $SEEDS; do
  ref="$OUTDIR/serve-s$seed-ref"
  mkdir -p "$ref"
  cargo run --release -q -p cws-experiments --bin cws-exp -- \
    serve --shards 1 --threads 1 --hours 1 --seed "$seed" \
    --out "$ref" --trace "$ref/trace.jsonl" --metrics --manifest \
    >/dev/null 2>/dev/null
  if ! cargo run --release -q -p cws-experiments --bin cws-exp -- \
    trace-report "$ref/trace.jsonl" --check >/dev/null; then
    echo "RECONCILIATION: serve seed=$seed: service trace diverged from the fleet gauges" >&2
    fail=1
  fi
  for shards in $SHARDS; do
    for threads in 1 8; do
      d="$OUTDIR/serve-s$seed-sh$shards-t$threads"
      mkdir -p "$d"
      cargo run --release -q -p cws-experiments --bin cws-exp -- \
        serve --shards "$shards" --threads "$threads" \
        --hours 1 --seed "$seed" --out "$d" --trace "$d/trace.jsonl" \
        >/dev/null 2>/dev/null
      if ! cmp -s "$ref/serve_report.json" "$d/serve_report.json"; then
        echo "NONDETERMINISM: serve seed=$seed shards=$shards threads=$threads: report differs from shards 1 threads 1" >&2
        fail=1
      fi
      if ! cmp -s "$ref/trace.jsonl" "$d/trace.jsonl"; then
        echo "NONDETERMINISM: serve seed=$seed shards=$shards threads=$threads: trace bytes differ from shards 1 threads 1" >&2
        fail=1
      fi
    done
  done
  echo "ok: serve seed=$seed (shards [$SHARDS] x threads [1 8] == shards 1 threads 1, trace reconciles)"
done

if [ "$fail" -ne 0 ]; then
  echo "seed matrix FAILED — see the NONDETERMINISM, RECONCILIATION and REPLAY PATHS lines above" >&2
  exit 1
fi
echo "seed matrix clean: seeds [$SEEDS] x figs [$FIGS] + serve shard matrix [$SHARDS]"
