#!/usr/bin/env bash
# Interchange-format gate (ROADMAP: real-trace workload frontier; run
# by the `interchange` CI job, or locally as tools/interchange_check.sh).
#
# Four legs:
#
#   1. Corpus validation — every vendored interchange document under
#      tests/data/ must pass `cws-exp validate` (exit 0); a malformed
#      document must be rejected with exit 1 and a JSON-path error;
#      a missing file must be a usage/IO error (exit 2). This pins the
#      CLI's documented exit-code contract (docs/interchange.md).
#
#   2. Importer — every vendored WfCommons fixture must convert
#      (`cws-exp import`) into a document that itself validates, and
#      the conversion must be deterministic (byte-identical on repeat).
#
#   3. Real-trace sweep — `cws-exp sweep --workflow` over an imported
#      trace must be byte-identical at --threads 1 and 8, and a traced
#      run must reconcile under `cws-exp trace-report --check` (events
#      vs the run manifest's run.cost_usd / run.makespan_s gauges).
#
#   4. Hostile trace-report inputs — a manifest with an empty histogram
#      bucket pair, and a VM lease and a pool lease at the largest id,
#      must give exit 0 or 1 (a failed --check), never a panic or abort.
#
# Environment overrides:
#   TRACE  — corpus trace for the sweep leg (default: montage-166.json)
#   OUTDIR — scratch directory      (default: target/interchange-check)

set -euo pipefail
cd "$(dirname "$0")/.."

TRACE="${TRACE:-montage-166.json}"
OUTDIR="${OUTDIR:-target/interchange-check}"

rm -rf "$OUTDIR"
mkdir -p "$OUTDIR"

cargo build --release -q -p cws-experiments

exp() {
  cargo run --release -q -p cws-experiments --bin cws-exp -- "$@"
}

fail=0

# 1. Every vendored interchange document validates (exit 0).
for f in tests/data/*.json; do
  case "$f" in *.wfcommons.json) continue ;; esac
  if ! exp validate "$f" >/dev/null; then
    echo "CORPUS: $f failed validation" >&2
    fail=1
  else
    echo "ok: validate $f"
  fi
done

# Exit-code contract: 1 for an invalid document (with a JSON-path
# error on stderr), 2 for a missing file.
bad="$OUTDIR/bad.json"
printf '{"name":"bad","tasks":[{"id":"a","runtime_s":1,"deps":["ghost"]}]}\n' > "$bad"
set +e
err="$(exp validate "$bad" 2>&1 >/dev/null)"
rc=$?
set -e
if [ "$rc" -ne 1 ] || ! echo "$err" | grep -q 'workflow.tasks\[0\].deps\[0\]'; then
  echo "EXIT-CODES: invalid document gave rc=$rc (want 1 + JSON path): $err" >&2
  fail=1
else
  echo "ok: invalid document rejected with exit 1 and a JSON path"
fi
set +e
exp validate "$OUTDIR/no-such-file.json" >/dev/null 2>&1
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
  echo "EXIT-CODES: missing file gave rc=$rc (want 2)" >&2
  fail=1
else
  echo "ok: missing file rejected with exit 2"
fi

# 2. WfCommons fixtures import, the result validates, and the
#    conversion is deterministic.
for f in tests/data/*.wfcommons.json; do
  exp import "$f" --out "$OUTDIR/import-a" >/dev/null
  exp import "$f" --out "$OUTDIR/import-b" >/dev/null
  for out in "$OUTDIR"/import-a/*.json; do
    base="$(basename "$out")"
    if ! exp validate "$out" >/dev/null; then
      echo "IMPORT: $f -> $base does not validate" >&2
      fail=1
    fi
    if ! cmp -s "$out" "$OUTDIR/import-b/$base"; then
      echo "IMPORT: $f -> $base is not deterministic" >&2
      fail=1
    fi
  done
  rm -f "$OUTDIR"/import-a/*.json "$OUTDIR"/import-b/*.json
  echo "ok: import $f"
done

# 3. Real-trace sweep: threads 1 == threads 8, and the traced run
#    reconciles against its manifest.
trace="tests/data/$TRACE"
t1="$OUTDIR/sweep-t1"
t8="$OUTDIR/sweep-t8"
exp sweep --workflow "$trace" --threads 1 --format csv --out "$t1" >/dev/null
exp sweep --workflow "$trace" --threads 8 --format csv --out "$t8" >/dev/null
for f in "$t1"/*; do
  base="$(basename "$f")"
  if ! cmp -s "$f" "$t8/$base"; then
    echo "NONDETERMINISM: sweep --workflow $TRACE: $base differs between threads 1 and 8" >&2
    diff "$f" "$t8/$base" | head -10 >&2 || true
    fail=1
  fi
done
tr="$OUTDIR/sweep-trace"
mkdir -p "$tr"
exp sweep --workflow "$trace" --threads 1 --format csv \
  --out "$tr" --trace "$tr/trace.jsonl" --metrics --manifest \
  >/dev/null 2>/dev/null
if ! exp trace-report "$tr/trace.jsonl" --check >/dev/null; then
  echo "RECONCILIATION: sweep --workflow $TRACE: trace-report --check diverged from the run manifest" >&2
  fail=1
fi
echo "ok: sweep --workflow $TRACE (threads 1 == threads 8, trace reconciles)"

# 4. Hostile one-line inputs: trace-report with and without --check
#    exits 0 or 1, never 101 (panic) or 134 (abort).
hostile="$OUTDIR/hostile"
mkdir -p "$hostile"
lease='{"ev":"vm-lease","t":0,"vm":4294967295,"itype":"small","region":"r","price_per_btu":1}'
echo "$lease" > "$hostile/vm-lease.jsonl"
echo "${lease/vm-lease/pool-lease}" > "$hostile/pool-lease.jsonl"
: > "$hostile/manifest.jsonl"
echo '{"histograms":{"h":{"count":1,"sum":1,"buckets":[[]]}}}' \
  > "$hostile/manifest.jsonl.manifest.json"
for f in manifest vm-lease pool-lease; do
  for check in "" --check; do
    set +e
    exp trace-report "$hostile/$f.jsonl" ${check:+"$check"} >/dev/null 2>&1
    rc=$?
    set -e
    if [ "$rc" -gt 1 ]; then
      echo "HOSTILE: trace-report $f.jsonl${check:+ $check} exited $rc (want 0 or 1)" >&2
      fail=1
    else
      echo "ok: trace-report $f.jsonl${check:+ $check} exited $rc"
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "interchange check FAILED — see lines above" >&2
  exit 1
fi
echo "interchange check clean: corpus + importer + real-trace sweep + hostile trace-report"
