#!/usr/bin/env bash
# Interchange-format gate (ROADMAP: real-trace workload frontier; run
# by the `interchange` CI job, or locally as tools/interchange_check.sh).
#
# Six legs:
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
#      bucket pair, a VM lease and a pool lease at the largest id, and a
#      lease followed by a 1e300 s placement must give exit 0 or 1 (a
#      failed --check), never a panic or abort.
#
#   5. A wide document — one task with 500 000 children (23 MB) must
#      pass `cws-exp validate` within 60 s. Reading takes time within a
#      log factor of the document's size; a builder that compared each
#      edge with every earlier sibling of its source needed minutes here.
#
#   6. Colliding ids — 131 072 task ids whose FNV-1a 64 hashes agree in
#      their low 24 bits must pass `cws-exp validate` within 60 s. An id
#      index that picked a slot from those bits would probe one cluster
#      for every id and need minutes; the ordered index does not care.
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
{
  echo "${lease/4294967295/0}"
  echo '{"ev":"probe-decision","task":0,"vm":0,"start":0,"finish":1e300,"kind":"new-vm"}'
} > "$hostile/busy-span.jsonl"
: > "$hostile/manifest.jsonl"
echo '{"histograms":{"h":{"count":1,"sum":1,"buckets":[[]]}}}' \
  > "$hostile/manifest.jsonl.manifest.json"
for f in manifest vm-lease pool-lease busy-span; do
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

# 5. A 500 000-child fan-out validates within 60 s. `timeout` needs
#    the binary itself, not `cargo run`, so that it stops what it times.
wide="$OUTDIR/wide-fan-out.json"
awk 'BEGIN {
  printf "{\"name\":\"wide\",\"tasks\":[{\"id\":\"root\",\"runtime_s\":1}"
  for (i = 0; i < 500000; i++) printf ",{\"id\":\"c%d\",\"runtime_s\":1,\"deps\":[\"root\"]}", i
  print "]}"
}' > "$wide"
set +e
timeout 60 "${CARGO_TARGET_DIR:-target}/release/cws-exp" validate "$wide" >/dev/null
rc=$?
set -e
if [ "$rc" -ne 0 ]; then
  echo "WIDE: validate on a 500 000-child fan-out exited $rc (want 0 within 60 s; 124 is the timeout)" >&2
  fail=1
else
  echo "ok: validate on a 500 000-child fan-out within 60 s"
fi
rm -f "$wide"

# 6. Ids that all collide in the low 24 bits of FNV-1a 64 validate
#    within 60 s. Those bits depend only on the low 24 bits of the
#    state, where FNV's prime is 435, so awk's doubles hold every
#    product exactly. Each block is two 4-character strings that reach
#    the same state from the one before (a birthday search over random
#    strings); choosing either string of each of 17 blocks gives 2^17
#    distinct ids with one hash. Every odd task depends on the one
#    before it, so lookups are tested as well as inserts.
collide="$OUTDIR/colliding-ids.json"
awk -v blocks=17 'BEGIN {
  M = 16777216; P = 435; h = 2237221
  alpha = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
  for (i = 0; i < 256; i++) ord[sprintf("%c", i)] = i
  # X[lo, c]: what XOR with character c adds to a low byte lo.
  for (c = 1; c <= 62; c++) {
    b = ord[substr(alpha, c, 1)]
    for (lo = 0; lo < 256; lo++) {
      x = 0
      for (bit = 1; bit < 256; bit *= 2) if ((int(lo / bit) + int(b / bit)) % 2) x += bit
      X[lo, c] = x - lo
    }
  }
  srand(1)
  for (k = 0; k < blocks; k++) {
    split("", seen)
    while (!(k in A)) {
      g = h; s = ""
      for (j = 0; j < 4; j++) {
        c = 1 + int(rand() * 62)
        g = ((g + X[g % 256, c]) * P) % M
        s = s substr(alpha, c, 1)
      }
      if ((g in seen) && seen[g] != s) { A[k] = seen[g]; B[k] = s; h = g }
      seen[g] = s
    }
  }
  printf "{\"name\":\"collide\",\"tasks\":["
  for (i = 0; i < 2 ^ blocks; i++) {
    id = ""
    for (k = 0; k < blocks; k++) id = id (int(i / 2 ^ k) % 2 ? B[k] : A[k])
    if (i % 2) printf ",{\"id\":\"%s\",\"runtime_s\":1,\"deps\":[\"%s\"]}", id, prev
    else printf "%s{\"id\":\"%s\",\"runtime_s\":1}", (i ? "," : ""), id
    prev = id
  }
  print "]}"
}' > "$collide"
set +e
timeout 60 "${CARGO_TARGET_DIR:-target}/release/cws-exp" validate "$collide" >/dev/null
rc=$?
set -e
if [ "$rc" -ne 0 ]; then
  echo "COLLIDE: validate on 131 072 ids with one FNV-1a low-bit hash exited $rc (want 0 within 60 s; 124 is the timeout)" >&2
  fail=1
else
  echo "ok: validate on 131 072 ids with one FNV-1a low-bit hash within 60 s"
fi
rm -f "$collide"

if [ "$fail" -ne 0 ]; then
  echo "interchange check FAILED — see lines above" >&2
  exit 1
fi
echo "interchange check clean: corpus + importer + real-trace sweep + hostile trace-report + wide fan-out + colliding ids"
