#!/usr/bin/env bash
# ingest_soak.sh — end-to-end soak test of the dynamic ingest tier.
#
# Builds one corpus as a dynamic (v4) archive and boots it twice: a soak
# server that takes sustained writes and an untouched reference server that
# stands in for "a fresh single-segment rebuild of the live set". The soak
# server streams ~300 inserts (crossing the seal threshold) with interleaved
# deletes and sampled queries, then deletes everything it inserted — bringing
# the live set back to the reference's — and the two servers' query results
# (and one seeded feedback session, marks, a retract and its finalize) are
# literally diffed: the segmented engine's contract is that a corpus
# smeared across sealed segments, memtable rows, and tombstones answers
# bit-identically to a clean single-segment build of the same live rows.
# A compaction pass then collapses the soak server's segments and the diff
# must still hold.
#
# Usage: scripts/ingest_soak.sh [port-base]   (default 18500)
set -euo pipefail

BASE=${1:-18500}
REF=$BASE
SOAK=$((BASE + 1))
# The memtable seals at 256 *live* rows (seg.Config.SealThreshold default)
# and the stream deletes every 3rd insert, so 420 inserts leave ~280 live —
# enough to cross the threshold and exercise a real seal mid-soak.
INSERTS=${INSERTS:-420}

for tool in curl jq; do
  command -v "$tool" >/dev/null || { echo "ingest_soak: $tool not found" >&2; exit 1; }
done

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "ingest_soak: $*" >&2; }

say "building binaries"
go build -o "$WORK/qdbuild" ./cmd/qdbuild
go build -o "$WORK/qdserve" ./cmd/qdserve

say "building dynamic (v4) archive"
"$WORK/qdbuild" -dynamic -out "$WORK/dyn.gob" -vectors -images 600 -categories 12 \
  -capacity 24 -reps 0.2 -seed 7 2>/dev/null

say "starting reference + soak servers"
"$WORK/qdserve" -db "$WORK/dyn.gob" -dynamic -addr ":$REF" 2>/dev/null & PIDS+=($!)
"$WORK/qdserve" -db "$WORK/dyn.gob" -dynamic -addr ":$SOAK" 2>/dev/null & PIDS+=($!)

wait_for() {
  for _ in $(seq 1 120); do
    curl -sf "$1" >/dev/null 2>&1 && return 0
    sleep 0.5
  done
  echo "ingest_soak: $1 never came up" >&2
  return 1
}
wait_for "http://localhost:$REF/healthz"
wait_for "http://localhost:$SOAK/healthz"

# vec_json i — a deterministic 37-d vector for insert #i (cheap LCG; the
# values only need to be stable across the run, not meaningful).
vec_json() {
  awk -v i="$1" 'BEGIN{
    s = (i * 2654435761) % 2147483648
    printf "["
    for (j = 0; j < 37; j++) {
      s = (s * 1103515245 + 12345) % 2147483648
      printf "%s%.6f", (j ? "," : ""), s / 2147483648
    }
    printf "]"
  }'
}

QUERY='{"relevant":[3,9,12,200,201,430,77],"k":25}'
NORM='{groups: .groups}'

# The generator's category split does not land exactly on -images, so take
# the reference's own count as the ground truth for the live set.
ORIG=$(curl -sf "http://localhost:$REF/v1/info" | jq .images)
say "corpus has $ORIG live images"

say "baseline diff (both servers untouched)"
curl -sf -X POST -d "$QUERY" "http://localhost:$REF/v1/query"  | jq -S "$NORM" > "$WORK/ref.json"
curl -sf -X POST -d "$QUERY" "http://localhost:$SOAK/v1/query" | jq -S "$NORM" > "$WORK/soak.json"
diff -u "$WORK/ref.json" "$WORK/soak.json" \
  || { echo "ingest_soak: servers disagree before any writes" >&2; exit 1; }

say "streaming $INSERTS inserts (deleting every 3rd, sampling queries every 25th)"
IDS=()
for ((i = 0; i < INSERTS; i++)); do
  body="{\"vector\": $(vec_json "$i"), \"label\": \"soak-$i\"}"
  id=$(curl -sf -X POST -d "$body" "http://localhost:$SOAK/v1/images" | jq -e .id) \
    || { echo "ingest_soak: insert $i failed" >&2; exit 1; }
  if (( i % 3 == 2 )); then
    curl -sf -X DELETE "http://localhost:$SOAK/v1/images/$id" >/dev/null \
      || { echo "ingest_soak: delete $id failed" >&2; exit 1; }
  else
    IDS+=("$id")
  fi
  if (( i % 25 == 0 )); then
    n=$(curl -sf -X POST -d "$QUERY" "http://localhost:$SOAK/v1/query" \
      | jq '[.groups[].images[]] | length') \
      || { echo "ingest_soak: sampled query during churn failed" >&2; exit 1; }
    [ "$n" -eq 25 ] || { echo "ingest_soak: sampled query returned $n of 25 images" >&2; exit 1; }
  fi
done

say "checking the soak server sealed segments"
curl -sf "http://localhost:$SOAK/v1/buildinfo" > "$WORK/bi_churn.json"
jq -e '.dynamic == true and .seals >= 1 and .epoch > 0' "$WORK/bi_churn.json" >/dev/null \
  || { echo "ingest_soak: buildinfo after churn: $(cat "$WORK/bi_churn.json")" >&2; exit 1; }

say "deleting the ${#IDS[@]} surviving inserts (live set back to the reference's)"
for id in "${IDS[@]}"; do
  curl -sf -X DELETE "http://localhost:$SOAK/v1/images/$id" >/dev/null \
    || { echo "ingest_soak: cleanup delete $id failed" >&2; exit 1; }
done
live=$(curl -sf "http://localhost:$SOAK/v1/info" | jq .images)
[ "$live" -eq "$ORIG" ] || { echo "ingest_soak: live count $live after cleanup, want $ORIG" >&2; exit 1; }

say "diffing churned multi-segment state against the clean rebuild"
curl -sf -X POST -d "$QUERY" "http://localhost:$SOAK/v1/query" | jq -S "$NORM" > "$WORK/soak_churned.json"
diff -u "$WORK/ref.json" "$WORK/soak_churned.json" \
  || { echo "ingest_soak: churned results diverge from clean rebuild" >&2; exit 1; }

say "diffing a seeded feedback session through both servers"
SID_R=$(curl -sf -X POST -d '{"seed":11}' "http://localhost:$REF/v1/sessions" | jq -r .session_id)
SID_S=$(curl -sf -X POST -d '{"seed":11}' "http://localhost:$SOAK/v1/sessions" | jq -r .session_id)
curl -sf "http://localhost:$REF/v1/sessions/$SID_R/candidates"  | jq -S .candidates > "$WORK/ref_cands.json"
curl -sf "http://localhost:$SOAK/v1/sessions/$SID_S/candidates" | jq -S .candidates > "$WORK/soak_cands.json"
diff -u "$WORK/ref_cands.json" "$WORK/soak_cands.json" \
  || { echo "ingest_soak: session displays diverge" >&2; exit 1; }
MARKS=$(jq -c '{relevant: [.[].id] | [.[range(0; length; 3)]]}' "$WORK/ref_cands.json")
curl -sf -X POST -d "$MARKS" "http://localhost:$REF/v1/sessions/$SID_R/feedback" >/dev/null
curl -sf -X POST -d "$MARKS" "http://localhost:$SOAK/v1/sessions/$SID_S/feedback" >/dev/null
# Retract the first mark on both servers: dynamic sessions retract through the
# same round machine, and the finalize diff below then covers the smaller panel.
RETRACT=$(jq -c '{relevant: [.[0].id]}' "$WORK/ref_cands.json")
curl -sf -X POST -d "$RETRACT" "http://localhost:$REF/v1/sessions/$SID_R/retract"  | jq -S . > "$WORK/ref_retract.json"
curl -sf -X POST -d "$RETRACT" "http://localhost:$SOAK/v1/sessions/$SID_S/retract" | jq -S . > "$WORK/soak_retract.json"
diff -u "$WORK/ref_retract.json" "$WORK/soak_retract.json" \
  || { echo "ingest_soak: session retract diverges" >&2; exit 1; }
jq -e --argjson marked "$(jq '.relevant | length' <<<"$MARKS")" '.relevant == $marked - 1' "$WORK/ref_retract.json" >/dev/null \
  || { echo "ingest_soak: retract left $(cat "$WORK/ref_retract.json")" >&2; exit 1; }
curl -sf -X POST -d '{"k":25}' "http://localhost:$REF/v1/sessions/$SID_R/finalize"  | jq -S "$NORM" > "$WORK/ref_final.json"
curl -sf -X POST -d '{"k":25}' "http://localhost:$SOAK/v1/sessions/$SID_S/finalize" | jq -S "$NORM" > "$WORK/soak_final.json"
diff -u "$WORK/ref_final.json" "$WORK/soak_final.json" \
  || { echo "ingest_soak: session finalize diverges" >&2; exit 1; }

say "compacting the soak server and re-diffing"
curl -sf -X POST "http://localhost:$SOAK/v1/compact" > "$WORK/compact.json"
jq -e --argjson orig "$ORIG" '.segments == 1 and .live == $orig and .compactions >= 1' "$WORK/compact.json" >/dev/null \
  || { echo "ingest_soak: compact response: $(cat "$WORK/compact.json")" >&2; exit 1; }
curl -sf -X POST -d "$QUERY" "http://localhost:$SOAK/v1/query" | jq -S "$NORM" > "$WORK/soak_compacted.json"
diff -u "$WORK/ref.json" "$WORK/soak_compacted.json" \
  || { echo "ingest_soak: post-compaction results diverge from clean rebuild" >&2; exit 1; }

say "sweeping the soak server's observability surface"

# check_prom: every non-comment line of a Prometheus text exposition must be
# `name[{labels}] value` — one malformed line fails the scrape wholesale.
check_prom() {
  awk '
    /^#/ || /^$/ { next }
    !/^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]?Inf|[-+0-9.][-+0-9.eE]*)$/ {
      print "unparseable metric line: " $0 > "/dev/stderr"; bad = 1
    }
    END { exit bad }
  '
}

curl -sf "http://localhost:$SOAK/metrics" > "$WORK/soak_metrics.txt"
check_prom < "$WORK/soak_metrics.txt" \
  || { echo "ingest_soak: /metrics not valid Prometheus text" >&2; exit 1; }
for fam in qd_http_requests_total qd_seg_inserts_total qd_seg_deletes_total \
           qd_seg_seals_total qd_seg_compactions_total qd_seg_epoch; do
  grep -q "^$fam" "$WORK/soak_metrics.txt" \
    || { echo "ingest_soak: /metrics missing family $fam" >&2; exit 1; }
done

# The windowed ingest digests: the churn above must have left insert and
# delete samples, and the seal/compact phases at least one each.
curl -sf "http://localhost:$SOAK/v1/latency" > "$WORK/soak_latency.json"
jq -e '.digests | has("seg:insert") and has("seg:delete") and has("seg:seal") and has("seg:compact")' \
  "$WORK/soak_latency.json" >/dev/null \
  || { echo "ingest_soak: /v1/latency missing seg digests: $(cat "$WORK/soak_latency.json")" >&2; exit 1; }

curl -sf "http://localhost:$SOAK/v1/slow" | jq -e '.slowest | length > 0' >/dev/null \
  || { echo "ingest_soak: /v1/slow empty after the soak" >&2; exit 1; }

if [ -n "${ARTIFACT_DIR:-}" ]; then
  mkdir -p "$ARTIFACT_DIR"
  cp "$WORK/soak_metrics.txt" "$WORK/soak_latency.json" "$ARTIFACT_DIR/"
  say "kept soak metrics + latency digests in $ARTIFACT_DIR"
fi

say "OK: churned and compacted states are bit-identical to the clean rebuild"
