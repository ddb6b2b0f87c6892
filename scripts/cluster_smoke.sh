#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end smoke test of the sharded serving tier.
#
# Builds one corpus, slices it into three shard archives, boots three qdserve
# shard replicas plus an unsharded reference qdserve, fronts the shards with
# qdrouter, drives a scripted feedback session through both stacks, and diffs
# the results. The sharded tier's contract is bit-exactness, so the diff is
# literal: same JSON groups, same IDs, same distances, same displays. A
# replica must refuse a one-shot /v1/query (409 naming the router). A final
# stanza boots an admission-controlled replica and checks its scheduler is
# live and its answers stay bit-correct.
#
# Usage: scripts/cluster_smoke.sh [port-base]   (default 18400)
set -euo pipefail

BASE=${1:-18400}
SINGLE=$BASE
SHARD0=$((BASE + 1))
SHARD1=$((BASE + 2))
SHARD2=$((BASE + 3))
ROUTER=$((BASE + 4))

for tool in curl jq; do
  command -v "$tool" >/dev/null || { echo "cluster_smoke: $tool not found" >&2; exit 1; }
done

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "cluster_smoke: $*" >&2; }

say "building binaries"
go build -o "$WORK/qdbuild" ./cmd/qdbuild
go build -o "$WORK/qdserve" ./cmd/qdserve
go build -o "$WORK/qdrouter" ./cmd/qdrouter

say "building corpus + 3 shard archives"
"$WORK/qdbuild" -out "$WORK/db.gob" -vectors -images 600 -categories 12 \
  -capacity 24 -reps 0.2 -seed 7 -shards 3 2>/dev/null

say "starting fleet"
"$WORK/qdserve" -db "$WORK/db.gob" -addr ":$SINGLE" 2>/dev/null & PIDS+=($!)
"$WORK/qdserve" -db "$WORK/db.shard0.gob" -addr ":$SHARD0" 2>/dev/null & PIDS+=($!)
"$WORK/qdserve" -db "$WORK/db.shard1.gob" -addr ":$SHARD1" 2>/dev/null & PIDS+=($!)
"$WORK/qdserve" -db "$WORK/db.shard2.gob" -addr ":$SHARD2" 2>/dev/null & PIDS+=($!)
"$WORK/qdrouter" -addr ":$ROUTER" -wait 60s \
  -replica "0=http://localhost:$SHARD0" \
  -replica "1=http://localhost:$SHARD1" \
  -replica "2=http://localhost:$SHARD2" 2>/dev/null & PIDS+=($!)

wait_for() {
  for _ in $(seq 1 120); do
    curl -sf "$1" >/dev/null 2>&1 && return 0
    sleep 0.5
  done
  echo "cluster_smoke: $1 never came up" >&2
  return 1
}
wait_for "http://localhost:$SINGLE/healthz"
wait_for "http://localhost:$ROUTER/healthz"

# The router only serves after fleet verification, so a healthy /healthz
# already proves the precision/signature/version checks passed.
curl -sf "http://localhost:$ROUTER/v1/buildinfo" | jq -e '.shards == 3' >/dev/null \
  || { echo "cluster_smoke: router does not report 3 shards" >&2; exit 1; }

say "diffing one-shot query (initial retrieval + finalize arithmetic)"
QUERY='{"relevant":[3,9,12,200,201,430,77],"k":25}'
# final_reads legitimately differs (the router's finalize runs on the shards);
# everything else — groups, IDs, scores, feedback reads, expansions — must be
# byte-identical.
NORM='{groups: .groups, feedback_reads: .stats.feedback_reads, expansions: .stats.expansions}'
curl -sf -X POST -d "$QUERY" "http://localhost:$SINGLE/v1/query" | jq -S "$NORM" > "$WORK/single_query.json"
SCATTERS_BEFORE=$(curl -sf "http://localhost:$ROUTER/v1/stats" | jq .scatters)
curl -sf -X POST -d "$QUERY" "http://localhost:$ROUTER/v1/query" | jq -S "$NORM" > "$WORK/router_query.json"
SCATTERS_AFTER=$(curl -sf "http://localhost:$ROUTER/v1/stats" | jq .scatters)
diff -u "$WORK/single_query.json" "$WORK/router_query.json" \
  || { echo "cluster_smoke: routed /v1/query diverges from single node" >&2; exit 1; }
# The final round sends every group's search in one frame per shard: the
# query's one fetch (its groups claim k images at once, so no top-up) is one
# scatter, however many groups it has.
jq -e '.groups | length >= 2' "$WORK/router_query.json" >/dev/null \
  || { echo "cluster_smoke: one-shot query formed fewer than 2 groups; the scatter count below would prove nothing" >&2; exit 1; }
[ $((SCATTERS_AFTER - SCATTERS_BEFORE)) -eq 1 ] \
  || { echo "cluster_smoke: one-shot query scattered $((SCATTERS_AFTER - SCATTERS_BEFORE)) times, want 1 (one per final-round fetch)" >&2; exit 1; }

# A replica holds one slice, so it refuses what only the whole corpus can
# answer, naming the router; it describes the corpus exactly as the single
# node does.
curl -s -X POST -d "$QUERY" "http://localhost:$SHARD1/v1/query" -w '%{http_code}' -o "$WORK/replica_query.json" \
  | grep -q '^409$' \
  && jq -e '.code == "shard_finalize" and (.error | contains("router"))' "$WORK/replica_query.json" >/dev/null \
  || { echo "cluster_smoke: replica /v1/query not refused: $(cat "$WORK/replica_query.json")" >&2; exit 1; }
diff <(curl -sf "http://localhost:$SINGLE/v1/info" | jq -S .) <(curl -sf "http://localhost:$SHARD1/v1/info" | jq -S .) \
  || { echo "cluster_smoke: replica /v1/info differs from single node" >&2; exit 1; }

say "driving a feedback session through both stacks (seed 11)"
SID_S=$(curl -sf -X POST -d '{"seed":11}' "http://localhost:$SINGLE/v1/sessions" | jq -r .session_id)
SID_R=$(curl -sf -X POST -d '{"seed":11}' "http://localhost:$ROUTER/v1/sessions" | jq -r .session_id)

for round in 1 2; do
  curl -sf "http://localhost:$SINGLE/v1/sessions/$SID_S/candidates" | jq -S .candidates > "$WORK/single_cands.json"
  curl -sf "http://localhost:$ROUTER/v1/sessions/$SID_R/candidates" | jq -S .candidates > "$WORK/router_cands.json"
  diff -u "$WORK/single_cands.json" "$WORK/router_cands.json" \
    || { echo "cluster_smoke: round $round displays diverge" >&2; exit 1; }
  # Mark every third candidate relevant.
  MARKS=$(jq -c '{relevant: [.[].id] | [.[range(0; length; 3)]]}' "$WORK/single_cands.json")
  curl -sf -X POST -d "$MARKS" "http://localhost:$SINGLE/v1/sessions/$SID_S/feedback" > "$WORK/single_fb.json"
  curl -sf -X POST -d "$MARKS" "http://localhost:$ROUTER/v1/sessions/$SID_R/feedback" > "$WORK/router_fb.json"
  diff <(jq -S . "$WORK/single_fb.json") <(jq -S . "$WORK/router_fb.json") \
    || { echo "cluster_smoke: round $round feedback acks diverge" >&2; exit 1; }
done

say "diffing distributed finalize against single node"
curl -sf -X POST -d '{"k":25}' "http://localhost:$SINGLE/v1/sessions/$SID_S/finalize" | jq -S "$NORM" > "$WORK/single_final.json"
curl -sf -X POST -d '{"k":25}' "http://localhost:$ROUTER/v1/sessions/$SID_R/finalize" | jq -S "$NORM" > "$WORK/router_final.json"
diff -u "$WORK/single_final.json" "$WORK/router_final.json" \
  || { echo "cluster_smoke: distributed finalize diverges from single node" >&2; exit 1; }

jq -e '.groups | length > 0' "$WORK/router_final.json" >/dev/null \
  || { echo "cluster_smoke: finalize returned no groups" >&2; exit 1; }

say "sweeping the fleet observability surface"

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

curl -sf "http://localhost:$ROUTER/metrics" > "$WORK/router_metrics.txt"
check_prom < "$WORK/router_metrics.txt" \
  || { echo "cluster_smoke: router /metrics not valid Prometheus text" >&2; exit 1; }
for fam in qd_router_scatters_total qd_router_requests_total \
           qd_router_fanout_seconds qd_router_merge_seconds \
           qd_router_straggler_wait_seconds; do
  grep -q "^$fam" "$WORK/router_metrics.txt" \
    || { echo "cluster_smoke: router /metrics missing family $fam" >&2; exit 1; }
done
curl -sf "http://localhost:$SHARD0/metrics" > "$WORK/replica_metrics.txt"
check_prom < "$WORK/replica_metrics.txt" \
  || { echo "cluster_smoke: replica /metrics not valid Prometheus text" >&2; exit 1; }
grep -q '^qd_http_requests_total' "$WORK/replica_metrics.txt" \
  || { echo "cluster_smoke: replica /metrics missing qd_http_requests_total" >&2; exit 1; }

# Fleet-merged latency digests: all three replicas scraped, the shard search
# endpoint visible fleet-wide and per shard.
curl -sf "http://localhost:$ROUTER/v1/fleet/latency?refresh=1" > "$WORK/fleet_latency.json"
jq -e '.replicas == 3 and (.errors // [] | length == 0)
       and (.fleet | has("endpoint:/v1/shard/search"))
       and (.shards | length == 3)' "$WORK/fleet_latency.json" >/dev/null \
  || { echo "cluster_smoke: fleet latency malformed: $(cat "$WORK/fleet_latency.json")" >&2; exit 1; }
curl -sf "http://localhost:$ROUTER/v1/fleet/stats?refresh=1" \
  | jq -e '.counters.qd_http_requests_total > 0' >/dev/null \
  || { echo "cluster_smoke: fleet stats missing aggregated counters" >&2; exit 1; }

# Slow-query exemplars on both tiers: entries with shard breakdowns and a
# stitched-trace reference on the router side.
curl -sf "http://localhost:$ROUTER/v1/slow" | jq -e \
  '.slowest | length > 0 and (.[0].shards | length == 3) and .[0].trace_id > 0' >/dev/null \
  || { echo "cluster_smoke: router /v1/slow empty or missing breakdowns" >&2; exit 1; }
curl -sf "http://localhost:$SHARD0/v1/slow" | jq -e '.slowest | length > 0' >/dev/null \
  || { echo "cluster_smoke: replica /v1/slow empty" >&2; exit 1; }

# Stitched cross-process trace: the routed queries above must have left
# Perfetto-loadable traces with router and shard tracks. Kept as a CI
# artifact when ARTIFACT_DIR is set.
curl -sf "http://localhost:$ROUTER/v1/traces?format=perfetto" > "$WORK/stitched_trace.json"
jq -e '.traceEvents | length > 0' "$WORK/stitched_trace.json" >/dev/null \
  || { echo "cluster_smoke: stitched Perfetto export empty" >&2; exit 1; }
jq -e '[.traceEvents[] | select(.ph == "M" and .name == "thread_name") | .args.name]
       | (index("router") != null) and (index("shard 0") != null)' \
  "$WORK/stitched_trace.json" >/dev/null \
  || { echo "cluster_smoke: stitched trace missing router/shard tracks" >&2; exit 1; }
if [ -n "${ARTIFACT_DIR:-}" ]; then
  mkdir -p "$ARTIFACT_DIR"
  cp "$WORK/stitched_trace.json" "$WORK/fleet_latency.json" "$ARTIFACT_DIR/"
  say "kept stitched trace + fleet digests in $ARTIFACT_DIR"
fi

say "admission-controlled replica (max-concurrent 1, queue-bound 0)"
ADM=$((BASE + 5))
"$WORK/qdserve" -db "$WORK/db.shard0.gob" -addr ":$ADM" \
  -max-concurrent 1 -queue-bound 0 2>/dev/null & PIDS+=($!)
wait_for "http://localhost:$ADM/healthz"

# The flags reach the scheduler: its gauges are exported. The deterministic
# overload flood (a held slot, 20 shed requests, a bit-exact answer after)
# runs in process, TestSchedShedShardFlood in internal/server.
grep -q '^qd_sched_inflight ' <(curl -sf "http://localhost:$ADM/metrics") \
  || { echo "cluster_smoke: admission-controlled replica /metrics missing qd_sched_inflight" >&2; exit 1; }

# Admission control changes no answer: the scheduled replica answers a shard
# search byte-identically to the unscheduled shard-0 replica, and the routed
# query still matches the single-node reference.
curl -sf "http://localhost:$ADM/v1/shard/topology" \
  | jq -c '{node_id: .nodes[0].id, k: 10, query: .nodes[0].center}' > "$WORK/adm_root_req.json"
curl -sf -X POST -d @"$WORK/adm_root_req.json" "http://localhost:$SHARD0/v1/shard/search" \
  | jq -S . > "$WORK/ref_shard_search.json"
curl -sf -X POST -d @"$WORK/adm_root_req.json" "http://localhost:$ADM/v1/shard/search" \
  | jq -S . > "$WORK/adm_shard_search.json"
diff -u "$WORK/ref_shard_search.json" "$WORK/adm_shard_search.json" \
  || { echo "cluster_smoke: admission-controlled replica diverges from shard 0" >&2; exit 1; }
curl -sf -X POST -d "$QUERY" "http://localhost:$ROUTER/v1/query" | jq -S "$NORM" > "$WORK/router_query2.json"
diff -u "$WORK/single_query.json" "$WORK/router_query2.json" \
  || { echo "cluster_smoke: routed query diverges" >&2; exit 1; }

say "OK: sharded results are bit-identical to single node"
