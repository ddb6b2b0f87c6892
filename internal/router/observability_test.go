package router

// Integration tests for the fleet observability tier: cross-process trace
// stitching over a real routed query, the Perfetto export shape, fleet-merged
// latency digests against direct per-replica observation, and the slow-query
// exemplar log.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"qdcbir"
	"qdcbir/internal/obs"
	"qdcbir/internal/server"
)

// start4ShardFleet slices the fixture corpus four ways and serves it behind a
// router — the satellite's golden-trace topology.
func start4ShardFleet(t *testing.T) (*Router, string) {
	t.Helper()
	f := fixture(t)
	archives, err := qdcbir.SliceShards(context.Background(), f.sys, 4)
	if err != nil {
		t.Fatalf("SliceShards: %v", err)
	}
	cfgs := make([]ReplicaConfig, len(archives))
	for i, a := range archives {
		var buf bytes.Buffer
		if err := a.Write(&buf); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		cfgs[i] = ReplicaConfig{Shard: i, URL: startReplica(t, buf.Bytes()).URL}
	}
	rt, rts := startRouter(t, cfgs)
	return rt, rts.URL
}

// TestRoutedQueryStitchedTrace is the tentpole acceptance test: one routed
// query over four shards yields one stitched trace — router-side spans
// (fetch-points, fan-out, merge, finalize-scatter) on the router track and
// each shard's child spans on that shard's track, all under the request id
// the client saw. A final-round fetch is one scatter, so the router track
// holds one fan-out and one merge span per fetch, and each shard track one
// search span per search of those fetches.
func TestRoutedQueryStitchedTrace(t *testing.T) {
	rt, url := start4ShardFleet(t)
	before := rt.obs.Registry().Snapshot().Counters["qd_router_scatters_total"]

	raw, err := json.Marshal(server.QueryRequest{Relevant: []int{3, 9, 200, 430}, K: 20})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	reqID := resp.Header.Get("X-Request-Id")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: HTTP %d", resp.StatusCode)
	}
	if reqID == "" {
		t.Fatal("router issued no X-Request-Id")
	}

	var traces TracesResponse
	mustJSON(t, http.MethodGet, url+"/v1/traces?limit=1", nil, &traces)
	if len(traces.Traces) != 1 {
		t.Fatalf("retained traces: %d, want 1", len(traces.Traces))
	}
	tr := traces.Traces[0]
	if tr.RequestID != reqID {
		t.Fatalf("trace request id %q != client's %q", tr.RequestID, reqID)
	}
	if tr.Kind != "query" || tr.Shards != 4 || tr.Error != "" {
		t.Fatalf("trace header: %+v", tr)
	}

	routerSpans := map[string]int{}
	shardTracks := map[int]struct{ rpc, child bool }{}
	searchSpans := map[int]int{}
	searches := 0
	for _, sp := range tr.Spans {
		if sp.OffsetNS < 0 || sp.DurationNS < 0 || sp.OffsetNS+sp.DurationNS > tr.DurationNS {
			t.Fatalf("span escapes the trace window: %+v (trace %dns)", sp, tr.DurationNS)
		}
		if sp.Track == 0 {
			routerSpans[sp.Name]++
			if sp.Name == "fan-out" {
				n, _ := sp.Args["searches"].(float64)
				searches += int(n)
			}
			continue
		}
		if sp.Name == "search" {
			searchSpans[sp.Track]++
		}
		entry := shardTracks[sp.Track]
		if _, isRPC := sp.Args["shard"]; isRPC {
			entry.rpc = true
		} else {
			entry.child = true
		}
		shardTracks[sp.Track] = entry
	}
	for _, name := range []string{"fetch-points", "fan-out", "merge", "finalize-scatter"} {
		if routerSpans[name] == 0 {
			t.Fatalf("router track missing %q span; have %v", name, routerSpans)
		}
	}
	fetches := int(rt.obs.Registry().Snapshot().Counters["qd_router_scatters_total"] - before)
	if routerSpans["fan-out"] != fetches || routerSpans["merge"] != fetches {
		t.Fatalf("%d fan-out and %d merge spans for %d fetches, want one each per fetch", routerSpans["fan-out"], routerSpans["merge"], fetches)
	}
	if searches <= fetches {
		t.Fatalf("%d searches over %d fetches: no fetch carried more than one search, so this trace measures nothing", searches, fetches)
	}
	for track := 1; track <= 4; track++ {
		if searchSpans[track] != searches {
			t.Fatalf("track %d holds %d search spans, want one per search (%d)", track, searchSpans[track], searches)
		}
	}
	// Every shard participated in the finalize fan-out: its track carries both
	// the RPC span and at least one shard-reported child span.
	for track := 1; track <= 4; track++ {
		entry := shardTracks[track]
		if !entry.rpc || !entry.child {
			t.Fatalf("track %d (shard %d): rpc=%v child=%v; all tracks %v",
				track, track-1, entry.rpc, entry.child, shardTracks)
		}
	}

	// The Perfetto export of the same trace: per-track thread names, all spans
	// inside the root, timestamps at or after the trace base.
	status, body := request(t, http.MethodGet, url+"/v1/traces?format=perfetto&limit=1", nil)
	if status != http.StatusOK {
		t.Fatalf("perfetto export: HTTP %d", status)
	}
	var f obs.TraceEventFile
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatalf("perfetto export not valid trace-event JSON: %v", err)
	}
	threadNames := map[uint64]string{}
	var root *obs.TraceEvent
	var spans []obs.TraceEvent
	for i := range f.TraceEvents {
		ev := f.TraceEvents[i]
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			threadNames[ev.TID] = ev.Args["name"].(string)
		case ev.Ph == "X":
			if strings.HasPrefix(ev.Name, "routed ") {
				root = &f.TraceEvents[i]
			}
			spans = append(spans, ev)
		}
	}
	if root == nil {
		t.Fatal("perfetto export has no root span")
	}
	if root.Args["request_id"] != reqID {
		t.Fatalf("root request_id %v != %q", root.Args["request_id"], reqID)
	}
	want := map[uint64]string{0: "router", 1: "shard 0", 2: "shard 1", 3: "shard 2", 4: "shard 3"}
	for tid, name := range want {
		if threadNames[tid] != name {
			t.Fatalf("track %d named %q, want %q (all: %v)", tid, threadNames[tid], name, threadNames)
		}
	}
	for _, sp := range spans {
		if sp.TS < root.TS || sp.TS+sp.Dur > root.TS+root.Dur {
			t.Fatalf("exported span escapes the root: %+v (root %v+%v)", sp, root.TS, root.Dur)
		}
	}
}

// TestRoutedKNNStitchedSearchArgs: the shard-track search spans of a stitched
// /v1/knn trace carry the args each replica recorded for its leg — node, k,
// neighbors, scanned and scored — equal to what that replica reports for the
// same leg asked directly in JSON.
func TestRoutedKNNStitchedSearchArgs(t *testing.T) {
	f := fixture(t)
	cfgs := make([]ReplicaConfig, len(f.blobs))
	for i, blob := range f.blobs {
		cfgs[i] = ReplicaConfig{Shard: i, URL: startReplica(t, blob).URL}
	}
	rt, rts := startRouter(t, cfgs)
	q := KNNRequest{Query: f.sys.Corpus().Vectors[42], K: 20}
	mustJSON(t, http.MethodPost, rts.URL+"/v1/knn", q, nil)
	var traces TracesResponse
	mustJSON(t, http.MethodGet, rts.URL+"/v1/traces?limit=1", nil, &traces)
	if len(traces.Traces) != 1 || traces.Traces[0].Kind != "knn" {
		t.Fatalf("retained traces: %+v", traces.Traces)
	}
	stitched := map[int]map[string]any{}
	for _, sp := range traces.Traces[0].Spans {
		if sp.Track > 0 && sp.Name == "search" {
			stitched[sp.Track-1] = sp.Args
		}
	}
	leg, _ := json.Marshal(server.ShardSearchRequest{NodeID: rt.Topology().RootID(), Query: q.Query, K: q.K})
	for sh, rc := range cfgs {
		req, err := http.NewRequest(http.MethodPost, rc.URL+"/v1/shard/search", bytes.NewReader(leg))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.TraceHeader, "direct")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var direct server.ShardSearchResponse
		err = json.NewDecoder(resp.Body).Decode(&direct)
		resp.Body.Close()
		if err != nil || direct.Trace == nil || len(direct.Trace.Spans) != 1 {
			t.Fatalf("shard %d direct leg: %v, trace %+v", sh, err, direct.Trace)
		}
		want := direct.Trace.Spans[0].Args
		got := stitched[sh]
		for _, key := range []string{"node", "k", "neighbors", "scanned", "scored"} {
			if _, ok := want[key]; !ok {
				t.Fatalf("shard %d recorded no %q: %v", sh, key, want)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("shard %d: stitched search span args %v, replica recorded %v", sh, got, want)
		}
		for key, v := range want {
			// /v1/traces is JSON: its numbers read back as float64.
			if got[key] != float64(v) {
				t.Fatalf("shard %d: stitched %s = %v, replica recorded %d (all: %v vs %v)", sh, key, got[key], v, got, want)
			}
		}
	}
}

// TestStitchedTracePartialShardFailure kills one shard entirely mid-fleet:
// the routed query fails, and the retained trace is partial — error recorded,
// RPC attempts present — rather than absent.
func TestStitchedTracePartialShardFailure(t *testing.T) {
	f := fixture(t)
	doomed := startReplica(t, f.blobs[1])
	cfgs := []ReplicaConfig{
		{Shard: 0, URL: startReplica(t, f.blobs[0]).URL},
		{Shard: 1, URL: doomed.URL},
		{Shard: 2, URL: startReplica(t, f.blobs[2]).URL},
	}
	_, rts := startRouter(t, cfgs)

	doomed.Close() // shard 1 has no surviving replica

	status, _ := request(t, http.MethodPost, rts.URL+"/v1/knn",
		KNNRequest{Query: f.sys.Corpus().Vectors[5], K: 10})
	if status == http.StatusOK {
		t.Fatal("scatter over a dead shard must fail")
	}
	var traces TracesResponse
	mustJSON(t, http.MethodGet, rts.URL+"/v1/traces?limit=1", nil, &traces)
	if len(traces.Traces) != 1 {
		t.Fatalf("failed query left no trace: %+v", traces.Traces)
	}
	tr := traces.Traces[0]
	if tr.Error == "" {
		t.Fatal("partial trace must record the failure")
	}
	sawRPC := false
	for _, sp := range tr.Spans {
		if _, ok := sp.Args["shard"]; ok {
			sawRPC = true
		}
	}
	if !sawRPC {
		t.Fatal("partial trace retained no RPC attempts")
	}
	// The export stays loadable.
	status, body := request(t, http.MethodGet, rts.URL+"/v1/traces?format=perfetto", nil)
	if status != http.StatusOK {
		t.Fatalf("perfetto export: HTTP %d", status)
	}
	var file obs.TraceEventFile
	if err := json.Unmarshal(body, &file); err != nil {
		t.Fatalf("partial-trace export invalid: %v", err)
	}
}

// TestFleetLatencyMatchesDirectObservation drives traffic through a 3-shard
// fleet and checks the router's fleet-merged digests equal what merging the
// replicas' own /v1/latency?detail=1 reports yields — the acceptance bar for
// the mergeable-digest tier.
func TestFleetLatencyMatchesDirectObservation(t *testing.T) {
	f := fixture(t)
	cfgs := []ReplicaConfig{
		{Shard: 0, URL: startReplica(t, f.blobs[0]).URL},
		{Shard: 1, URL: startReplica(t, f.blobs[1]).URL},
		{Shard: 2, URL: startReplica(t, f.blobs[2]).URL},
	}
	_, rts := startRouter(t, cfgs)

	const queries = 5
	for i := 0; i < queries; i++ {
		var out KNNResponse
		mustJSON(t, http.MethodPost, rts.URL+"/v1/knn",
			KNNRequest{Query: f.sys.Corpus().Vectors[i], K: 10}, &out)
	}

	// Direct observation: scrape each replica ourselves and merge.
	var details []obs.DigestDetail
	for _, rc := range cfgs {
		var lat server.LatencyResponse
		mustJSON(t, http.MethodGet, rc.URL+"/v1/latency?detail=1", nil, &lat)
		if len(lat.Detail) == 0 {
			t.Fatalf("replica %s returned no detail", rc.URL)
		}
		details = append(details, lat.Detail)
	}
	merged, err := obs.MergeDetails(details...)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	want := merged.StatsReport()["endpoint:/v1/shard/search"]["1m"]
	if want.Count != uint64(queries*len(cfgs)) {
		t.Fatalf("direct merge: %d shard searches, want %d", want.Count, queries*len(cfgs))
	}

	var fleet FleetLatencyResponse
	mustJSON(t, http.MethodGet, rts.URL+"/v1/fleet/latency?refresh=1", nil, &fleet)
	if fleet.Replicas != len(cfgs) || len(fleet.Errors) != 0 {
		t.Fatalf("fleet scrape: %d replicas, errors %v", fleet.Replicas, fleet.Errors)
	}
	got := fleet.Fleet["endpoint:/v1/shard/search"]["1m"]
	if got != want {
		t.Fatalf("fleet quantiles diverge from direct observation:\n  fleet  %+v\n  direct %+v", got, want)
	}
	// Per-shard sections: each shard saw exactly its share.
	if len(fleet.Shards) != len(cfgs) {
		t.Fatalf("per-shard sections: %d, want %d", len(fleet.Shards), len(cfgs))
	}
	for _, sl := range fleet.Shards {
		st := sl.Digests["endpoint:/v1/shard/search"]["1m"]
		if st.Count != uint64(queries) {
			t.Fatalf("shard %d: %d searches, want %d", sl.Shard, st.Count, queries)
		}
		if st.P99 <= 0 {
			t.Fatalf("shard %d: empty p99: %+v", sl.Shard, st)
		}
	}

	// Fleet counters aggregate across replicas.
	var stats FleetStatsResponse
	mustJSON(t, http.MethodGet, rts.URL+"/v1/fleet/stats", nil, &stats)
	if stats.Counters["qd_http_requests_total"] < uint64(queries*len(cfgs)) {
		t.Fatalf("fleet request counter too small: %d", stats.Counters["qd_http_requests_total"])
	}
	if len(stats.Shards) != len(cfgs) {
		t.Fatalf("fleet stats shard view: %+v", stats.Shards)
	}
}

// TestSlowLogAndOverheadMetrics checks the exemplar log on both tiers and the
// router's overhead telemetry: /v1/slow entries carry shard breakdowns and
// trace references, and the fan-out/merge histograms reach /metrics and
// /v1/latency.
func TestSlowLogAndOverheadMetrics(t *testing.T) {
	f := fixture(t)
	cfgs := []ReplicaConfig{
		{Shard: 0, URL: startReplica(t, f.blobs[0]).URL},
		{Shard: 1, URL: startReplica(t, f.blobs[1]).URL},
		{Shard: 2, URL: startReplica(t, f.blobs[2]).URL},
	}
	_, rts := startRouter(t, cfgs)

	for i := 0; i < 3; i++ {
		var out KNNResponse
		mustJSON(t, http.MethodPost, rts.URL+"/v1/knn",
			KNNRequest{Query: f.sys.Corpus().Vectors[i], K: 5}, &out)
	}

	var slow SlowResponse
	mustJSON(t, http.MethodGet, rts.URL+"/v1/slow", nil, &slow)
	if len(slow.Slowest) != 3 {
		t.Fatalf("router slow log: %d entries, want 3", len(slow.Slowest))
	}
	for i, q := range slow.Slowest {
		if q.Endpoint != "/v1/knn" || q.RequestID == "" || q.DurationNS <= 0 {
			t.Fatalf("slow entry %d: %+v", i, q)
		}
		if q.TraceID == 0 {
			t.Fatalf("slow entry %d has no trace reference: %+v", i, q)
		}
		if len(q.Shards) != len(cfgs) {
			t.Fatalf("slow entry %d shard breakdown: %+v", i, q.Shards)
		}
		if i > 0 && q.DurationNS > slow.Slowest[i-1].DurationNS {
			t.Fatalf("slow log not sorted slowest-first: %+v", slow.Slowest)
		}
	}

	// A replica keeps its own exemplars.
	var repSlow struct {
		Slowest []obs.SlowQuery `json:"slowest"`
	}
	mustJSON(t, http.MethodGet, cfgs[0].URL+"/v1/slow", nil, &repSlow)
	found := false
	for _, q := range repSlow.Slowest {
		if q.Endpoint == "/v1/shard/search" {
			found = true
		}
	}
	if !found {
		t.Fatalf("replica slow log missing shard searches: %+v", repSlow.Slowest)
	}

	// Overhead histograms reach Prometheus text and the windowed digests.
	status, body := request(t, http.MethodGet, rts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", status)
	}
	text := string(body)
	for _, family := range []string{
		"qd_router_fanout_seconds", "qd_router_merge_seconds", "qd_router_straggler_wait_seconds",
	} {
		if !strings.Contains(text, family) {
			t.Fatalf("/metrics missing %s", family)
		}
	}
	var lat LatencyResponse
	mustJSON(t, http.MethodGet, rts.URL+"/v1/latency", nil, &lat)
	for _, digest := range []string{"router:fanout", "router:merge", "endpoint:/v1/knn"} {
		st, ok := lat.Digests[digest]["1m"]
		if !ok || st.Count == 0 {
			t.Fatalf("router latency digest %q empty: %+v", digest, lat.Digests[digest])
		}
	}
}

// TestRouterSessionTelemetry: the router hosts routed sessions, so its
// /v1/stats reports how many it holds and how many the cap evicted, and its
// /metrics exports the same two through the session gauge and counter a
// single node exports.
func TestRouterSessionTelemetry(t *testing.T) {
	f := fixture(t)
	cfgs := []ReplicaConfig{
		{Shard: 0, URL: startReplica(t, f.blobs[0]).URL},
		{Shard: 1, URL: startReplica(t, f.blobs[1]).URL},
		{Shard: 2, URL: startReplica(t, f.blobs[2]).URL},
	}
	rt, rts := startRouter(t, cfgs)
	rt.sessions.SetMax(2)

	stats := func() StatsResponse {
		var st StatsResponse
		mustJSON(t, http.MethodGet, rts.URL+"/v1/stats", nil, &st)
		return st
	}
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		var sess server.SessionResponse
		mustJSON(t, http.MethodPost, rts.URL+"/v1/sessions", map[string]int64{"seed": seed}, &sess)
		ids = append(ids, sess.SessionID)
	}
	if st := stats(); st.Sessions != 2 || st.SessionsEvicted != 1 {
		t.Fatalf("after 3 creates at cap 2: sessions %d, evicted %d; want 2 and 1", st.Sessions, st.SessionsEvicted)
	}
	if status, _ := request(t, http.MethodGet, rts.URL+"/v1/sessions/"+ids[0]+"/candidates", nil); status != http.StatusNotFound {
		t.Fatalf("evicted session answered HTTP %d, want 404", status)
	}
	mustJSON(t, http.MethodDelete, rts.URL+"/v1/sessions/"+ids[1], nil, nil)
	if st := stats(); st.Sessions != 1 || st.SessionsEvicted != 1 {
		t.Fatalf("after a delete: sessions %d, evicted %d; want 1 and 1", st.Sessions, st.SessionsEvicted)
	}

	status, body := request(t, http.MethodGet, rts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", status)
	}
	for _, line := range []string{obs.MetricSessionsHosted + " 1\n", obs.MetricSessionsEvicted + " 1\n"} {
		if !strings.Contains(string(body), line) {
			t.Fatalf("/metrics lacks %q:\n%s", line, body)
		}
	}
}
