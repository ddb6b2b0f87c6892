package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"qdcbir"
	"qdcbir/internal/core"
	"qdcbir/internal/server"
	"qdcbir/internal/shard"
)

// The integration fixture: one vector-mode corpus sliced three ways, with the
// serialized shard blobs cached so each test can open as many independent
// replica processes (session state and all) as it needs. The unsharded system
// doubles as the bit-exactness reference.
var (
	fixOnce sync.Once
	fix     *fleetFix
)

type fleetFix struct {
	sys   *qdcbir.System
	blobs [][]byte // serialized shard archives, index = shard
	err   error
}

func fixture(t *testing.T) *fleetFix {
	t.Helper()
	fixOnce.Do(func() {
		fix = &fleetFix{}
		cfg := qdcbir.SmallConfig()
		cfg.VectorMode = true
		cfg.Images = 600
		cfg.Categories = 12
		sys, err := qdcbir.Build(cfg)
		if err != nil {
			fix.err = err
			return
		}
		fix.sys = sys
		archives, err := qdcbir.SliceShards(context.Background(), sys, 3)
		if err != nil {
			fix.err = err
			return
		}
		for _, a := range archives {
			var buf bytes.Buffer
			if err := a.Write(&buf); err != nil {
				fix.err = err
				return
			}
			fix.blobs = append(fix.blobs, buf.Bytes())
		}
	})
	if fix.err != nil {
		t.Fatalf("fixture: %v", fix.err)
	}
	return fix
}

// startReplica opens one serving process over a serialized shard blob — the
// same assembly qdserve performs on a shard archive.
func startReplica(t *testing.T, blob []byte) *httptest.Server {
	t.Helper()
	rep, _, err := qdcbir.OpenShard(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("OpenShard: %v", err)
	}
	srv := server.NewShard(rep, nil)
	m := rep.Meta()
	srv.SetArchiveInfo(m.ArchiveVersion, m.Storage, false)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// startRef serves the unsharded system — the reference every routed result
// must match bit for bit.
func startRef(t *testing.T, f *fleetFix) *httptest.Server {
	t.Helper()
	srv := server.New(f.sys.Engine(), f.sys.SubconceptOf)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// startRouter verifies the fleet and serves the router front.
func startRouter(t *testing.T, cfgs []ReplicaConfig) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(Config{Replicas: cfgs})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := rt.VerifyFleet(context.Background()); err != nil {
		t.Fatalf("VerifyFleet: %v", err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// request issues one JSON request and returns (status, raw body).
func request(t *testing.T, method, url string, in interface{}) (int, []byte) {
	t.Helper()
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// mustJSON demands a 200 and decodes the body.
func mustJSON(t *testing.T, method, url string, in, out interface{}) {
	t.Helper()
	status, raw := request(t, method, url, in)
	if status != http.StatusOK {
		t.Fatalf("%s %s: HTTP %d: %s", method, url, status, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
}

// zeroFinalReads clears the one stat that legitimately differs between the
// routed and single-node finalize: the router runs the final k-NN round on
// the shards, so its own FinalReads counter is not meaningful.
func zeroFinalReads(q *server.QueryResponse) {
	q.Stats.FinalReads = 0
}

// TestRouterKNNAndQueryMatchSingleNode pins the acceptance bar for the
// stateless endpoints: the routed initial k-NN and the routed one-shot query
// return exactly the single-node IDs, distances, groups, and scores.
func TestRouterKNNAndQueryMatchSingleNode(t *testing.T) {
	f := fixture(t)
	cfgs := []ReplicaConfig{
		{Shard: 0, URL: ""}, {Shard: 1, URL: ""}, {Shard: 2, URL: ""},
	}
	for i := range cfgs {
		cfgs[i].URL = startReplica(t, f.blobs[i]).URL
	}
	_, rts := startRouter(t, cfgs)
	ref := startRef(t, f)

	for _, k := range []int{10, 50} {
		for _, ex := range []int{0, 37, 211} {
			want, err := f.sys.KNN(ex, k)
			if err != nil {
				t.Fatal(err)
			}
			var got KNNResponse
			mustJSON(t, http.MethodPost, rts.URL+"/v1/knn",
				KNNRequest{Query: f.sys.Corpus().Vectors[ex], K: k}, &got)
			if len(got.Neighbors) != len(want) {
				t.Fatalf("k=%d ex=%d: %d neighbors vs %d", k, ex, len(got.Neighbors), len(want))
			}
			for i, n := range got.Neighbors {
				if n.ID != want[i].ID || n.Dist != want[i].Score {
					t.Fatalf("k=%d ex=%d rank %d: (%d, %v) vs single-node (%d, %v)",
						k, ex, i, n.ID, n.Dist, want[i].ID, want[i].Score)
				}
			}
		}

		q := server.QueryRequest{Relevant: []int{3, 9, 12, 200, 201, 430, 77}, K: k}
		var viaRouter, viaRef server.QueryResponse
		mustJSON(t, http.MethodPost, rts.URL+"/v1/query", q, &viaRouter)
		mustJSON(t, http.MethodPost, ref.URL+"/v1/query", q, &viaRef)
		zeroFinalReads(&viaRouter)
		zeroFinalReads(&viaRef)
		if !reflect.DeepEqual(viaRouter, viaRef) {
			t.Fatalf("k=%d routed query diverges:\n  router %+v\n  single %+v", k, viaRouter, viaRef)
		}
	}
}

// byPath counts recorded backend requests by path.
func byPath(legs []leg) map[string]int {
	out := make(map[string]int)
	for _, l := range legs {
		out[l.path]++
	}
	return out
}

type candList struct {
	Candidates []server.CandidateJSON `json:"candidates"`
}

// everyThird marks every third displayed image, the scripted user of these
// tests.
func everyThird(cl candList) server.FeedbackRequest {
	var marks []int
	for i, c := range cl.Candidates {
		if i%3 == 0 {
			marks = append(marks, c.ID)
		}
	}
	return server.FeedbackRequest{Relevant: marks}
}

// mirrorRound plays one round on two session handles: one display each,
// which must agree, then the same marks, whose acks must agree.
func mirrorRound(t *testing.T, what string, got, want string) {
	t.Helper()
	var gc, wc candList
	mustJSON(t, http.MethodGet, got+"/candidates", nil, &gc)
	mustJSON(t, http.MethodGet, want+"/candidates", nil, &wc)
	if !reflect.DeepEqual(gc, wc) {
		t.Fatalf("%s: displays diverge:\n  router %+v\n  single %+v", what, gc, wc)
	}
	var gf, wf server.FeedbackResponse
	mustJSON(t, http.MethodPost, got+"/feedback", everyThird(gc), &gf)
	mustJSON(t, http.MethodPost, want+"/feedback", everyThird(gc), &wf)
	if gf != wf {
		t.Fatalf("%s: feedback diverges: router %+v single %+v", what, gf, wf)
	}
}

// finalizeTraffic checks that a finalize sent only points requests and
// search legs, and returns how many of each.
func finalizeTraffic(t *testing.T, sent map[string]int) (points, legs int) {
	t.Helper()
	for path, n := range sent {
		switch path {
		case "/v1/shard/points":
			points = n
		case "/v1/shard/search":
			legs = n
		default:
			t.Fatalf("finalize sent %d requests to %s; want only points requests and search legs (all: %v)", n, path, sent)
		}
	}
	return points, legs
}

// TestRouterSessionFlowMatchesSingleNode drives a full multi-round feedback
// session through the router — create, candidates, feedback, finalize — and
// demands every display, ack and the final ranking equal the single-node
// session under the same seed. The router hosts the session over its
// topology, so create and every round send no backend request, and finalize
// sends only the panel's points requests and the final round's search legs.
func TestRouterSessionFlowMatchesSingleNode(t *testing.T) {
	f := fixture(t)
	ct := &countingTransport{}
	rt, rtURL, _ := startCountedFleet(t, f, ct)
	ref := startRef(t, f)

	// play runs one session on both stacks: rounds of `displays` candidates
	// calls then one feedback, then a finalize at k. It returns the backend
	// requests the router sent before the finalize and during it.
	play := func(seed int64, rounds, displays, k int) (before, during map[string]int) {
		t.Helper()
		var rsid, ssid server.SessionResponse
		mustJSON(t, http.MethodPost, rtURL+"/v1/sessions", map[string]int64{"seed": seed}, &ssid)
		mustJSON(t, http.MethodPost, ref.URL+"/v1/sessions", map[string]int64{"seed": seed}, &rsid)
		routed, single := rtURL+"/v1/sessions/"+ssid.SessionID, ref.URL+"/v1/sessions/"+rsid.SessionID
		for round := 0; round < rounds; round++ {
			for d := 1; d < displays; d++ {
				var sc, rc candList
				mustJSON(t, http.MethodGet, routed+"/candidates", nil, &sc)
				mustJSON(t, http.MethodGet, single+"/candidates", nil, &rc)
				if !reflect.DeepEqual(sc, rc) {
					t.Fatalf("seed %d round %d display %d diverges:\n  router %+v\n  single %+v", seed, round, d, sc, rc)
				}
			}
			mirrorRound(t, fmt.Sprintf("seed %d round %d", seed, round), routed, single)
		}
		before = byPath(ct.take())
		kReq := map[string]int{"k": k}
		var sres, rres server.QueryResponse
		mustJSON(t, http.MethodPost, routed+"/finalize", kReq, &sres)
		during = byPath(ct.take())
		mustJSON(t, http.MethodPost, single+"/finalize", kReq, &rres)
		zeroFinalReads(&sres)
		zeroFinalReads(&rres)
		if !reflect.DeepEqual(sres, rres) {
			t.Fatalf("seed %d: routed finalize diverges:\n  router %+v\n  single %+v", seed, sres, rres)
		}
		// Finalize released the session at the router.
		if status, _ := request(t, http.MethodGet, routed+"/candidates", nil); status != http.StatusNotFound {
			t.Fatalf("finalized session still reachable: HTTP %d", status)
		}
		return before, during
	}

	scatters := counter(rt, "qd_router_scatters_total")
	before, during := play(11, 3, 1, 25)
	if len(before) != 0 {
		t.Fatalf("create and three rounds sent backend requests %v, want none", before)
	}
	points, legs := finalizeTraffic(t, during)
	fetches := int(counter(rt, "qd_router_scatters_total") - scatters)
	if shards := rt.Shards(); points < 1 || points > shards || legs != fetches*shards {
		t.Fatalf("finalize sent %d points requests and %d search legs over %d fetches; want 1..%d and one leg per shard per fetch",
			points, legs, fetches, shards)
	}

	// The benchmark's session shape: create, then two rounds of four
	// displays and one feedback each. Hosted on a replica it cost 11
	// backend requests before finalize and 8 in it (an export, 3 points
	// requests, 3 search legs and a delete).
	before, during = play(5, 2, 4, 20)
	if len(before) != 0 {
		t.Fatalf("bench-shaped session sent backend requests %v before finalize, want none", before)
	}
	points, legs = finalizeTraffic(t, during)
	if points+legs != 6 {
		t.Fatalf("bench-shaped finalize sent %d points requests and %d search legs, want 6 requests", points, legs)
	}
	t.Logf("bench-shaped session: 0 backend requests before finalize, %d in it (%d points, %d legs)", points+legs, points, legs)
}

// TestRouterFailoverAndSessionRecovery kills shard 0's first replica
// between two rounds of a routed session. The session lives at the router,
// so the next round succeeds with the single node's display, and finalize
// fails over per leg to the surviving shard-0 replica, bit-identical to a
// restore of the exported state on the unsharded reference server. A router
// restart is recovered by the export: importing it into a fresh router over
// the same fleet finalizes identically.
func TestRouterFailoverAndSessionRecovery(t *testing.T) {
	f := fixture(t)
	// Two replicas on shard 0 so the shard survives losing one.
	s0a := startReplica(t, f.blobs[0])
	s0b := startReplica(t, f.blobs[0])
	cfgs := []ReplicaConfig{
		{Shard: 0, URL: s0a.URL},
		{Shard: 0, URL: s0b.URL},
		{Shard: 1, URL: startReplica(t, f.blobs[1]).URL},
		{Shard: 2, URL: startReplica(t, f.blobs[2]).URL},
	}
	rt, rts := startRouter(t, cfgs)
	// A second router over the same fleet, holding none of the first's
	// sessions: what a restarted router is.
	_, fresh := startRouter(t, cfgs)
	ref := startRef(t, f)

	var rsid, ssid server.SessionResponse
	mustJSON(t, http.MethodPost, rts.URL+"/v1/sessions", map[string]int64{"seed": 23}, &rsid)
	mustJSON(t, http.MethodPost, ref.URL+"/v1/sessions", map[string]int64{"seed": 23}, &ssid)
	routed, single := rts.URL+"/v1/sessions/"+rsid.SessionID, ref.URL+"/v1/sessions/"+ssid.SessionID
	mirrorRound(t, "round 1", routed, single)

	s0a.Close() // shard 0's first replica goes down mid-session

	mirrorRound(t, "round 2 (replica down)", routed, single)

	// The reference: the exported state restored on the unsharded server.
	var exported server.SessionExport
	mustJSON(t, http.MethodGet, routed+"/export", nil, &exported)
	if exported.State == nil {
		t.Fatal("export returned no state")
	}
	var refSid server.SessionResponse
	mustJSON(t, http.MethodPost, ref.URL+"/v1/sessions/import", exported, &refSid)
	var want server.QueryResponse
	mustJSON(t, http.MethodPost, ref.URL+"/v1/sessions/"+refSid.SessionID+"/finalize", map[string]int{"k": 10}, &want)
	zeroFinalReads(&want)

	// Aim the finalize's first shard-0 leg at the dead replica (pick starts
	// at cursor+1 mod 2), so the finalize itself has to fail over.
	rt.rr[0].Store(1)
	failovers := counter(rt, "qd_router_failovers_total")
	var got server.QueryResponse
	mustJSON(t, http.MethodPost, routed+"/finalize", map[string]int{"k": 10}, &got)
	zeroFinalReads(&got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("finalize after failover diverges:\n  router %+v\n  single %+v", got, want)
	}
	if counter(rt, "qd_router_failovers_total") == failovers || rt.shards[0][0].alive.Load() {
		t.Fatal("finalize never failed over from the dead shard-0 replica")
	}

	// Router restart: the export imported into a fresh router finalizes
	// identically.
	var resumed server.SessionResponse
	mustJSON(t, http.MethodPost, fresh.URL+"/v1/sessions/import", exported, &resumed)
	var again server.QueryResponse
	mustJSON(t, http.MethodPost, fresh.URL+"/v1/sessions/"+resumed.SessionID+"/finalize", map[string]int{"k": 10}, &again)
	zeroFinalReads(&again)
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("finalize on a fresh router diverges:\n  router %+v\n  single %+v", again, want)
	}

	// Stateless reads fail over too, still bit-identical.
	knnWant, err := f.sys.KNN(37, 10)
	if err != nil {
		t.Fatal(err)
	}
	var knnGot KNNResponse
	mustJSON(t, http.MethodPost, rts.URL+"/v1/knn",
		KNNRequest{Query: f.sys.Corpus().Vectors[37], K: 10}, &knnGot)
	for i, n := range knnGot.Neighbors {
		if n.ID != knnWant[i].ID || n.Dist != knnWant[i].Score {
			t.Fatalf("failover knn rank %d: (%d, %v) vs (%d, %v)", i, n.ID, n.Dist, knnWant[i].ID, knnWant[i].Score)
		}
	}
}

// TestReplicaRefusesLocalFinalize pins the replica-side guard on sessions:
// a shard server holds one slice of the corpus and hosts no session (routed
// sessions live at the router), so creating, importing or finalizing one on
// it is refused with the structured 409 naming the router.
func TestReplicaRefusesLocalFinalize(t *testing.T) {
	f := fixture(t)
	rep := startReplica(t, f.blobs[1])
	for _, c := range []struct {
		path string
		body interface{}
	}{
		{"/v1/sessions", map[string]int64{"seed": 3}},
		{"/v1/sessions/import", server.SessionExport{Seed: 3}},
		{"/v1/sessions/1/finalize", map[string]int{"k": 10}},
	} {
		status, raw := request(t, http.MethodPost, rep.URL+c.path, c.body)
		if status != http.StatusConflict {
			t.Fatalf("replica %s: HTTP %d (%s), want 409", c.path, status, raw)
		}
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Code != server.ErrCodeShardFinalize || !strings.Contains(eb.Error, "router") {
			t.Fatalf("replica %s body %s, want code %s naming the router", c.path, raw, server.ErrCodeShardFinalize)
		}
	}
}

// TestRouterDefaultDisplayMatchesSingleNode: over a fleet whose archives
// leave display_count unset, routed sessions show the round machine's
// default display — what the single node shows for the same seed.
func TestRouterDefaultDisplayMatchesSingleNode(t *testing.T) {
	cfg := qdcbir.SmallConfig()
	cfg.VectorMode = true
	cfg.Images = 400
	cfg.Categories = 8
	sys, err := qdcbir.Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	archives, err := qdcbir.SliceShards(context.Background(), sys, 2)
	if err != nil {
		t.Fatalf("SliceShards: %v", err)
	}
	var cfgs []ReplicaConfig
	for i, a := range archives {
		a.Meta.DisplayCount = 0
		var buf bytes.Buffer
		if err := a.Write(&buf); err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, ReplicaConfig{Shard: i, URL: startReplica(t, buf.Bytes()).URL})
	}
	rt, rts := startRouter(t, cfgs)
	if rt.Meta().DisplayCount != 0 {
		t.Fatalf("fleet display_count %d survived as nonzero", rt.Meta().DisplayCount)
	}
	refSrv := httptest.NewServer(server.New(sys.Engine(), sys.SubconceptOf).Handler())
	t.Cleanup(refSrv.Close)
	display := func(url string) []server.CandidateJSON {
		var sess server.SessionResponse
		mustJSON(t, http.MethodPost, url+"/v1/sessions", map[string]int64{"seed": 11}, &sess)
		var out candList
		mustJSON(t, http.MethodGet, url+"/v1/sessions/"+sess.SessionID+"/candidates", nil, &out)
		return out.Candidates
	}
	got, want := display(rts.URL), display(refSrv.URL)
	if len(want) != core.DefaultDisplayCount || !reflect.DeepEqual(got, want) {
		t.Fatalf("routed display (display_count 0):\n  got  %v\n  want %v (%d candidates)", got, want, core.DefaultDisplayCount)
	}
}

// TestReplicaRefusesLocalQuery pins the replica-side guard on the
// client-side mode: a replica holds one slice of the corpus, so a one-shot
// query or a payload export answered from it would be a ranking no
// single-node build emits. Both are refused with the structured 409 naming
// the router, and the router answers the same query.
func TestReplicaRefusesLocalQuery(t *testing.T) {
	f := fixture(t)
	rep := startReplica(t, f.blobs[0])
	query := server.QueryRequest{Relevant: []int{3, 9, 200}, K: 10}
	for _, c := range []struct {
		method, path string
		body         interface{}
	}{
		{http.MethodPost, "/v1/query", query},
		{http.MethodGet, "/v1/payload", nil},
	} {
		status, raw := request(t, c.method, rep.URL+c.path, c.body)
		if status != http.StatusConflict {
			t.Fatalf("replica %s: HTTP %d (%s), want 409", c.path, status, raw)
		}
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Code != server.ErrCodeShardFinalize || !strings.Contains(eb.Error, "router") {
			t.Fatalf("replica %s body %s, want code %s naming the router", c.path, raw, server.ErrCodeShardFinalize)
		}
	}
	var cfgs []ReplicaConfig
	for i, blob := range f.blobs {
		cfgs = append(cfgs, ReplicaConfig{Shard: i, URL: startReplica(t, blob).URL})
	}
	_, rts := startRouter(t, cfgs)
	var got server.QueryResponse
	mustJSON(t, http.MethodPost, rts.URL+"/v1/query", query, &got)
	if len(got.Groups) == 0 {
		t.Fatal("router answered the refused query with no groups")
	}
}

// TestReplicaBuildInfoExposesShard covers the fleet-introspection satellite:
// a shard replica's /v1/buildinfo carries the archive format version, the
// scan precision tag, and its shard coordinates; its corpus shape — images,
// tree height, representatives, in /v1/buildinfo and /v1/info alike — comes
// from the shared topology, so every replica reports what the single node
// does.
func TestReplicaBuildInfoExposesShard(t *testing.T) {
	f := fixture(t)
	rep := startReplica(t, f.blobs[2])
	var bi server.BuildInfoResponse
	mustJSON(t, http.MethodGet, rep.URL+"/v1/buildinfo", nil, &bi)
	if bi.ArchiveVersion < 1 {
		t.Fatalf("buildinfo archive_version %d, want >= 1", bi.ArchiveVersion)
	}
	if bi.Precision != "f64" {
		t.Fatalf("buildinfo precision %q, want f64", bi.Precision)
	}
	if bi.ShardIndex == nil || *bi.ShardIndex != 2 || bi.ShardCount != 3 {
		t.Fatalf("buildinfo shard coordinates %v/%d, want 2/3", bi.ShardIndex, bi.ShardCount)
	}

	ref := startRef(t, f)
	var refBI server.BuildInfoResponse
	var refInfo server.InfoResponse
	mustJSON(t, http.MethodGet, ref.URL+"/v1/buildinfo", nil, &refBI)
	mustJSON(t, http.MethodGet, ref.URL+"/v1/info", nil, &refInfo)
	if refInfo.Representatives != f.sys.RepresentativeCount() || refInfo.TreeHeight < 2 {
		t.Fatalf("single-node info %+v", refInfo)
	}
	for i, blob := range f.blobs {
		r := startReplica(t, blob)
		var rbi server.BuildInfoResponse
		var info server.InfoResponse
		mustJSON(t, http.MethodGet, r.URL+"/v1/buildinfo", nil, &rbi)
		mustJSON(t, http.MethodGet, r.URL+"/v1/info", nil, &info)
		if rbi.Images != refBI.Images || rbi.TreeHeight != refBI.TreeHeight {
			t.Fatalf("replica %d buildinfo images/tree_height %d/%d, single node %d/%d",
				i, rbi.Images, rbi.TreeHeight, refBI.Images, refBI.TreeHeight)
		}
		if info != refInfo {
			t.Fatalf("replica %d /v1/info %+v, single node %+v", i, info, refInfo)
		}
	}
}

// TestVerifyFleetRefusesMixedPrecision builds a doctored fleet whose replicas
// disagree on the row precision and demands VerifyFleet rejects it — merging
// float32 and float64 distance lists would produce a ranking no single-node
// build emits.
func TestVerifyFleetRefusesMixedPrecision(t *testing.T) {
	stub := func(idx int, prec string) *httptest.Server {
		mux := http.NewServeMux()
		meta := shard.Meta{
			ShardIndex: idx, ShardCount: 2, Images: 10, LocalImages: 5, Dim: 2,
			Storage: prec, ArchiveVersion: 3, CorpusSig: 42,
		}
		mux.HandleFunc("/v1/shard/meta", func(w http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(w).Encode(server.ShardMetaResponse{Meta: meta, WireVersion: server.ShardWireVersion})
		})
		mux.HandleFunc("/v1/buildinfo", func(w http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(w).Encode(map[string]interface{}{
				"archive_version": 3, "precision": prec, "quantized": false,
				"shard_index": idx, "shard_count": 2,
			})
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	rt, err := New(Config{Replicas: []ReplicaConfig{
		{Shard: 0, URL: stub(0, "f64").URL},
		{Shard: 1, URL: stub(1, "f32").URL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.VerifyFleet(context.Background())
	if err == nil || !strings.Contains(err.Error(), "mixed-precision") {
		t.Fatalf("VerifyFleet = %v, want mixed-precision refusal", err)
	}
}

// TestNewRefusesOutOfRangeShard: shards are 0..n-1 and each needs a
// replica, so a shard index at or past the replica count is refused before
// New sizes anything by it. At index 1<<20 the old order allocated ~32 MB of
// shard tables before finding shard 0 empty.
func TestNewRefusesOutOfRangeShard(t *testing.T) {
	cfg := Config{Replicas: []ReplicaConfig{{Shard: 1 << 20, URL: "http://unused"}}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rt, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err == nil || rt != nil {
		t.Fatalf("New accepted shard index %d with one replica", cfg.Replicas[0].Shard)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b >= 64<<10 {
		t.Fatalf("refusing shard index %d allocated %d B; the gate is < 64 KB", cfg.Replicas[0].Shard, b)
	}
	// An index inside the replica count but with a gap below it is still
	// refused by the per-shard check.
	gap := Config{Replicas: []ReplicaConfig{{Shard: 0, URL: "http://a"}, {Shard: 0, URL: "http://b"}, {Shard: 2, URL: "http://c"}}}
	if _, err := New(gap); err == nil || !strings.Contains(err.Error(), "shard 1 has no replicas") {
		t.Fatalf("New with shard 1 missing: %v", err)
	}
}
