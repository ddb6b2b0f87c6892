package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qdcbir"
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
	srv.SetArchiveInfo(m.ArchiveVersion, m.Precision, false)
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

// TestRouterSessionFlowMatchesSingleNode drives a full multi-round feedback
// session through the router — create, candidates, feedback, finalize — and
// demands every display and the final ranking equal the single-node session
// under the same seed.
func TestRouterSessionFlowMatchesSingleNode(t *testing.T) {
	f := fixture(t)
	cfgs := []ReplicaConfig{
		{Shard: 0, URL: startReplica(t, f.blobs[0]).URL},
		{Shard: 1, URL: startReplica(t, f.blobs[1]).URL},
		{Shard: 2, URL: startReplica(t, f.blobs[2]).URL},
	}
	_, rts := startRouter(t, cfgs)
	ref := startRef(t, f)

	seedBody := map[string]int64{"seed": 11}
	var rsid, ssid server.SessionResponse
	mustJSON(t, http.MethodPost, rts.URL+"/v1/sessions", seedBody, &ssid)
	mustJSON(t, http.MethodPost, ref.URL+"/v1/sessions", seedBody, &rsid)
	if !strings.HasPrefix(ssid.SessionID, "s") {
		t.Fatalf("router issued non-composite session id %q", ssid.SessionID)
	}

	type candList struct {
		Candidates []server.CandidateJSON `json:"candidates"`
	}
	for round := 0; round < 3; round++ {
		var sc, rc candList
		mustJSON(t, http.MethodGet, rts.URL+"/v1/sessions/"+ssid.SessionID+"/candidates", nil, &sc)
		mustJSON(t, http.MethodGet, ref.URL+"/v1/sessions/"+rsid.SessionID+"/candidates", nil, &rc)
		if !reflect.DeepEqual(sc, rc) {
			t.Fatalf("round %d displays diverge:\n  router %+v\n  single %+v", round, sc, rc)
		}
		var marks []int
		for i, c := range sc.Candidates {
			if i%3 == 0 {
				marks = append(marks, c.ID)
			}
		}
		fb := server.FeedbackRequest{Relevant: marks}
		var sf, rf server.FeedbackResponse
		mustJSON(t, http.MethodPost, rts.URL+"/v1/sessions/"+ssid.SessionID+"/feedback", fb, &sf)
		mustJSON(t, http.MethodPost, ref.URL+"/v1/sessions/"+rsid.SessionID+"/feedback", fb, &rf)
		if sf != rf {
			t.Fatalf("round %d feedback diverges: router %+v single %+v", round, sf, rf)
		}
	}

	kReq := map[string]int{"k": 25}
	var sres, rres server.QueryResponse
	mustJSON(t, http.MethodPost, rts.URL+"/v1/sessions/"+ssid.SessionID+"/finalize", kReq, &sres)
	mustJSON(t, http.MethodPost, ref.URL+"/v1/sessions/"+rsid.SessionID+"/finalize", kReq, &rres)
	zeroFinalReads(&sres)
	zeroFinalReads(&rres)
	if !reflect.DeepEqual(sres, rres) {
		t.Fatalf("routed finalize diverges:\n  router %+v\n  single %+v", sres, rres)
	}

	// Finalize released the hosted session on its replica.
	if status, _ := request(t, http.MethodGet, rts.URL+"/v1/sessions/"+ssid.SessionID+"/candidates", nil); status != http.StatusNotFound {
		t.Fatalf("finalized session still reachable: HTTP %d", status)
	}
}

// TestRouterFailoverAndSessionRecovery kills the replica hosting a mid-flight
// session: reads that can fail over (k-NN) stay bit-identical, the lost
// session reports the structured 410, and re-importing the exported state
// through the router resumes it with a finalize identical to a restore on the
// unsharded reference server.
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
	_, rts := startRouter(t, cfgs)
	ref := startRef(t, f)

	// Place a session on the doomed replica (placement round-robins, so a few
	// tries suffice; surplus sessions are deleted).
	var sid string
	for try := 0; try < 8 && sid == ""; try++ {
		var resp server.SessionResponse
		mustJSON(t, http.MethodPost, rts.URL+"/v1/sessions", map[string]int64{"seed": 23}, &resp)
		if strings.HasPrefix(resp.SessionID, "s0-0-") {
			sid = resp.SessionID
		} else {
			mustJSON(t, http.MethodDelete, rts.URL+"/v1/sessions/"+resp.SessionID, nil, nil)
		}
	}
	if sid == "" {
		t.Fatal("round-robin placement never landed on shard 0 replica 0")
	}

	type candList struct {
		Candidates []server.CandidateJSON `json:"candidates"`
	}
	for round := 0; round < 2; round++ {
		var cl candList
		mustJSON(t, http.MethodGet, rts.URL+"/v1/sessions/"+sid+"/candidates", nil, &cl)
		var marks []int
		for i, c := range cl.Candidates {
			if i%3 == 0 {
				marks = append(marks, c.ID)
			}
		}
		mustJSON(t, http.MethodPost, rts.URL+"/v1/sessions/"+sid+"/feedback",
			server.FeedbackRequest{Relevant: marks}, nil)
	}

	// Snapshot the session, then compute the reference finalize by restoring
	// the same state on the unsharded server.
	var exported server.SessionExport
	mustJSON(t, http.MethodGet, rts.URL+"/v1/sessions/"+sid+"/export", nil, &exported)
	if exported.State == nil {
		t.Fatal("export returned no state")
	}
	var refSid server.SessionResponse
	mustJSON(t, http.MethodPost, ref.URL+"/v1/sessions/import", exported, &refSid)
	var want server.QueryResponse
	mustJSON(t, http.MethodPost, ref.URL+"/v1/sessions/"+refSid.SessionID+"/finalize", map[string]int{"k": 10}, &want)

	s0a.Close() // the host goes down mid-session

	// The session is gone — structured 410 so clients know to re-import.
	status, raw := request(t, http.MethodGet, rts.URL+"/v1/sessions/"+sid+"/candidates", nil)
	if status != http.StatusGone {
		t.Fatalf("lost session: HTTP %d (%s), want 410", status, raw)
	}
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Code != "session_lost" {
		t.Fatalf("lost session body %s, want code session_lost", raw)
	}

	// Stateless reads fail over to the surviving shard-0 replica, still
	// bit-identical.
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

	// Re-import the exported state through the router and finalize: identical
	// to the unsharded restore.
	var resumed server.SessionResponse
	mustJSON(t, http.MethodPost, rts.URL+"/v1/sessions/import", exported, &resumed)
	var got server.QueryResponse
	mustJSON(t, http.MethodPost, rts.URL+"/v1/sessions/"+resumed.SessionID+"/finalize", map[string]int{"k": 10}, &got)
	zeroFinalReads(&got)
	zeroFinalReads(&want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed finalize diverges:\n  router %+v\n  single %+v", got, want)
	}
}

// TestReplicaRefusesLocalFinalize pins the replica-side guard: a shard server
// cannot finalize a hosted session by itself (it holds one slice of the
// corpus) and says so with the structured 409.
func TestReplicaRefusesLocalFinalize(t *testing.T) {
	f := fixture(t)
	rep := startReplica(t, f.blobs[1])
	var sid server.SessionResponse
	mustJSON(t, http.MethodPost, rep.URL+"/v1/sessions", map[string]int64{"seed": 3}, &sid)
	status, raw := request(t, http.MethodPost, rep.URL+"/v1/sessions/"+sid.SessionID+"/finalize", map[string]int{"k": 10})
	if status != http.StatusConflict {
		t.Fatalf("local finalize: HTTP %d (%s), want 409", status, raw)
	}
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Code != server.ErrCodeShardFinalize {
		t.Fatalf("local finalize body %s, want code %s", raw, server.ErrCodeShardFinalize)
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
// disagree on the scan precision and demands VerifyFleet rejects it — merging
// float32 and float64 distance lists would produce a ranking no single-node
// build emits.
func TestVerifyFleetRefusesMixedPrecision(t *testing.T) {
	stub := func(idx int, prec string) *httptest.Server {
		mux := http.NewServeMux()
		meta := shard.Meta{
			ShardIndex: idx, ShardCount: 2, Images: 10, LocalImages: 5, Dim: 2,
			Precision: prec, ArchiveVersion: 3, CorpusSig: 42,
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
