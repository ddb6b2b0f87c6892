package router

// Tests of the fleet-internal wire: what crosses between the router and its
// shards, counted exactly, and that none of it shows on the public wire.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"qdcbir"
	"qdcbir/internal/server"
	"qdcbir/internal/shard"
	"qdcbir/internal/source"
)

// The second fixture: 2,000 labelled 512-d float32 embeddings in 20 loose
// clusters, the shape the routed tier serves (bench's knn_routed workload),
// where a vector printed as JSON is ~10 KB.
var (
	fix32Once sync.Once
	fix32     *fleetFix
)

type batchSource struct{ b *source.Batch }

func (batchSource) Format() string                    { return "test-batch" }
func (s batchSource) Vectors() (*source.Batch, error) { return s.b, nil }

func fixtureF32(t *testing.T) *fleetFix {
	t.Helper()
	fix32Once.Do(func() {
		fix32 = &fleetFix{}
		const n, dim, clusters = 2000, 512, 20
		rng := rand.New(rand.NewSource(5))
		centers := make([]float32, clusters*dim)
		for i := range centers {
			centers[i] = rng.Float32()
		}
		b := &source.Batch{Dim: dim, Data32: make([]float32, n*dim), Labels: make([]string, n)}
		for i := 0; i < n; i++ {
			c := i % clusters
			for d := 0; d < dim; d++ {
				b.Data32[i*dim+d] = centers[c*dim+d] + 0.08*float32(rng.NormFloat64())
			}
			b.Labels[i] = fmt.Sprintf("emb/c%02d", c)
		}
		sys, err := qdcbir.BuildFromSource(qdcbir.Config{Seed: 3, NodeCapacity: 40, RepFraction: 0.1}, batchSource{b})
		if err != nil {
			fix32.err = err
			return
		}
		fix32.sys = sys
		archives, err := qdcbir.SliceShards(context.Background(), sys, 3)
		if err != nil {
			fix32.err = err
			return
		}
		for _, a := range archives {
			var buf bytes.Buffer
			if err := a.Write(&buf); err != nil {
				fix32.err = err
				return
			}
			fix32.blobs = append(fix32.blobs, buf.Bytes())
		}
	})
	if fix32.err != nil {
		t.Fatalf("f32 fixture: %v", fix32.err)
	}
	return fix32
}

// leg is one backend request as the counting transport saw it.
type leg struct {
	path               string
	contentType        string // of the request
	accept             string
	reqBytes           int
	body               *byte // first byte of the slice the request body was read from
	respType           string
	respBytes          int
	answeredByTheFleet bool
}

// countingTransport records every backend request a router makes. shed, when
// set, answers matching requests with a structured 503 before they reach the
// replica — an overloaded replica, from the router's side.
type countingTransport struct {
	shed func(*http.Request) bool

	mu   sync.Mutex
	legs []leg
}

// sliceSpy is the io.Writer a *bytes.Reader's WriteTo hands its unread slice
// to — the slice itself, not a copy.
type sliceSpy struct{ p []byte }

func (s *sliceSpy) Write(p []byte) (int, error) { s.p = p; return len(p), nil }

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	l := leg{path: req.URL.Path, contentType: req.Header.Get("Content-Type"), accept: req.Header.Get("Accept")}
	if req.Body != nil {
		// The router builds its requests over a *bytes.Reader, which net/http
		// wraps in a NopCloser that forwards WriteTo; WriteTo passes the
		// reader's own slice, so the address of its first byte tells two
		// sends of one encoding from two encodings of one query.
		wt, ok := req.Body.(io.WriterTo)
		if !ok {
			return nil, fmt.Errorf("countingTransport: request body is %T, not a forwarded *bytes.Reader", req.Body)
		}
		var spy sliceSpy
		if _, err := wt.WriteTo(&spy); err != nil {
			return nil, err
		}
		l.reqBytes = len(spy.p)
		if len(spy.p) > 0 {
			l.body = &spy.p[0]
		}
		req.Body = io.NopCloser(bytes.NewReader(spy.p))
	}
	var resp *http.Response
	if c.shed != nil && c.shed(req) {
		resp = &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Header:     http.Header{"Content-Type": {"application/json"}},
			Body:       io.NopCloser(strings.NewReader(`{"error":"shed by the test","code":"` + server.ErrCodeDeadline + `"}`)),
			Request:    req,
		}
	} else {
		var err error
		if resp, err = http.DefaultTransport.RoundTrip(req); err != nil {
			return nil, err
		}
		l.answeredByTheFleet = true
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		l.respBytes = len(raw)
		resp.Body = io.NopCloser(bytes.NewReader(raw))
	}
	l.respType = resp.Header.Get("Content-Type")
	c.mu.Lock()
	c.legs = append(c.legs, l)
	c.mu.Unlock()
	return resp, nil
}

// take returns the legs recorded since the last call.
func (c *countingTransport) take() []leg {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.legs
	c.legs = nil
	return out
}

// startCountedFleet serves the fixture's shards (replicas[i] copies of shard
// i) behind a router whose backend client is the counting transport.
func startCountedFleet(t *testing.T, f *fleetFix, ct *countingTransport, replicas ...int) (*Router, string, [][]string) {
	t.Helper()
	var cfgs []ReplicaConfig
	hosts := make([][]string, len(f.blobs))
	for i, blob := range f.blobs {
		n := 1
		if i < len(replicas) {
			n = replicas[i]
		}
		for r := 0; r < n; r++ {
			url := startReplica(t, blob).URL
			cfgs = append(cfgs, ReplicaConfig{Shard: i, URL: url})
			hosts[i] = append(hosts[i], strings.TrimPrefix(url, "http://"))
		}
	}
	rt, err := New(Config{Replicas: cfgs, Client: &http.Client{Transport: ct}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := rt.VerifyFleet(context.Background()); err != nil {
		t.Fatalf("VerifyFleet: %v", err)
	}
	ct.take()
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts.URL, hosts
}

func counter(rt *Router, name string) uint64 { return rt.obs.Registry().Snapshot().Counters[name] }

// TestRoutedQueryExactTraffic counts what one routed /v1/query costs the
// fleet: one points leg per shard owning an example and one search leg per
// shard for the final round's fetch, and nothing else (the label round is
// gone, and the query's seven examples form several groups but no top-up).
// Each search leg is the frame of every group's search, 12 + G·(12 + 8·dim)
// bytes, encoded once per fetch and sent as the same bytes on every leg —
// fail-over attempts included; the ≤ 16 example vectors come back framed;
// and everything the shards send back for the query is smaller than the k
// vectors the label round alone used to print.
func TestRoutedQueryExactTraffic(t *testing.T) {
	f := fixtureF32(t)
	const k = 50
	q := server.QueryRequest{Relevant: []int{0, 1, 2, 3, 424, 425, 1266}, K: k}
	dim := f.sys.Corpus().Store().Dim()
	owners := map[int]bool{}
	for _, id := range q.Relevant {
		owners[shard.Assign(id, 3)] = true
	}
	vecJSON, _ := json.Marshal(f.sys.Corpus().Vectors[q.Relevant[0]])

	check := func(t *testing.T, legs []leg, scatters uint64, groups, maxSendsPerFrame int) {
		t.Helper()
		var points, answeredSearches, fromShards int
		sends := map[*byte]int{}
		frameBytes := 12 + groups*(12+8*dim)
		for _, l := range legs {
			fromShards += l.respBytes
			switch l.path {
			case "/v1/shard/points":
				points++
				if l.accept != server.ShardBinaryType || l.respType != server.ShardBinaryType {
					t.Errorf("points leg asked %q, was answered %q; want the framed reply", l.accept, l.respType)
				}
			case "/v1/shard/search":
				if l.answeredByTheFleet {
					answeredSearches++
				}
				sends[l.body]++
				if l.contentType != server.ShardBinaryType || l.reqBytes != frameBytes {
					t.Errorf("search leg body is %d bytes of %q, want the %d-byte frame of %d searches", l.reqBytes, l.contentType, frameBytes, groups)
				}
				if l.accept != server.ShardBinaryType || (l.answeredByTheFleet && l.respType != server.ShardBinaryType) {
					t.Errorf("search leg asked %q, was answered %q; want the framed reply", l.accept, l.respType)
				}
			default:
				t.Errorf("unexpected backend request %s", l.path)
			}
		}
		if points != len(owners) {
			t.Errorf("%d points legs, want one per owning shard (%d)", points, len(owners))
		}
		if scatters != 1 {
			t.Errorf("%d scatters, want one: the final round's one fetch", scatters)
		}
		if uint64(answeredSearches) != 3*scatters {
			t.Errorf("%d search legs answered for %d scatters, want 3 per scatter", answeredSearches, scatters)
		}
		if uint64(len(sends)) != scatters {
			t.Errorf("%d distinct search-frame encodings for %d scatters, want one per scatter", len(sends), scatters)
		}
		for _, n := range sends {
			if n < 3 || n > maxSendsPerFrame {
				t.Errorf("a search frame was sent %d times, want 3..%d", n, maxSendsPerFrame)
			}
		}
		if limit := k * len(vecJSON); fromShards >= limit {
			t.Errorf("shards sent %d bytes back for one query; the label round alone used to cost %d (k × a %d-byte printed vector)",
				fromShards, limit, len(vecJSON))
		}
		t.Logf("%d backend requests (%d points + %d search for %d scatters of %d searches), %d bytes from shards, printed vector %d bytes",
			len(legs), points, len(legs)-points, scatters, groups, fromShards, len(vecJSON))
	}

	ct := &countingTransport{}
	rt, url, _ := startCountedFleet(t, f, ct)
	before := counter(rt, "qd_router_scatters_total")
	status, want := request(t, http.MethodPost, url+"/v1/query", q)
	if status != http.StatusOK {
		t.Fatalf("routed query: HTTP %d (%s)", status, want)
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(want, &resp); err != nil {
		t.Fatal(err)
	}
	groups := len(resp.Groups)
	if groups < 2 {
		t.Fatalf("the query formed %d groups; a one-search frame would measure nothing", groups)
	}
	scatters := counter(rt, "qd_router_scatters_total") - before
	legs := ct.take()
	check(t, legs, scatters, groups, 3)
	if len(legs) != len(owners)+3 {
		t.Errorf("%d backend requests, want %d points + 3 search", len(legs), len(owners))
	}

	// Shard 0 gains a second replica and its first sheds every search: each
	// scatter that tries it first fails over, re-sending the frame it already
	// has, and the answer does not change.
	shedding := &countingTransport{}
	rt, url, hosts := startCountedFleet(t, f, shedding, 2)
	shedding.shed = func(r *http.Request) bool {
		return r.URL.Host == hosts[0][0] && r.URL.Path == "/v1/shard/search"
	}
	before = counter(rt, "qd_router_scatters_total")
	status, got := request(t, http.MethodPost, url+"/v1/query", q)
	if status != http.StatusOK {
		t.Fatalf("routed query over a shedding replica: HTTP %d (%s)", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fail-over changed the answer:\n  shedding %s\n  healthy  %s", got, want)
	}
	if n := counter(rt, "qd_router_failovers_total"); n == 0 {
		t.Error("no fail-over happened; the second half of this test measured nothing")
	}
	check(t, shedding.take(), counter(rt, "qd_router_scatters_total")-before, groups, 4)
}

var finalReads = regexp.MustCompile(`"final_reads":\d+`)

// sameButFinalReads compares two /v1/query-shaped bodies byte for byte, after
// blanking the one figure that legitimately differs: the router runs the
// final k-NN round on its shards, so it has no page reads of its own to report.
func sameButFinalReads(a, b []byte) bool {
	return bytes.Equal(finalReads.ReplaceAll(a, []byte(`"final_reads":0`)), finalReads.ReplaceAll(b, []byte(`"final_reads":0`)))
}

// TestRoutedBodiesMatchSingleNode holds the public wire still: routed
// /v1/query and routed session-finalize bodies — groups, scores, labels,
// stats — are the bytes a single-node server over the same corpus answers,
// at both scan precisions, weighted, and when the top-up loop has to search
// again.
func TestRoutedBodiesMatchSingleNode(t *testing.T) {
	for _, fc := range []struct {
		name     string
		fix      func(*testing.T) *fleetFix
		examples []int
		// A query whose groups search overlapping areas: the first-claim merge
		// leaves a deficit and the top-up loop scatters again to fill it.
		topUp server.QueryRequest
	}{
		{"f64", fixture, []int{3, 9, 12, 200, 201, 430, 77}, server.QueryRequest{Relevant: []int{188, 215, 214}, K: 50}},
		{"f32", fixtureF32, []int{0, 1, 2, 3, 424, 425, 1266}, server.QueryRequest{Relevant: []int{1371, 1379, 1385}, K: 100}},
	} {
		t.Run(fc.name, func(t *testing.T) {
			f := fc.fix(t)
			rt, url, _ := startCountedFleet(t, f, &countingTransport{})
			ref := startRef(t, f)
			dim := f.sys.Corpus().Store().Dim()
			weights := make([]float64, dim)
			for i := range weights {
				weights[i] = float64(i%4) / 2
			}
			plain := server.QueryRequest{Relevant: fc.examples, K: 50}
			weighted := server.QueryRequest{Relevant: fc.examples[:4], K: 25, Weights: weights}
			sawTopUp := false
			for _, q := range []server.QueryRequest{plain, weighted, fc.topUp} {
				before := counter(rt, "qd_router_scatters_total")
				status, routed := request(t, http.MethodPost, url+"/v1/query", q)
				_, single := request(t, http.MethodPost, ref.URL+"/v1/query", q)
				if status != http.StatusOK || !sameButFinalReads(routed, single) {
					t.Fatalf("k=%d weighted=%v: HTTP %d, routed body differs:\n  routed %s\n  single %s", q.K, q.Weights != nil, status, routed, single)
				}
				var resp server.QueryResponse
				if err := json.Unmarshal(routed, &resp); err != nil {
					t.Fatal(err)
				}
				for _, g := range resp.Groups {
					for _, im := range g.Images {
						if im.Label == "" || im.Label != f.sys.SubconceptOf(im.ID) {
							t.Fatalf("result %d labelled %q, corpus says %q", im.ID, im.Label, f.sys.SubconceptOf(im.ID))
						}
					}
				}
				// The first fetch is one scatter for every group; each
				// top-up pass is one more.
				if counter(rt, "qd_router_scatters_total")-before > 1 {
					sawTopUp = true
				}
			}
			if !sawTopUp {
				t.Error("no query scattered more than once: the top-up loop never searched")
			}

			// A hosted session, two rounds, finalized through both stacks.
			var rs, ss server.SessionResponse
			mustJSON(t, http.MethodPost, url+"/v1/sessions", map[string]int64{"seed": 11}, &rs)
			mustJSON(t, http.MethodPost, ref.URL+"/v1/sessions", map[string]int64{"seed": 11}, &ss)
			for round := 0; round < 2; round++ {
				var shown struct {
					Candidates []server.CandidateJSON `json:"candidates"`
				}
				mustJSON(t, http.MethodGet, url+"/v1/sessions/"+rs.SessionID+"/candidates", nil, &shown)
				mustJSON(t, http.MethodGet, ref.URL+"/v1/sessions/"+ss.SessionID+"/candidates", nil, nil)
				var marks []int
				for i, c := range shown.Candidates {
					if i%3 == 0 {
						marks = append(marks, c.ID)
					}
				}
				mustJSON(t, http.MethodPost, url+"/v1/sessions/"+rs.SessionID+"/feedback", server.FeedbackRequest{Relevant: marks}, nil)
				mustJSON(t, http.MethodPost, ref.URL+"/v1/sessions/"+ss.SessionID+"/feedback", server.FeedbackRequest{Relevant: marks}, nil)
			}
			status, routed := request(t, http.MethodPost, url+"/v1/sessions/"+rs.SessionID+"/finalize", map[string]int{"k": 25})
			_, single := request(t, http.MethodPost, ref.URL+"/v1/sessions/"+ss.SessionID+"/finalize", map[string]int{"k": 25})
			if status != http.StatusOK || !sameButFinalReads(routed, single) {
				t.Fatalf("session finalize: HTTP %d, routed body differs:\n  routed %s\n  single %s", status, routed, single)
			}
			if !bytes.Contains(routed, []byte(`"label":"`)) {
				t.Fatalf("routed finalize carries no labels: %s", routed)
			}
		})
	}
}

// TestRoutedSqrtTieMatchesSingleNode: two rows at squared distances 1 and
// 1 + 2⁻⁵² from the query share the root 1. They sit on different shards,
// the farther one under the lower ID. A single node selects by squared
// distance and answers the nearer row, and so must the router, k-NN and
// one-shot query alike: it merges on the squared distances its shards send,
// not on their roots, where the tie would fall to the lower ID.
func TestRoutedSqrtTieMatchesSingleNode(t *testing.T) {
	const n, dim, shards = 64, 2, 2
	near, far := -1, -1
	for id := n - 1; id > 0 && far < 0; id-- {
		switch {
		case near < 0:
			near = id
		case shard.Assign(id, shards) != shard.Assign(near, shards):
			far = id
		}
	}
	// Row 0 is the query, at the origin; the filler rows lie far from it.
	data := make([]float64, n*dim)
	for i := 1; i < n; i++ {
		data[i*dim], data[i*dim+1] = 10+float64(i), float64(i%7)
	}
	data[near*dim], data[near*dim+1] = 1, 0                // squared distance 1
	data[far*dim], data[far*dim+1] = 1, math.Ldexp(1, -26) // squared distance 1 + 2⁻⁵²
	sys, err := qdcbir.BuildFromSource(qdcbir.Config{Seed: 1, NodeCapacity: 8, RepFraction: 0.25},
		batchSource{&source.Batch{Dim: dim, Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	archives, err := qdcbir.SliceShards(context.Background(), sys, shards)
	if err != nil {
		t.Fatal(err)
	}
	f := &fleetFix{sys: sys}
	for _, a := range archives {
		var buf bytes.Buffer
		if err := a.Write(&buf); err != nil {
			t.Fatal(err)
		}
		f.blobs = append(f.blobs, buf.Bytes())
	}
	_, url, _ := startCountedFleet(t, f, &countingTransport{})
	ref := startRef(t, f)

	want, err := sys.KNN(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want[1].ID != near || want[1].Score != 1 {
		t.Fatalf("single node ranks (%d, %v) second, want the nearer row %d at distance 1", want[1].ID, want[1].Score, near)
	}
	var got KNNResponse
	mustJSON(t, http.MethodPost, url+"/v1/knn", KNNRequest{Query: []float64{0, 0}, K: 2}, &got)
	if len(got.Neighbors) != 2 || got.Neighbors[1].ID != near || got.Neighbors[1].Dist != 1 {
		t.Fatalf("routed k-NN %+v, want row %d (squared distance 1) before row %d (1 + 2⁻⁵²)", got.Neighbors, near, far)
	}
	q := server.QueryRequest{Relevant: []int{0}, K: 2}
	status, routed := request(t, http.MethodPost, url+"/v1/query", q)
	_, single := request(t, http.MethodPost, ref.URL+"/v1/query", q)
	if status != http.StatusOK || !sameButFinalReads(routed, single) {
		t.Fatalf("routed query: HTTP %d, body differs:\n  routed %s\n  single %s", status, routed, single)
	}
}

// TestRoutedFetchSplitsAcrossFrames: a final-round fetch of more searches
// than one frame may carry goes out as several frames, MaxShardSearches
// searches at most and one scatter each, and the answer is the single
// node's.
func TestRoutedFetchSplitsAcrossFrames(t *testing.T) {
	f := fixture(t)
	dim := f.sys.Corpus().Store().Dim()
	// One example per leaf, so every example forms its own group.
	leafOf := map[int]uint64{}
	for _, blob := range f.blobs {
		rep, _, err := qdcbir.OpenShard(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < f.sys.Len(); id++ {
			if p, ok := rep.PointInfo(id); ok {
				leafOf[id] = p.Leaf
			}
		}
	}
	var rel []int
	seen := map[uint64]bool{}
	for id := 0; id < f.sys.Len() && len(rel) < server.MaxShardSearches+3; id++ {
		if l := leafOf[id]; !seen[l] {
			seen[l] = true
			rel = append(rel, id)
		}
	}
	if len(rel) <= server.MaxShardSearches {
		t.Fatalf("the fixture has %d leaves; a fetch of that many searches fits one frame", len(rel))
	}
	ct := &countingTransport{}
	rt, url, _ := startCountedFleet(t, f, ct)
	ref := startRef(t, f)
	q := server.QueryRequest{Relevant: rel, K: 60}
	before := counter(rt, "qd_router_scatters_total")
	status, routed := request(t, http.MethodPost, url+"/v1/query", q)
	_, single := request(t, http.MethodPost, ref.URL+"/v1/query", q)
	if status != http.StatusOK || !sameButFinalReads(routed, single) {
		t.Fatalf("routed query: HTTP %d, body differs:\n  routed %s\n  single %s", status, routed, single)
	}
	scatters := counter(rt, "qd_router_scatters_total") - before
	frames := map[*byte]int{} // searches per distinct frame
	for _, l := range ct.take() {
		if l.path == "/v1/shard/search" {
			frames[l.body] = (l.reqBytes - 12) / (12 + 8*dim)
		}
	}
	largest, total := 0, 0
	for _, searches := range frames {
		largest = max(largest, searches)
		total += searches
	}
	if uint64(len(frames)) != scatters || scatters < 2 || largest != server.MaxShardSearches || total < len(rel) {
		t.Fatalf("%d examples in %d groups went out in %d frames over %d scatters (largest %d searches, %d in all); want the first fetch split at %d searches a frame, one scatter each",
			len(q.Relevant), len(rel), len(frames), scatters, largest, total, server.MaxShardSearches)
	}
}

// TestRouterReusesShardConnections plays 50 routed queries, one after
// another, against shards that count the connections they accept. Each
// query's fetches send one leg per shard; the default client must keep those
// connections between queries, which bounds the dials by the idle pool it
// computed, not by the request count (net/http's own default keeps two per
// host and re-dials the rest on every query).
func TestRouterReusesShardConnections(t *testing.T) {
	f := fixture(t)
	var dials atomic.Int64
	cfgs := make([]ReplicaConfig, len(f.blobs))
	for i, blob := range f.blobs {
		rep, _, err := qdcbir.OpenShard(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("OpenShard: %v", err)
		}
		srv := server.NewShard(rep, nil)
		ts := httptest.NewUnstartedServer(srv.Handler())
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dials.Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		cfgs[i] = ReplicaConfig{Shard: i, URL: ts.URL}
	}
	rt, rts := startRouter(t, cfgs)
	const queries = 50
	q := server.QueryRequest{Relevant: []int{3, 9, 12, 200, 201, 430, 77}, K: 25}
	for i := 0; i < queries; i++ {
		mustJSON(t, http.MethodPost, rts.URL+"/v1/query", q, nil)
	}
	pool := int64(len(cfgs) * idleConnsPerReplica(rt.parallelism, len(rt.shards)))
	if pool >= queries {
		t.Fatalf("idle pool %d is no tighter a bound than %d queries; pick more queries", pool, queries)
	}
	if n := dials.Load(); n > pool {
		t.Errorf("shards accepted %d connections over %d queries; the idle pool should bound them at %d", n, queries, pool)
	}
}

// TestVerifyFleetRefusesOtherWire: a replica that does not advertise this
// router's shard wire — an older qdserve that prints bare shard metadata, or
// one on wire 2, whose search frames carry one search and whose replies
// carry distances, not their squares — is refused by name, before any query
// could be framed at it.
func TestVerifyFleetRefusesOtherWire(t *testing.T) {
	meta := shard.Meta{ShardCount: 1, Images: 10, LocalImages: 10, Dim: 2, Storage: "f64", ArchiveVersion: 3, CorpusSig: 42}
	for _, body := range []any{meta, server.ShardMetaResponse{Meta: meta, WireVersion: 2}} {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/shard/meta", func(w http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(w).Encode(body)
		})
		old := httptest.NewServer(mux)
		t.Cleanup(old.Close)
		rt, err := New(Config{Replicas: []ReplicaConfig{{Shard: 0, URL: old.URL}}})
		if err != nil {
			t.Fatal(err)
		}
		err = rt.VerifyFleet(context.Background())
		if err == nil || !strings.Contains(err.Error(), old.URL) || !strings.Contains(err.Error(), "shard wire version") {
			t.Fatalf("VerifyFleet = %v, want a refusal naming %s and its shard wire version", err, old.URL)
		}
	}
}
