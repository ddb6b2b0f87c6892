package benchsuite

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"qdcbir"
	"qdcbir/internal/router"
	"qdcbir/internal/server"
	"qdcbir/internal/shard"
	"qdcbir/internal/source"
)

// The routed benchmarks price the serving tier below qdload: a router in
// front of three shard replicas, all in this process and joined by loopback
// HTTP, over the shape that tier serves — 512-d float32 embeddings. One op is
// one client request handed to the router's handler; its ns/op, B/op and
// allocs/op therefore cover the router, the three shard servers and every
// codec between them, which is where this tier's time goes (a 512-d vector
// is 4 KB as bytes and 10 KB as decimal text). Both are fixture-free: the
// fleet is built per run from a deterministic synthetic corpus.
const (
	routedRows     = 2000
	routedShards   = 3
	routedK        = 50
	routedExamples = 7
	routedClusters = 20
)

type batchSource struct{ b *source.Batch }

func (batchSource) Format() string                    { return "benchsuite" }
func (s batchSource) Vectors() (*source.Batch, error) { return s.b, nil }

// routedFleet is the in-process fleet and the corpus it serves.
type routedFleet struct {
	sys     *qdcbir.System
	handler http.Handler
	close   func()
}

// routedSystem builds the deterministic 512-d float32 corpus the routed
// benchmarks serve.
func routedSystem(b *testing.B) *qdcbir.System {
	state := uint64(0xD6E8FEB86659FD93)
	next := func() float32 {
		state = state*6364136223846793005 + 1442695040888963407
		return float32(state>>40) / float32(1<<24)
	}
	centers := make([]float32, routedClusters*embedDim)
	for i := range centers {
		centers[i] = next()
	}
	batch := &source.Batch{Dim: embedDim, Data32: make([]float32, routedRows*embedDim), Labels: make([]string, routedRows)}
	for i := 0; i < routedRows; i++ {
		c := i % routedClusters
		for d := 0; d < embedDim; d++ {
			batch.Data32[i*embedDim+d] = centers[c*embedDim+d] + 0.2*(next()-0.5)
		}
		batch.Labels[i] = fmt.Sprintf("emb/c%02d", c)
	}
	sys, err := qdcbir.BuildFromSource(qdcbir.Config{Seed: 3, Float32: true, NodeCapacity: 40, RepFraction: 0.1}, batchSource{batch})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func newRoutedFleet(b *testing.B) *routedFleet {
	sys := routedSystem(b)
	archives, err := qdcbir.SliceShards(context.Background(), sys, routedShards)
	if err != nil {
		b.Fatal(err)
	}
	f := &routedFleet{sys: sys}
	var servers []*httptest.Server
	var reps []*shard.Replica
	f.close = func() {
		for _, ts := range servers {
			ts.Close()
		}
		for _, rep := range reps {
			rep.Close()
		}
	}
	cfgs := make([]router.ReplicaConfig, len(archives))
	for i, a := range archives {
		var buf bytes.Buffer
		if err := a.Write(&buf); err != nil {
			f.close()
			b.Fatal(err)
		}
		rep, _, err := qdcbir.OpenShard(&buf)
		if err != nil {
			f.close()
			b.Fatal(err)
		}
		reps = append(reps, rep)
		srv := server.NewShard(rep, nil)
		ts := httptest.NewServer(srv.Handler())
		servers = append(servers, ts)
		cfgs[i] = router.ReplicaConfig{Shard: i, URL: ts.URL}
	}
	rt, err := router.New(router.Config{Replicas: cfgs})
	if err == nil {
		err = rt.VerifyFleet(context.Background())
	}
	if err != nil {
		f.close()
		b.Fatal(err)
	}
	f.handler = rt.Handler()
	return f
}

// serve hands the router one POST and fails the benchmark on anything but 200.
func (f *routedFleet) serve(b *testing.B, path string, body []byte) {
	rec := httptest.NewRecorder()
	f.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: HTTP %d: %s", path, rec.Code, rec.Body.Bytes())
	}
}

// benchRoutedKNN prices a routed global k-NN: one scatter of three legs.
func benchRoutedKNN(b *testing.B, _ *fixture) {
	f := newRoutedFleet(b)
	defer f.close()
	const queries = 64
	bodies := make([][]byte, queries)
	for i := range bodies {
		bodies[i], _ = json.Marshal(router.KNNRequest{Query: f.sys.Corpus().Vectors[i*31%routedRows], K: routedK})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.serve(b, "/v1/knn", bodies[i%queries])
	}
}

// benchRoutedQuery prices a routed one-shot decomposed query: the example
// vectors fetched from their owners, one scatter carrying every localized
// subquery, the per-subquery merges, and a reply that labels every result.
func benchRoutedQuery(b *testing.B, _ *fixture) {
	f := newRoutedFleet(b)
	defer f.close()
	const queries = 16
	bodies := make([][]byte, queries)
	for i := range bodies {
		// Examples from a few neighbouring clusters, so the query decomposes.
		rel := make([]int, routedExamples)
		for j := range rel {
			rel[j] = (i*97 + j%3 + routedClusters*(j*13+i)) % routedRows
		}
		bodies[i], _ = json.Marshal(server.QueryRequest{Relevant: rel, K: routedK})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.serve(b, "/v1/query", bodies[i%queries])
	}
}

// benchOpenShard prices loading one replica of the routed corpus from its
// shard archive: B/op is what a replica allocates on the Go heap to come up;
// its ~1.4 MB of float32 rows and their codes are mapped outside it.
func benchOpenShard(b *testing.B, _ *fixture) {
	sys := routedSystem(b)
	a, err := qdcbir.SliceShard(context.Background(), sys, routedShards, 0)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _, err := qdcbir.OpenShard(bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		rep.Close()
	}
}
