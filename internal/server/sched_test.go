package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"qdcbir"
	"qdcbir/internal/obs"
	"qdcbir/internal/shard"
)

// newSchedServer builds a single-node server with the given scheduler config.
func newSchedServer(t *testing.T, cfg SchedConfig) (*Server, *httptest.Server) {
	t.Helper()
	eng, corpus := testSystem(t)
	srv := New(eng, corpus.SubconceptOf)
	srv.SetScheduler(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func counterValue(srv *Server, name string) uint64 {
	return srv.obs.Registry().Snapshot().Counters[name]
}

// TestSchedQueuedDeadline pins the admission-control deadline contract: a
// request whose time budget expires while it waits for an execution slot gets
// the structured 503 deadline_exceeded and never dispatches a search — the
// slot was occupied the whole time, so nothing else could have run it.
func TestSchedQueuedDeadline(t *testing.T) {
	srv, ts := newSchedServer(t, SchedConfig{MaxConcurrent: 1, QueueBound: 4})

	// Occupy the only execution slot so the request must queue.
	srv.sched.sem <- struct{}{}

	body, _ := json.Marshal(QueryRequest{Relevant: []int{1, 2, 3}, K: 10})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Qd-Deadline-Ms", "30")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("missing Retry-After on queued-deadline 503")
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != ErrCodeDeadline {
		t.Fatalf("code = %q, want %q", e.Code, ErrCodeDeadline)
	}
	if n := counterValue(srv, "qd_sched_deadline_queued_total"); n != 1 {
		t.Errorf("deadline_queued_total = %d, want 1", n)
	}
	if n := counterValue(srv, "qd_sched_shed_total"); n != 0 {
		t.Errorf("shed_total = %d, want 0 (queued, not shed)", n)
	}
	if d := srv.obs.Registry().Snapshot().Gauges["qd_sched_queue_depth"]; d != 0 {
		t.Errorf("queue depth = %d after request left", d)
	}

	// Free the slot: the same request now succeeds.
	<-srv.sched.sem
	resp2, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("after release: status = %d, want 200", resp2.StatusCode)
	}
}

// TestSchedShedOverloaded pins the load-shedding contract: with all slots
// busy and no queue room, the request is rejected immediately with the
// structured 503 overloaded and a Retry-After hint.
func TestSchedShedOverloaded(t *testing.T) {
	srv, ts := newSchedServer(t, SchedConfig{MaxConcurrent: 1, QueueBound: 0})
	srv.sched.sem <- struct{}{}

	body, _ := json.Marshal(QueryRequest{Relevant: []int{1, 2, 3}, K: 10})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != ErrCodeOverloaded {
		t.Fatalf("code = %q, want %q", e.Code, ErrCodeOverloaded)
	}
	if n := counterValue(srv, "qd_sched_shed_total"); n != 1 {
		t.Errorf("shed_total = %d, want 1", n)
	}

	<-srv.sched.sem
	resp2, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("after release: status = %d, want 200", resp2.StatusCode)
	}
}

// TestSchedBackpressureShrinksQueue pins the p99-driven backpressure: while
// the endpoint's one-minute p99 exceeds the target, the effective queue bound
// drops to a quarter (floor 1).
func TestSchedBackpressureShrinksQueue(t *testing.T) {
	o := obs.New(obs.NewRegistry())
	s := newScheduler(SchedConfig{MaxConcurrent: 1, QueueBound: 16, ShedP99: 100 * time.Millisecond}, o)
	if got := s.effectiveBound("/v1/query"); got != 16 {
		t.Fatalf("idle bound = %d, want 16", got)
	}
	for i := 0; i < 50; i++ {
		o.Windows().Observe("endpoint:/v1/query", 2.0) // 2s >> 100ms target
	}
	if got := s.effectiveBound("/v1/query"); got != 4 {
		t.Fatalf("overloaded bound = %d, want 4", got)
	}
	s2 := newScheduler(SchedConfig{MaxConcurrent: 1, QueueBound: 2, ShedP99: 100 * time.Millisecond}, o)
	if got := s2.effectiveBound("/v1/query"); got != 1 {
		t.Fatalf("overloaded bound floor = %d, want 1", got)
	}
}

// TestSchedCoalescedShardSearch drives four concurrent shard-search legs at
// the same topology node through a scheduler with a coalescing window and
// demands (a) every leg's answer is bit-identical to a direct single-query
// SearchNode, and (b) at least one multi-query batch dispatch happened.
func TestSchedCoalescedShardSearch(t *testing.T) {
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
	var buf bytes.Buffer
	if err := archives[0].Write(&buf); err != nil {
		t.Fatal(err)
	}
	rep, _, err := qdcbir.OpenShard(&buf)
	if err != nil {
		t.Fatalf("OpenShard: %v", err)
	}
	srv := NewShard(rep, nil)
	srv.SetScheduler(SchedConfig{
		MaxConcurrent: 8,
		QueueBound:    16,
		Window:        2 * time.Second,
		MaxBatch:      4,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	root := rep.Topo().RootID()
	const m, k = 4, 10
	queries := make([][]float64, m)
	want := make([][]shard.Neighbor, m)
	for j := 0; j < m; j++ {
		queries[j] = sys.Corpus().Vectors[j*31+5]
		ns, err := rep.SearchNode(context.Background(), root, queries[j], nil, k)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = ns
	}

	got := make([]ShardSearchResponse, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for j := 0; j < m; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			body, _ := json.Marshal(ShardSearchRequest{NodeID: root, Query: queries[j], K: k})
			resp, err := http.Post(ts.URL+"/v1/shard/search", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[j] = err
				return
			}
			defer resp.Body.Close()
			errs[j] = json.NewDecoder(resp.Body).Decode(&got[j])
		}(j)
	}
	wg.Wait()
	for j := 0; j < m; j++ {
		if errs[j] != nil {
			t.Fatalf("leg %d: %v", j, errs[j])
		}
		if len(got[j].Neighbors) != len(want[j]) {
			t.Fatalf("leg %d: %d neighbors, want %d", j, len(got[j].Neighbors), len(want[j]))
		}
		for i, n := range want[j] {
			g := got[j].Neighbors[i]
			if g.ID != n.ID || g.Dist != n.Dist {
				t.Fatalf("leg %d rank %d: (%d, %v), want (%d, %v)", j, i, g.ID, g.Dist, n.ID, n.Dist)
			}
		}
	}
	if n := counterValue(srv, "qd_sched_batches_total"); n < 1 {
		t.Errorf("batches_total = %d, want >= 1", n)
	}
	if n := counterValue(srv, "qd_sched_batched_queries_total"); n < 2 {
		t.Errorf("batched_queries_total = %d, want >= 2", n)
	}
}
