package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"qdcbir"
	"qdcbir/internal/obs"
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

// TestSchedShedShardFlood floods a shard replica whose only execution slot
// is held (max-concurrent 1, queue-bound 0) with 20 concurrent weighted
// shard searches: every one is shed as a 503 with Retry-After and code
// "overloaded", qd_sched_shed_total reads 20, and once the slot is free the
// replica answers a fresh search byte-identically to an unscheduled replica
// of the same shard.
func TestSchedShedShardFlood(t *testing.T) {
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
	archive := buf.Bytes()
	serve := func(sched bool) (*Server, *httptest.Server) {
		rep, _, err := qdcbir.OpenShard(bytes.NewReader(archive))
		if err != nil {
			t.Fatalf("OpenShard: %v", err)
		}
		srv := NewShard(rep, nil)
		if sched {
			srv.SetScheduler(SchedConfig{MaxConcurrent: 1, QueueBound: 0})
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts
	}
	srv, ts := serve(true)
	_, ref := serve(false)

	req := ShardSearchRequest{NodeID: srv.shard.Topo().RootID(), Query: sys.Corpus().Vectors[5], K: 10}
	plain, _ := json.Marshal(req)
	req.Weights = make([]float64, len(req.Query))
	for i := range req.Weights {
		req.Weights[i] = 1
	}
	weighted, _ := json.Marshal(req)

	srv.sched.sem <- struct{}{} // hold the only execution slot
	const flood = 20
	var wg sync.WaitGroup
	errs := make([]error, flood)
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/shard/search", "application/json", bytes.NewReader(weighted))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var e errorResponse
			switch err := json.NewDecoder(resp.Body).Decode(&e); {
			case resp.StatusCode != http.StatusServiceUnavailable:
				errs[i] = fmt.Errorf("status %d, want 503", resp.StatusCode)
			case resp.Header.Get("Retry-After") == "":
				errs[i] = errors.New("503 without Retry-After")
			case err != nil:
				errs[i] = err
			case e.Code != ErrCodeOverloaded:
				errs[i] = fmt.Errorf("code %q, want %q", e.Code, ErrCodeOverloaded)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("flood request %d: %v", i, err)
		}
	}
	if n := counterValue(srv, "qd_sched_shed_total"); n != flood {
		t.Errorf("shed_total = %d, want %d", n, flood)
	}
	<-srv.sched.sem

	for _, body := range [][]byte{plain, weighted} {
		var got, want []byte
		for _, c := range []struct {
			url string
			out *[]byte
		}{{ts.URL, &got}, {ref.URL, &want}} {
			resp, err := http.Post(c.url+"/v1/shard/search", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			*c.out, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("after the flood: status %d, err %v: %s", resp.StatusCode, err, *c.out)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("after the flood the scheduled replica answers\n%s\nan unscheduled one\n%s", got, want)
		}
	}
}
