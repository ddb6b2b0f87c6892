package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"qdcbir/internal/obs"
	"qdcbir/internal/shard"
	"qdcbir/internal/vec"
)

// This file implements the serving-side execution scheduler: admission
// control in front of every search endpoint, and a short coalescing window
// that groups concurrent shard-search legs aimed at the same topology node
// into one multi-query batch dispatch (shard.Replica.Sweep), so co-resident
// sweeps share one load of each code or slab chunk. Both halves are
// throughput/overload machinery only: an admitted request computes exactly
// what it would have computed alone, bit for bit.

// ErrOverloaded is returned by admission control when the endpoint's wait
// queue is full: the server is healthy but saturated, and the structured 503
// (code "overloaded", Retry-After set) tells callers — the router above all —
// to back off or try another replica rather than pile on.
var ErrOverloaded = errors.New("server overloaded: admission queue full")

// ErrCodeOverloaded marks an admission-control shed in errorResponse.Code.
const ErrCodeOverloaded = "overloaded"

// SchedConfig tunes the scheduler. The zero value disables it entirely
// (every request dispatches immediately, as before).
type SchedConfig struct {
	// MaxConcurrent caps searches executing at once. <= 0 disables admission
	// control (and with it queueing and shedding).
	MaxConcurrent int
	// QueueBound caps requests waiting for an execution slot; an arrival
	// beyond it is shed with ErrOverloaded. <= 0 means shed immediately when
	// all slots are busy.
	QueueBound int
	// Window is how long the first leg of a shard-search batch waits for
	// companions before dispatching. <= 0 disables coalescing.
	Window time.Duration
	// MaxBatch caps queries per coalesced dispatch (0 = 8).
	MaxBatch int
	// ShedP99, when positive, is the p99 latency target driving backpressure:
	// while an endpoint's one-minute p99 exceeds it, the effective queue
	// bound shrinks to a quarter (floor 1), shedding load early instead of
	// letting the queue amplify the overload.
	ShedP99 time.Duration
}

// scheduler is the runtime behind SchedConfig. All state is per-server.
type scheduler struct {
	cfg SchedConfig
	win *obs.WindowSet

	// Admission: a token semaphore for execution slots plus a counted wait
	// queue per endpoint. The queue is bounded by cfg.QueueBound (shrunk
	// under p99 backpressure); waiters park on the semaphore and leave early
	// when their deadline expires — a queued request that dies waiting never
	// dispatches a kernel.
	sem chan struct{}

	mu      sync.Mutex
	waiting map[string]int

	// Coalescing: one pending batch per (node, precision) key; the opening
	// leg arms a timer and dispatches the whole batch when it fires or when
	// the batch fills, whichever is first.
	cmu     sync.Mutex
	pending map[uint64]*legBatch

	queueDepth     *obs.Gauge
	inflight       *obs.Gauge
	shedTotal      *obs.Counter
	deadlineQueued *obs.Counter
	batchesTotal   *obs.Counter
	batchedQueries *obs.Counter
	coalesceWidth  *obs.Histogram
}

func newScheduler(cfg SchedConfig, o *obs.Observer) *scheduler {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	s := &scheduler{
		cfg:     cfg,
		win:     o.Windows(),
		waiting: make(map[string]int),
		pending: make(map[uint64]*legBatch),
	}
	if cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	reg := o.Registry()
	s.queueDepth = reg.Gauge("qd_sched_queue_depth", "Requests waiting for an execution slot.")
	s.inflight = reg.Gauge("qd_sched_inflight", "Searches currently executing.")
	s.shedTotal = reg.Counter("qd_sched_shed_total", "Requests shed by admission control (503 overloaded).")
	s.deadlineQueued = reg.Counter("qd_sched_deadline_queued_total", "Requests whose deadline expired while queued (no kernel dispatched).")
	s.batchesTotal = reg.Counter("qd_sched_batches_total", "Coalesced multi-query batch dispatches.")
	s.batchedQueries = reg.Counter("qd_sched_batched_queries_total", "Queries answered through a coalesced batch of width >= 2.")
	s.coalesceWidth = reg.Histogram("qd_sched_coalesce_width", "Queries per coalesced shard-search dispatch.", obs.FanoutBuckets)
	return s
}

// effectiveBound is the wait-queue cap right now: the configured bound,
// shrunk to a quarter (floor 1) while the endpoint's one-minute p99 exceeds
// the ShedP99 target. The digest read is O(slots·buckets) and happens only
// when slots are contended, so the uncontended fast path never pays it.
func (s *scheduler) effectiveBound(endpoint string) int {
	bound := s.cfg.QueueBound
	if bound <= 0 {
		return 0
	}
	if s.cfg.ShedP99 <= 0 {
		return bound
	}
	p99 := s.win.Digest("endpoint:" + endpoint).Snapshot(time.Minute).Quantile(0.99)
	if p99 > s.cfg.ShedP99.Seconds() {
		bound /= 4
		if bound < 1 {
			bound = 1
		}
	}
	return bound
}

// admit blocks until the request may execute, returning the release func the
// caller must defer. A nil scheduler or unbounded config admits immediately.
// Errors: ErrOverloaded when the wait queue is full; the context error when
// the deadline expires (or the client leaves) while queued — in that case no
// search work has started.
func (s *scheduler) admit(ctx context.Context, endpoint string) (func(), error) {
	if s == nil || s.sem == nil {
		return func() {}, nil
	}
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return s.release, nil
	default:
	}
	// All slots busy: queue if there is room, shed otherwise.
	s.mu.Lock()
	if s.waiting[endpoint] >= s.effectiveBound(endpoint) {
		s.mu.Unlock()
		s.shedTotal.Inc()
		return nil, ErrOverloaded
	}
	s.waiting[endpoint]++
	s.mu.Unlock()
	s.queueDepth.Add(1)
	defer func() {
		s.mu.Lock()
		s.waiting[endpoint]--
		s.mu.Unlock()
		s.queueDepth.Add(-1)
	}()
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return s.release, nil
	case <-ctx.Done():
		s.deadlineQueued.Inc()
		return nil, ctx.Err()
	}
}

func (s *scheduler) release() {
	<-s.sem
	s.inflight.Add(-1)
}

// legBatch is one pending coalesced dispatch: concurrent shard-search legs
// for the same topology node, collected during the window.
type legBatch struct {
	node  uint64
	qs    []vec.Vector
	ks    []int
	outs  []*legResult
	full  chan struct{} // closed when the batch reaches MaxBatch
	done  chan struct{} // closed after dispatch fills every result
	err   error
	ns    [][]shard.Neighbor
	stats []shard.LegStats
}

// legResult is one leg's slot in its batch.
type legResult struct {
	batch *legBatch
	idx   int
}

// searchShard answers one shard-search leg, coalescing it with concurrent
// legs for the same node when a window is configured, and reports the leg's
// own sweep work. Weighted searches have no multi-query kernel and always run
// alone. Per leg the answer is bit-identical to rep.SearchNode — a batch is
// one rep.Sweep, whose per-query results are pinned to the single-query path.
func (s *scheduler) searchShard(ctx context.Context, rep *shard.Replica, nodeID uint64, q vec.Vector, weights []float64, k int) ([]shard.Neighbor, shard.LegStats, error) {
	if s == nil || s.cfg.Window <= 0 || weights != nil || k <= 0 {
		return searchLeg(ctx, rep, nodeID, q, weights, k)
	}
	s.cmu.Lock()
	if b := s.pending[nodeID]; b != nil && len(b.qs) < s.cfg.MaxBatch {
		idx := len(b.qs)
		b.qs = append(b.qs, q)
		b.ks = append(b.ks, k)
		res := &legResult{batch: b, idx: idx}
		b.outs = append(b.outs, res)
		if len(b.qs) == s.cfg.MaxBatch {
			delete(s.pending, nodeID)
			close(b.full)
		}
		s.cmu.Unlock()
		select {
		case <-b.done:
			if b.err != nil {
				return nil, shard.LegStats{}, b.err
			}
			return b.ns[idx], b.stats[idx], nil
		case <-ctx.Done():
			// The batch runs on the opener's context; this leg just stops
			// waiting for it.
			return nil, shard.LegStats{}, ctx.Err()
		}
	}
	b := &legBatch{
		node: nodeID,
		qs:   []vec.Vector{q},
		ks:   []int{k},
		full: make(chan struct{}),
		done: make(chan struct{}),
	}
	b.outs = append(b.outs, &legResult{batch: b, idx: 0})
	s.pending[nodeID] = b
	s.cmu.Unlock()

	timer := time.NewTimer(s.cfg.Window)
	select {
	case <-b.full:
		timer.Stop()
	case <-timer.C:
		s.cmu.Lock()
		if s.pending[nodeID] == b {
			delete(s.pending, nodeID)
		}
		s.cmu.Unlock()
	case <-ctx.Done():
		timer.Stop()
		s.cmu.Lock()
		if s.pending[nodeID] == b {
			delete(s.pending, nodeID)
		}
		s.cmu.Unlock()
		b.err = ctx.Err()
		close(b.done)
		return nil, shard.LegStats{}, b.err
	}

	s.coalesceWidth.Observe(float64(len(b.qs)))
	if len(b.qs) == 1 {
		// A lone leg takes the single-query path.
		ns, st, err := searchLeg(ctx, rep, nodeID, b.qs[0], nil, b.ks[0])
		b.ns, b.stats, b.err = [][]shard.Neighbor{ns}, []shard.LegStats{st}, err
		close(b.done)
		return ns, st, err
	}
	s.batchesTotal.Inc()
	s.batchedQueries.Add(uint64(len(b.qs)))
	b.stats = make([]shard.LegStats, len(b.qs))
	b.ns, b.err = rep.Sweep(ctx, nodeID, b.qs, nil, b.ks, b.stats)
	close(b.done)
	if b.err != nil {
		return nil, shard.LegStats{}, b.err
	}
	return b.ns[0], b.stats[0], nil
}

// searchLeg answers one leg on a sweep of its own.
func searchLeg(ctx context.Context, rep *shard.Replica, nodeID uint64, q vec.Vector, weights []float64, k int) ([]shard.Neighbor, shard.LegStats, error) {
	var st [1]shard.LegStats
	ns, err := rep.Sweep(ctx, nodeID, []vec.Vector{q}, weights, []int{k}, st[:])
	if err != nil {
		return nil, shard.LegStats{}, err
	}
	return ns[0], st[0], nil
}

// SetScheduler installs admission control and leg coalescing per cfg. Call
// before serving traffic; the zero config leaves the server unscheduled.
func (s *Server) SetScheduler(cfg SchedConfig) {
	if cfg.MaxConcurrent <= 0 && cfg.Window <= 0 {
		s.sched = nil
		return
	}
	s.sched = newScheduler(cfg, s.obs)
}
