package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"qdcbir/internal/obs"
)

// This file implements the serving-side execution scheduler: admission
// control in front of every search endpoint. It is overload machinery only:
// an admitted request computes exactly what it would have computed on an
// unscheduled server, bit for bit.

// ErrOverloaded is returned by admission control when the endpoint's wait
// queue is full: the server is healthy but saturated, and the structured 503
// (code "overloaded", Retry-After set) tells callers — the router above all —
// to back off or try another replica rather than pile on.
var ErrOverloaded = errors.New("server overloaded: admission queue full")

// ErrCodeOverloaded marks an admission-control shed in errorResponse.Code.
const ErrCodeOverloaded = "overloaded"

// SchedConfig tunes the scheduler. The zero value disables it entirely
// (every request dispatches immediately).
type SchedConfig struct {
	// MaxConcurrent caps searches executing at once. <= 0 disables admission
	// control (and with it queueing and shedding).
	MaxConcurrent int
	// QueueBound caps requests waiting for an execution slot; an arrival
	// beyond it is shed with ErrOverloaded. <= 0 means shed immediately when
	// all slots are busy.
	QueueBound int
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

	queueDepth     *obs.Gauge
	inflight       *obs.Gauge
	shedTotal      *obs.Counter
	deadlineQueued *obs.Counter
}

// newScheduler builds the scheduler for cfg, whose MaxConcurrent must be
// positive.
func newScheduler(cfg SchedConfig, o *obs.Observer) *scheduler {
	s := &scheduler{
		cfg:     cfg,
		win:     o.Windows(),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		waiting: make(map[string]int),
	}
	reg := o.Registry()
	s.queueDepth = reg.Gauge("qd_sched_queue_depth", "Requests waiting for an execution slot.")
	s.inflight = reg.Gauge("qd_sched_inflight", "Searches currently executing.")
	s.shedTotal = reg.Counter("qd_sched_shed_total", "Requests shed by admission control (503 overloaded).")
	s.deadlineQueued = reg.Counter("qd_sched_deadline_queued_total", "Requests whose deadline expired while queued (no kernel dispatched).")
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
// caller must defer. A nil scheduler admits immediately.
// Errors: ErrOverloaded when the wait queue is full; the context error when
// the deadline expires (or the client leaves) while queued — in that case no
// search work has started.
func (s *scheduler) admit(ctx context.Context, endpoint string) (func(), error) {
	if s == nil {
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

// SetScheduler installs admission control per cfg. Call before serving
// traffic; a config with MaxConcurrent <= 0 leaves the server unscheduled.
func (s *Server) SetScheduler(cfg SchedConfig) {
	if cfg.MaxConcurrent <= 0 {
		s.sched = nil
		return
	}
	s.sched = newScheduler(cfg, s.obs)
}
