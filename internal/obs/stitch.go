package obs

import (
	"strconv"
	"sync"
	"time"
)

// Cross-process trace stitching. A routed query fans out over many shard
// replicas, and each process only sees its own slice of the latency: the
// router sees RPC wall time, a shard sees its local search. Stitching joins
// them under one request id without any clock synchronization:
//
//   - The router stamps every backend request with the X-Qd-Trace header.
//   - A shard that sees the header times its handling and returns the spans
//     in the response body (RemoteTrace), with offsets relative to its own
//     handling start — shard clocks never leave the shard.
//   - The router knows each RPC's window on its own monotonic clock, so it
//     re-bases the shard's spans into that window. Causality guarantees the
//     handling lies inside the RPC (request sent before handling starts,
//     response read after it ends); the re-based spans clamp to the window so
//     a skewed duration report can never break nesting.
//
// The result is one Stitched trace per routed query: router-side spans
// (fan-out, per-shard RPCs, merge, finalize-scatter) on track 0 and each
// shard's child spans on that shard's own track, exported in the same
// Chrome/Perfetto trace-event form as the single-node traces.

// TraceHeader is the HTTP header carrying the cross-process trace id (the
// request id) from the router to shard replicas. Its presence is the opt-in:
// untraced requests pay nothing on the shard side.
const TraceHeader = "X-Qd-Trace"

// RemoteSpan is one span a shard reports back to its caller. OffsetNS is
// relative to the shard's request-handling start, never to its wall clock,
// so the caller can re-base it without clock agreement. Args are counts and
// ids, integers only, so the shard wire's binary span tail carries every
// span a shard can record.
type RemoteSpan struct {
	Name       string           `json:"name"`
	OffsetNS   int64            `json:"offset_ns"`
	DurationNS int64            `json:"duration_ns"`
	Args       map[string]int64 `json:"args,omitempty"`
}

// RemoteTrace is the span bundle a traced shard response carries.
type RemoteTrace struct {
	DurationNS int64        `json:"duration_ns"`
	Spans      []RemoteSpan `json:"spans,omitempty"`
}

// RemoteTraced is implemented by response types that may carry a RemoteTrace;
// the router's transport peels the trace off any response that has one.
type RemoteTraced interface {
	TraceData() *RemoteTrace
}

// RemoteRecorder accumulates shard-side spans for one traced request. The
// zero value is ready; a nil recorder ignores every call, so handlers record
// unconditionally and only allocate when the trace header was present.
type RemoteRecorder struct {
	start time.Time
	spans []RemoteSpan
}

// NewRemoteRecorder opens a recorder anchored at now.
func NewRemoteRecorder() *RemoteRecorder {
	return &RemoteRecorder{start: time.Now()}
}

// Span records one completed span that started at offset start (a time taken
// after NewRemoteRecorder). Nil-safe.
func (r *RemoteRecorder) Span(name string, start time.Time, args map[string]int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, RemoteSpan{
		Name:       name,
		OffsetNS:   start.Sub(r.start).Nanoseconds(),
		DurationNS: time.Since(start).Nanoseconds(),
		Args:       args,
	})
}

// Trace closes the recorder into the wire form (nil for a nil recorder).
func (r *RemoteRecorder) Trace() *RemoteTrace {
	if r == nil {
		return nil
	}
	return &RemoteTrace{
		DurationNS: time.Since(r.start).Nanoseconds(),
		Spans:      r.spans,
	}
}

// StitchSpan is one span of a stitched cross-process trace. Track 0 is the
// router; shard s draws on track s+1. Spans on one track nest by time
// containment, exactly like the single-process trace export.
type StitchSpan struct {
	Name       string         `json:"name"`
	Track      int            `json:"track"`
	OffsetNS   int64          `json:"offset_ns"`
	DurationNS int64          `json:"duration_ns"`
	Args       map[string]any `json:"args,omitempty"`
}

// Stitched is one completed cross-process trace: every router-side span and
// every shard-side child span of one routed request, under one request id.
// Immutable once built (the Stitch that produced it has been finished).
type Stitched struct {
	ID         uint64       `json:"id"`
	RequestID  string       `json:"request_id"`
	Kind       string       `json:"kind"` // "query", "knn", "finalize"
	Start      time.Time    `json:"start"`
	DurationNS int64        `json:"duration_ns"`
	Shards     int          `json:"shards"`
	Error      string       `json:"error,omitempty"` // partial traces: why the request failed
	Spans      []StitchSpan `json:"spans"`
}

// Stitch accumulates one in-flight cross-process trace. Scatter legs run
// concurrently, so every method locks; all methods are safe on a nil *Stitch
// (untraced requests carry nil and pay one pointer check).
type Stitch struct {
	mu sync.Mutex
	t  Stitched
}

// NewStitch opens a cross-process trace for one routed request.
func NewStitch(id uint64, requestID, kind string, shards int) *Stitch {
	return &Stitch{t: Stitched{
		ID:        id,
		RequestID: requestID,
		Kind:      kind,
		Start:     time.Now(),
		Shards:    shards,
	}}
}

// RequestID returns the trace's correlation id ("" on nil).
func (s *Stitch) RequestID() string {
	if s == nil {
		return ""
	}
	return s.t.RequestID
}

// Since returns nanoseconds since the trace opened (0 on nil) — the offset a
// span starting now records. Monotonic: time.Since uses the monotonic clock.
func (s *Stitch) Since() int64 {
	if s == nil {
		return 0
	}
	return time.Since(s.t.Start).Nanoseconds()
}

// Span records one completed router-side span on track 0. Nil-safe.
func (s *Stitch) Span(name string, offsetNS, durationNS int64, args map[string]any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.t.Spans = append(s.t.Spans, StitchSpan{
		Name: name, Track: 0, OffsetNS: offsetNS, DurationNS: durationNS, Args: args,
	})
	s.mu.Unlock()
}

// RPC records one backend call to a shard on that shard's track, then
// re-bases the shard's reported child spans into the RPC window. A child that
// would overrun the window (clock rate skew, response-write time) clamps to
// it, so nesting and timestamp monotonicity hold by construction. Nil-safe.
func (s *Stitch) RPC(shard int, name string, offsetNS, durationNS int64, remote *RemoteTrace) {
	if s == nil {
		return
	}
	track := shard + 1
	s.mu.Lock()
	defer s.mu.Unlock()
	s.t.Spans = append(s.t.Spans, StitchSpan{
		Name: name, Track: track, OffsetNS: offsetNS, DurationNS: durationNS,
		Args: map[string]any{"shard": shard},
	})
	if remote == nil {
		return
	}
	// The shard's handling window sits inside the RPC window; without clock
	// agreement the best alignment centers the unaccounted time (network +
	// serialization) evenly around it.
	slack := durationNS - remote.DurationNS
	if slack < 0 {
		slack = 0
	}
	base := offsetNS + slack/2
	end := offsetNS + durationNS
	for _, rs := range remote.Spans {
		off := base + rs.OffsetNS
		dur := rs.DurationNS
		if off < offsetNS {
			off = offsetNS
		}
		if off > end {
			off = end
		}
		if off+dur > end {
			dur = end - off
		}
		if dur < 0 {
			dur = 0
		}
		var args map[string]any
		if len(rs.Args) > 0 {
			args = make(map[string]any, len(rs.Args))
			for k, v := range rs.Args {
				args[k] = v
			}
		}
		s.t.Spans = append(s.t.Spans, StitchSpan{
			Name: rs.Name, Track: track, OffsetNS: off, DurationNS: dur, Args: args,
		})
	}
}

// ShardBreakdown sums the recorded per-shard RPC time — the slow-query log's
// per-shard attribution. Returns one entry per shard that saw traffic.
func (s *Stitch) ShardBreakdown() []ShardLeg {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	byShard := map[int]*ShardLeg{}
	var order []int
	for _, sp := range s.t.Spans {
		if sp.Track == 0 {
			continue
		}
		if _, isRPC := sp.Args["shard"]; !isRPC {
			continue // shard-reported child span, already inside an RPC window
		}
		sh := sp.Track - 1
		leg, ok := byShard[sh]
		if !ok {
			leg = &ShardLeg{Shard: sh}
			byShard[sh] = leg
			order = append(order, sh)
		}
		leg.Calls++
		leg.TotalNS += sp.DurationNS
		if sp.DurationNS > leg.SlowestNS {
			leg.SlowestNS = sp.DurationNS
		}
	}
	out := make([]ShardLeg, 0, len(order))
	for _, sh := range order {
		out = append(out, *byShard[sh])
	}
	return out
}

// Finish closes the trace — total duration, optional failure note — and
// returns the immutable Stitched record (nil on a nil Stitch).
func (s *Stitch) Finish(err error) *Stitched {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.t.DurationNS = time.Since(s.t.Start).Nanoseconds()
	if err != nil {
		s.t.Error = err.Error()
	}
	out := s.t
	return &out
}

// StitchRing retains completed stitched traces, oldest first, bounded.
type StitchRing struct {
	mu     sync.Mutex
	traces []*Stitched
	cap    int
}

// NewStitchRing returns a ring retaining up to cap traces (cap <= 0 selects
// DefaultTraceCap).
func NewStitchRing(cap int) *StitchRing {
	if cap <= 0 {
		cap = DefaultTraceCap
	}
	return &StitchRing{cap: cap}
}

// Add retains one completed trace, evicting the oldest past the cap.
// Nil-safe on both receiver and argument.
func (r *StitchRing) Add(t *Stitched) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.traces) >= r.cap {
		copy(r.traces, r.traces[1:])
		r.traces[len(r.traces)-1] = t
		return
	}
	r.traces = append(r.traces, t)
}

// Snapshot returns up to limit retained traces, newest first (limit <= 0
// returns all).
func (r *StitchRing) Snapshot(limit int) []*Stitched {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*Stitched
	for i := len(r.traces) - 1; i >= 0; i-- {
		out = append(out, r.traces[i])
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// trackName labels a stitched trace's Perfetto threads.
func trackName(track int) string {
	if track == 0 {
		return "router"
	}
	return "shard " + strconv.Itoa(track-1)
}
