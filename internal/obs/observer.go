package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Metric names the Observer registers. Components that surface snapshots
// (internal/server's /v1/stats, cmd/qdbench's -stats) look totals up by these
// names.
const (
	MetricSessionsStarted = "qd_sessions_started_total"
	MetricSessionsHosted  = "qd_sessions_hosted"
	MetricSessionsEvicted = "qd_sessions_evicted_total"
	MetricFeedbackRounds  = "qd_feedback_rounds_total"
	MetricFinalizes       = "qd_finalize_total"
	MetricKNNs            = "qd_knn_total"
	MetricFeedbackReads   = "qd_feedback_page_reads_total"
	MetricFinalReads      = "qd_final_page_reads_total"
	MetricKNNReads        = "qd_knn_page_reads_total"
	MetricExpansions      = "qd_boundary_expansions_total"
	MetricHeapPops        = "qd_heap_pops_total"
	MetricRoundSeconds    = "qd_round_seconds"
	MetricFinalizeSeconds = "qd_finalize_seconds"
	MetricKNNSeconds      = "qd_knn_seconds"
	MetricSubqueryFanout  = "qd_subquery_fanout"
	// MetricRerankFallbacks counts quantized searches the SQ8 row filter
	// could not serve — NaN queries, whose decode error bounds nothing — and
	// that scored every leaf they opened exactly instead.
	MetricRerankFallbacks = "qd_knn_rerank_fallbacks_total"
)

// DefaultTraceCap bounds the completed-trace ring.
const DefaultTraceCap = 64

// Windowed-digest names the Observer feeds: per-phase sliding-window latency
// histograms behind /v1/latency and the qdserve log summaries.
const (
	DigestRound    = "phase:round"
	DigestFinalize = "phase:finalize"
	DigestKNN      = "phase:knn"
)

// Observer receives engine telemetry: it folds span records into the metrics
// registry and retains recently completed traces. One Observer may serve any
// number of engines, sessions, and servers concurrently.
//
// Every method is safe on a nil *Observer, so instrumented code paths carry
// an optional observer at the cost of one nil-check; a nil observer performs
// no time reads, no atomics, and no allocation.
type Observer struct {
	reg *Registry

	sessionsStarted *Counter
	sessionsHosted  *Gauge
	sessionsEvicted *Counter
	feedbackRounds  *Counter
	finalizes       *Counter
	knns            *Counter
	feedbackReads   *Counter
	finalReads      *Counter
	knnReads        *Counter
	expansions      *Counter
	heapPops        *Counter
	roundSeconds    *Histogram
	finalizeSeconds *Histogram
	knnSeconds      *Histogram
	subqueryFanout  *Histogram
	rerankFallbacks *Counter

	// windows holds the sliding-window latency digests (per engine phase
	// here; the HTTP server adds per-endpoint digests to the same set).
	windows *WindowSet

	nextID   atomic.Uint64
	traceMu  sync.Mutex
	traces   []*Trace // completed traces, oldest first
	traceCap int
}

// New returns an Observer registering the standard engine metrics in reg
// (a nil reg gets a fresh registry).
func New(reg *Registry) *Observer {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Observer{
		reg:             reg,
		sessionsStarted: reg.Counter(MetricSessionsStarted, "Relevance-feedback sessions started."),
		sessionsHosted:  reg.Gauge(MetricSessionsHosted, "Hosted thin-client sessions currently live."),
		sessionsEvicted: reg.Counter(MetricSessionsEvicted, "Hosted sessions evicted by the session cap."),
		feedbackRounds:  reg.Counter(MetricFeedbackRounds, "Relevance-feedback rounds processed."),
		finalizes:       reg.Counter(MetricFinalizes, "Finalized queries (localized k-NN phases run)."),
		knns:            reg.Counter(MetricKNNs, "Plain global k-NN searches."),
		feedbackReads:   reg.Counter(MetricFeedbackReads, "Simulated page reads during feedback processing."),
		finalReads:      reg.Counter(MetricFinalReads, "Simulated page reads during localized k-NN finalize phases."),
		knnReads:        reg.Counter(MetricKNNReads, "Simulated page reads during plain global k-NN searches."),
		expansions:      reg.Counter(MetricExpansions, "Boundary-ratio search expansions (paper sec. 3.3)."),
		heapPops:        reg.Counter(MetricHeapPops, "Best-first search queue pops during finalize phases."),
		roundSeconds:    reg.Histogram(MetricRoundSeconds, "Feedback-round latency in seconds.", DefBuckets),
		finalizeSeconds: reg.Histogram(MetricFinalizeSeconds, "Finalize-phase latency in seconds.", DefBuckets),
		knnSeconds:      reg.Histogram(MetricKNNSeconds, "Global k-NN latency in seconds.", DefBuckets),
		subqueryFanout:  reg.Histogram(MetricSubqueryFanout, "Localized subqueries per finalized query.", FanoutBuckets),
		rerankFallbacks: reg.Counter(MetricRerankFallbacks, "Quantized k-NN searches the SQ8 row filter could not serve (NaN queries), scored exactly instead."),
		windows:         NewWindowSet(0, 0),
		traceCap:        DefaultTraceCap,
	}
}

// Windows returns the observer's sliding-window latency digests (nil for a
// nil observer; every WindowSet method tolerates nil).
func (o *Observer) Windows() *WindowSet {
	if o == nil {
		return nil
	}
	return o.windows
}

// Registry returns the observer's metrics registry (nil for a nil observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// StartTrace opens a trace span for one query. Returns nil on a nil
// observer, which every Trace method tolerates.
func (o *Observer) StartTrace(kind string) *Trace {
	if o == nil {
		return nil
	}
	return &Trace{ID: o.nextID.Add(1), Kind: kind, Start: time.Now()}
}

// SessionStarted counts an engine session creation.
func (o *Observer) SessionStarted() {
	if o == nil {
		return
	}
	o.sessionsStarted.Inc()
}

// SessionHosted counts a hosted (server-side) session coming live.
func (o *Observer) SessionHosted() {
	if o == nil {
		return
	}
	o.sessionsHosted.Add(1)
}

// SessionReleased counts a hosted session ending normally (finalized or
// deleted by its client).
func (o *Observer) SessionReleased() {
	if o == nil {
		return
	}
	o.sessionsHosted.Add(-1)
}

// SessionEvicted counts a hosted session evicted by the session cap.
func (o *Observer) SessionEvicted() {
	if o == nil {
		return
	}
	o.sessionsEvicted.Inc()
	o.sessionsHosted.Add(-1)
}

// AddFeedbackReads folds page reads into the feedback I/O total outside a
// round span (browsing after the last round, flushed at finalize).
func (o *Observer) AddFeedbackReads(n uint64) {
	if o == nil {
		return
	}
	o.feedbackReads.Add(n)
}

// RoundDone records one completed feedback round: the span joins the trace
// (absorbing the representatives displayed since the last round) and the
// round metrics update.
func (o *Observer) RoundDone(t *Trace, span RoundSpan) {
	if o == nil {
		return
	}
	if t != nil {
		span.RepsDisplayed = t.displayed
		t.displayed = 0
		t.Rounds = append(t.Rounds, span)
	}
	o.feedbackRounds.Inc()
	o.feedbackReads.Add(span.PageReads)
	sec := float64(span.DurationNS) / 1e9
	o.roundSeconds.Observe(sec)
	o.windows.Observe(DigestRound, sec)
}

// FinalizeDone records a completed finalize phase and retires the trace into
// the ring.
func (o *Observer) FinalizeDone(t *Trace, span FinalizeSpan) {
	if o == nil {
		return
	}
	o.finalizes.Inc()
	o.finalReads.Add(span.PageReads)
	o.expansions.Add(uint64(span.Expansions))
	o.heapPops.Add(span.HeapPops)
	o.rerankFallbacks.Add(span.RerankFallbacks)
	sec := float64(span.DurationNS) / 1e9
	o.finalizeSeconds.Observe(sec)
	o.windows.Observe(DigestFinalize, sec)
	o.subqueryFanout.Observe(float64(span.Subqueries))
	if t != nil {
		t.Finalize = &span
		t.DurationNS = time.Since(t.Start).Nanoseconds()
		o.retain(t)
	}
}

// KNNDone records one plain global k-NN search; fallbacks is its
// rstar.SearchStats.RerankFallbacks (finalize subqueries report theirs
// through FinalizeDone).
func (o *Observer) KNNDone(d time.Duration, pageReads, fallbacks uint64) {
	if o == nil {
		return
	}
	o.knns.Inc()
	o.knnReads.Add(pageReads)
	o.rerankFallbacks.Add(fallbacks)
	o.knnSeconds.Observe(d.Seconds())
	o.windows.Observe(DigestKNN, d.Seconds())
}

// retain pushes a completed trace into the bounded ring.
func (o *Observer) retain(t *Trace) {
	o.traceMu.Lock()
	defer o.traceMu.Unlock()
	if len(o.traces) >= o.traceCap {
		copy(o.traces, o.traces[1:])
		o.traces[len(o.traces)-1] = t
		return
	}
	o.traces = append(o.traces, t)
}

// Traces returns the retained completed traces, oldest first (a copy; the
// traces themselves are immutable). Nil observers return nil.
func (o *Observer) Traces() []*Trace {
	if o == nil {
		return nil
	}
	o.traceMu.Lock()
	defer o.traceMu.Unlock()
	out := make([]*Trace, len(o.traces))
	copy(out, o.traces)
	return out
}

// TracesFiltered returns up to limit retained traces, newest first,
// optionally restricted to one kind ("session" or "query"; empty keeps all).
// limit <= 0 returns every match. Nil observers return nil.
func (o *Observer) TracesFiltered(kind string, limit int) []*Trace {
	if o == nil {
		return nil
	}
	o.traceMu.Lock()
	defer o.traceMu.Unlock()
	var out []*Trace
	for i := len(o.traces) - 1; i >= 0; i-- {
		t := o.traces[i]
		if kind != "" && t.Kind != kind {
			continue
		}
		out = append(out, t)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}
