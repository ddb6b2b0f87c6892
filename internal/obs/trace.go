package obs

import (
	"context"
	"time"
)

// Trace is the span record of one query's lifetime: every feedback round's
// descent plus the finalize phase. Traces are produced by the engine (one per
// session or QueryByExamples call), completed at finalize, and retained in
// the Observer's ring for JSON export (GET /v1/traces).
//
// A Trace is written by the single goroutine driving its session and becomes
// immutable once the Observer records it; marshaling retained traces is
// therefore safe. All methods are safe on a nil receiver so uninstrumented
// sessions can carry a nil trace.
type Trace struct {
	ID    uint64    `json:"id"`
	Kind  string    `json:"kind"` // "session" (feedback loop) or "query" (QueryByExamples)
	Start time.Time `json:"start"`
	// DurationNS is the wall time from StartTrace to the end of finalize.
	DurationNS int64         `json:"duration_ns"`
	Rounds     []RoundSpan   `json:"rounds,omitempty"`
	Finalize   *FinalizeSpan `json:"finalize,omitempty"`
	// Label is an optional correlation key (the server's request or session
	// id) linking this trace to log lines and response headers.
	Label string `json:"label,omitempty"`

	// displayed accumulates representatives shown since the last feedback
	// round; RoundDone folds it into the round's span.
	displayed int
}

// SetLabel attaches a correlation key to the trace; nil-safe.
func (t *Trace) SetLabel(label string) {
	if t != nil {
		t.Label = label
	}
}

// SinceStart returns the nanoseconds elapsed since the trace opened — the
// offset a span starting now should record. Returns 0 on a nil trace, so
// uninstrumented paths can compute offsets unconditionally cheaply guarded by
// the observer nil-check.
func (t *Trace) SinceStart() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.Start).Nanoseconds()
}

// traceLabelKey carries a correlation label through a context.
type traceLabelKey struct{}

// WithTraceLabel returns a context carrying a correlation label (the server's
// request id). The engine copies it onto any trace it opens under that
// context, linking the trace to the request's log lines and response headers.
func WithTraceLabel(ctx context.Context, label string) context.Context {
	return context.WithValue(ctx, traceLabelKey{}, label)
}

// TraceLabelFromContext extracts the correlation label, or "" when absent.
func TraceLabelFromContext(ctx context.Context) string {
	label, _ := ctx.Value(traceLabelKey{}).(string)
	return label
}

// AddDisplayed notes n representatives shown to the user (one Candidates
// display); the next feedback round's span absorbs the total.
func (t *Trace) AddDisplayed(n int) {
	if t != nil {
		t.displayed += n
	}
}

// RoundSpan records one relevance-feedback round: the user cost (how many
// representatives they had to look at), the marks, and the descent's tree
// I/O — the per-round quantities the paper's §5.2.2 cost model bounds.
type RoundSpan struct {
	Round         int    `json:"round"`          // 1-based
	OffsetNS      int64  `json:"offset_ns"`      // span start relative to the trace start
	Marked        int    `json:"marked"`         // images marked this round
	Relevant      int    `json:"relevant"`       // panel size after the round
	Subqueries    int    `json:"subqueries"`     // frontier width after the round
	RepsDisplayed int    `json:"reps_displayed"` // representatives shown since the previous round
	NodesVisited  uint64 `json:"nodes_visited"`  // RFS node accesses (hits + misses) since the previous round
	PageReads     uint64 `json:"page_reads"`     // simulated disk reads since the previous round
	DurationNS    int64  `json:"duration_ns"`    // Feedback call wall time
}

// SubquerySpan records one localized k-NN subquery of the finalize phase.
type SubquerySpan struct {
	Node         uint64 `json:"node"`          // page ID of the anchor subcluster
	OffsetNS     int64  `json:"offset_ns"`     // span start relative to the trace start
	QueryImages  int    `json:"query_images"`  // relevant images forming the local multipoint query
	Allocated    int    `json:"allocated"`     // result slots allocated (§3.4 proportional share)
	Expanded     bool   `json:"expanded"`      // §3.3 boundary expansion widened the search
	HeapPops     uint64 `json:"heap_pops"`     // best-first queue pops
	NodesRead    uint64 `json:"nodes_read"`    // tree nodes expanded
	PageAccesses uint64 `json:"page_accesses"` // page-access trace length (replayed into the session cache)
	// Quantized marks a subquery answered behind the SQ8 row filter:
	// CodesScanned is the code rows of the leaves it popped, Reranked how
	// many of them the filter could not exclude and scored exactly, and
	// RerankFallbacks is 1 for a query with a NaN or infinite component,
	// which the filter cannot serve.
	Quantized       bool   `json:"quantized,omitempty"`
	CodesScanned    uint64 `json:"codes_scanned,omitempty"`
	Reranked        uint64 `json:"reranked,omitempty"`
	RerankFallbacks uint64 `json:"rerank_fallbacks,omitempty"`
	DurationNS      int64  `json:"duration_ns"`
}

// FinalizeSpan records the final localized k-NN phase: fan-out, per-subquery
// effort, and the serial merge.
type FinalizeSpan struct {
	K          int    `json:"k"`
	OffsetNS   int64  `json:"offset_ns"`  // span start relative to the trace start
	Subqueries int    `json:"subqueries"` // fan-out (number of localized subqueries)
	Expansions int    `json:"expansions"` // §3.3 boundary expansions
	PageReads  uint64 `json:"page_reads"` // simulated disk reads of the whole phase (incl. top-up)
	HeapPops   uint64 `json:"heap_pops"`  // queue pops across all subqueries (incl. top-up)
	// RerankFallbacks totals the searches the SQ8 filter could not serve
	// (NaN queries) across all subqueries and the top-up pass.
	RerankFallbacks uint64         `json:"rerank_fallbacks,omitempty"`
	Subspans        []SubquerySpan `json:"subqueries_detail,omitempty"`
	// MergeOffsetNS is the serial merge + top-up start relative to the trace
	// start; MergeNS is its wall time.
	MergeOffsetNS int64 `json:"merge_offset_ns"`
	MergeNS       int64 `json:"merge_ns"`
	DurationNS    int64 `json:"duration_ns"`
}
