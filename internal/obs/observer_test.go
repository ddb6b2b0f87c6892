package obs

import (
	"testing"
	"time"
)

// TestNilObserverSafe exercises every hook on a nil observer and nil trace —
// the zero-cost-when-nil contract the engine relies on.
func TestNilObserverSafe(t *testing.T) {
	var o *Observer
	if o.Registry() != nil {
		t.Fatal("nil observer must have a nil registry")
	}
	tr := o.StartTrace("session")
	if tr != nil {
		t.Fatal("nil observer must produce a nil trace")
	}
	tr.AddDisplayed(21)
	o.SessionStarted()
	o.SessionHosted()
	o.SessionReleased()
	o.SessionEvicted()
	o.AddFeedbackReads(3)
	o.RoundDone(tr, RoundSpan{})
	o.FinalizeDone(tr, FinalizeSpan{})
	o.KNNDone(time.Millisecond, 5, 0)
	if o.Traces() != nil {
		t.Fatal("nil observer must have no traces")
	}
}

func TestObserverMetricsAndTrace(t *testing.T) {
	o := New(nil)
	tr := o.StartTrace("session")
	o.SessionStarted()
	tr.AddDisplayed(21)
	tr.AddDisplayed(21)
	o.RoundDone(tr, RoundSpan{Round: 1, Marked: 3, PageReads: 4, DurationNS: 2e6})
	o.RoundDone(tr, RoundSpan{Round: 2, Marked: 2, PageReads: 1, DurationNS: 1e6})
	o.FinalizeDone(tr, FinalizeSpan{K: 20, Subqueries: 3, Expansions: 1, PageReads: 7, HeapPops: 40, DurationNS: 5e6})
	o.AddFeedbackReads(2)
	o.KNNDone(3*time.Millisecond, 11, 0)

	snap := o.Registry().Snapshot()
	wantCounters := map[string]uint64{
		MetricSessionsStarted: 1,
		MetricFeedbackRounds:  2,
		MetricFinalizes:       1,
		MetricKNNs:            1,
		MetricFeedbackReads:   4 + 1 + 2,
		MetricFinalReads:      7,
		MetricKNNReads:        11,
		MetricExpansions:      1,
		MetricHeapPops:        40,
	}
	for name, want := range wantCounters {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Histograms[MetricRoundSeconds].Count; got != 2 {
		t.Errorf("round histogram count = %d, want 2", got)
	}
	if got := snap.Histograms[MetricSubqueryFanout].Count; got != 1 {
		t.Errorf("fanout histogram count = %d, want 1", got)
	}

	traces := o.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained traces = %d, want 1", len(traces))
	}
	got := traces[0]
	if got.Kind != "session" || len(got.Rounds) != 2 || got.Finalize == nil {
		t.Fatalf("trace shape wrong: %+v", got)
	}
	// The two Candidates displays between trace start and round 1 belong to
	// round 1; round 2 saw none.
	if got.Rounds[0].RepsDisplayed != 42 || got.Rounds[1].RepsDisplayed != 0 {
		t.Fatalf("reps displayed = %d, %d; want 42, 0", got.Rounds[0].RepsDisplayed, got.Rounds[1].RepsDisplayed)
	}
	if got.Finalize.Subqueries != 3 || got.DurationNS <= 0 {
		t.Fatalf("finalize span not recorded: %+v", got.Finalize)
	}
}

func TestTraceRingBounded(t *testing.T) {
	o := New(nil)
	o.traceCap = 4
	for i := 0; i < 10; i++ {
		tr := o.StartTrace("query")
		o.FinalizeDone(tr, FinalizeSpan{K: i})
	}
	traces := o.Traces()
	if len(traces) != 4 {
		t.Fatalf("ring length = %d, want 4", len(traces))
	}
	// Oldest first: the last four finalizes had K = 6..9.
	for i, tr := range traces {
		if tr.Finalize.K != 6+i {
			t.Fatalf("ring[%d].K = %d, want %d", i, tr.Finalize.K, 6+i)
		}
	}
}

// TestSessionGaugePairing drives the hosted-session transitions and checks
// the gauge nets out.
func TestSessionGaugePairing(t *testing.T) {
	o := New(nil)
	o.SessionHosted()
	o.SessionHosted()
	o.SessionHosted()
	o.SessionEvicted()
	o.SessionReleased()
	snap := o.Registry().Snapshot()
	if got := snap.Gauges[MetricSessionsHosted]; got != 1 {
		t.Fatalf("hosted gauge = %d, want 1", got)
	}
	if got := snap.Counters[MetricSessionsEvicted]; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}
