package core

import (
	"math/rand"
	"testing"

	"qdcbir/internal/obs"
	"qdcbir/internal/rstar"
)

// observedFixture rebuilds the standard fixture with an Observer installed.
func observedFixture(t *testing.T, o *obs.Observer) (*Engine, func(rstar.ItemID) int) {
	t.Helper()
	eng, blobOf := fixture(t, 6, 40, 7)
	cfg := eng.Config()
	cfg.Observer = o
	return NewEngine(eng.RFS(), cfg), blobOf
}

// TestObserverMatchesSessionStats drives a full session and checks the
// observer's page-read counters agree exactly with the session's own
// disk accounting, and that the retained trace mirrors the interaction.
func TestObserverMatchesSessionStats(t *testing.T) {
	o := obs.New(nil)
	eng, blobOf := observedFixture(t, o)
	sess := eng.NewSession(rand.New(rand.NewSource(3)))
	markBlobs(t, sess, blobOf, map[int]bool{1: true, 4: true}, 3)
	if _, err := sess.Finalize(30); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()

	snap := o.Registry().Snapshot()
	if got := snap.Counters[obs.MetricFeedbackReads]; got != st.FeedbackReads {
		t.Errorf("observer feedback reads = %d, session stats = %d", got, st.FeedbackReads)
	}
	if got := snap.Counters[obs.MetricFinalReads]; got != st.FinalReads {
		t.Errorf("observer final reads = %d, session stats = %d", got, st.FinalReads)
	}
	if got := snap.Counters[obs.MetricExpansions]; got != uint64(st.Expansions) {
		t.Errorf("observer expansions = %d, session stats = %d", got, st.Expansions)
	}
	if got := snap.Counters[obs.MetricFeedbackRounds]; got != uint64(st.Rounds) {
		t.Errorf("observer rounds = %d, session stats = %d", got, st.Rounds)
	}
	if got := snap.Counters[obs.MetricSessionsStarted]; got != 1 {
		t.Errorf("sessions started = %d, want 1", got)
	}
	if got := snap.Counters[obs.MetricFinalizes]; got != 1 {
		t.Errorf("finalizes = %d, want 1", got)
	}

	traces := o.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained traces = %d, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Kind != "session" || len(tr.Rounds) != st.Rounds || tr.Finalize == nil {
		t.Fatalf("trace shape: kind=%q rounds=%d finalize=%v", tr.Kind, len(tr.Rounds), tr.Finalize != nil)
	}
	var roundReads uint64
	for i, r := range tr.Rounds {
		if r.Round != i+1 {
			t.Errorf("round %d numbered %d", i, r.Round)
		}
		if r.RepsDisplayed == 0 {
			t.Errorf("round %d recorded no displayed representatives", i+1)
		}
		roundReads += r.PageReads
	}
	if roundReads > st.FeedbackReads {
		t.Errorf("round spans claim %d feedback reads, session saw %d", roundReads, st.FeedbackReads)
	}
	fin := tr.Finalize
	if fin.Subqueries != len(fin.Subspans) || fin.Subqueries == 0 {
		t.Fatalf("finalize fan-out %d != %d subspans", fin.Subqueries, len(fin.Subspans))
	}
	if fin.PageReads != st.FinalReads {
		t.Errorf("finalize span reads = %d, session stats = %d", fin.PageReads, st.FinalReads)
	}
	var pops uint64
	for _, sq := range fin.Subspans {
		if sq.HeapPops == 0 || sq.NodesRead == 0 || sq.PageAccesses == 0 {
			t.Errorf("subquery %d recorded no effort: %+v", sq.Node, sq)
		}
		pops += sq.HeapPops
	}
	if fin.HeapPops < pops {
		t.Errorf("finalize heap pops %d < sum of subqueries %d", fin.HeapPops, pops)
	}
}

// TestObserverDoesNotPerturbResults checks the zero-cost-when-nil contract's
// other half: instrumentation must never change results or simulated I/O.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	run := func(o *obs.Observer) (*Result, Stats) {
		eng, blobOf := fixture(t, 6, 40, 7)
		if o != nil {
			cfg := eng.Config()
			cfg.Observer = o
			eng = NewEngine(eng.RFS(), cfg)
		}
		sess := eng.NewSession(rand.New(rand.NewSource(3)))
		markBlobs(t, sess, blobOf, map[int]bool{0: true, 2: true}, 3)
		res, err := sess.Finalize(25)
		if err != nil {
			t.Fatal(err)
		}
		return res, sess.Stats()
	}
	plainRes, plainStats := run(nil)
	obsRes, obsStats := run(obs.New(nil))
	if plainStats != obsStats {
		t.Fatalf("stats differ: plain %+v vs observed %+v", plainStats, obsStats)
	}
	a, b := plainRes.IDs(), obsRes.IDs()
	if len(a) != len(b) {
		t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestObserverSQ8ExactAgreement runs the same observed session over a tree
// holding the SQ8 row filter and over one scoring exactly, and requires
// identical results, session stats, observer counters, and per-subquery
// trace effort — the filter must be invisible to every telemetry surface but
// its own code counters.
func TestObserverSQ8ExactAgreement(t *testing.T) {
	run := func(quantized bool) (*Result, Stats, obs.Snapshot, *obs.FinalizeSpan) {
		o := obs.New(nil)
		eng, blobOf := observedFixture(t, o)
		cfg := eng.Config()
		cfg.Quantized = quantized
		eng = NewEngine(eng.RFS(), cfg)
		if got := eng.RFS().Tree().QuantizedScoring(); got != quantized {
			t.Fatalf("Quantized %v left the tree's SQ8 filter installed=%v", quantized, got)
		}
		sess := eng.NewSession(rand.New(rand.NewSource(9)))
		markBlobs(t, sess, blobOf, map[int]bool{1: true, 3: true, 5: true}, 3)
		res, err := sess.Finalize(30)
		if err != nil {
			t.Fatal(err)
		}
		traces := o.Traces()
		if len(traces) != 1 || traces[0].Finalize == nil {
			t.Fatalf("trace shape: %+v", traces)
		}
		return res, sess.Stats(), o.Registry().Snapshot(), traces[0].Finalize
	}
	bRes, bStats, bSnap, bFin := run(true)
	sRes, sStats, sSnap, sFin := run(false)
	if bFin.Subspans[0].CodesScanned == 0 || sFin.Subspans[0].CodesScanned != 0 {
		t.Fatalf("code rows scanned: SQ8 %d, exact %d", bFin.Subspans[0].CodesScanned, sFin.Subspans[0].CodesScanned)
	}

	if bStats != sStats {
		t.Errorf("session stats diverge: SQ8 %+v exact %+v", bStats, sStats)
	}
	a, b := bRes.IDs(), sRes.IDs()
	if len(a) != len(b) {
		t.Fatalf("result sizes diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d diverges: %d vs %d", i, a[i], b[i])
		}
	}
	for _, name := range []string{obs.MetricFeedbackReads, obs.MetricFinalReads, obs.MetricExpansions} {
		if bSnap.Counters[name] != sSnap.Counters[name] {
			t.Errorf("counter %s diverges: SQ8 %d exact %d", name, bSnap.Counters[name], sSnap.Counters[name])
		}
	}
	if bFin.Subqueries != sFin.Subqueries || len(bFin.Subspans) != len(sFin.Subspans) {
		t.Fatalf("fan-out diverges: SQ8 %d/%d exact %d/%d",
			bFin.Subqueries, len(bFin.Subspans), sFin.Subqueries, len(sFin.Subspans))
	}
	if bFin.PageReads != sFin.PageReads || bFin.HeapPops != sFin.HeapPops {
		t.Errorf("finalize effort diverges: SQ8 reads=%d pops=%d exact reads=%d pops=%d",
			bFin.PageReads, bFin.HeapPops, sFin.PageReads, sFin.HeapPops)
	}
	for i := range bFin.Subspans {
		bs, ss := bFin.Subspans[i], sFin.Subspans[i]
		if bs.Node != ss.Node || bs.HeapPops != ss.HeapPops || bs.NodesRead != ss.NodesRead ||
			bs.PageAccesses != ss.PageAccesses {
			t.Errorf("subquery %d effort diverges:\n  SQ8   %+v\n  exact %+v", i, bs, ss)
		}
	}
}

// TestQueryByExamplesTrace checks the one-shot query path records a "query"
// trace whose finalize span accounts the call's reads.
func TestQueryByExamplesTrace(t *testing.T) {
	o := obs.New(nil)
	eng, _ := observedFixture(t, o)
	var ids []rstar.ItemID
	for i := 0; i < 5; i++ {
		ids = append(ids, rstar.ItemID(40+i)) // blob 1
	}
	_, st, err := eng.QueryByExamples(ids, 20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	traces := o.Traces()
	if len(traces) != 1 || traces[0].Kind != "query" {
		t.Fatalf("want one query trace, got %d (%+v)", len(traces), traces)
	}
	if traces[0].Finalize == nil || traces[0].Finalize.PageReads != st.FinalReads {
		t.Fatalf("query trace reads %+v disagree with stats %d", traces[0].Finalize, st.FinalReads)
	}
}
