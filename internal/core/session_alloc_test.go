package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"qdcbir/internal/dataset"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
)

// paperScaleEngine is the paper's corpus shape: 15,000 × 37-d in 150
// categories, node capacity 100, 5 % representatives.
func paperScaleEngine(t *testing.T) *Engine {
	t.Helper()
	corpus := dataset.BuildVectors(dataset.SmallSpec(1, 150, 15000), 37, 0.02, 2)
	s := rfs.Build(corpus.Vectors, rfs.BuildConfig{
		RepFraction: 0.05,
		Tree:        rstar.Config{MaxFill: 100},
		TargetFill:  93,
		Seed:        3,
	})
	return NewEngine(s, Config{Parallelism: 1})
}

// perOp runs f n times and returns the mean heap bytes and allocations of
// one run, from the runtime's cumulative counters.
func perOp(n int, f func(i int)) (bytes, allocs float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestSessionAllocationGates pins what opening a session, drawing a display
// and answering a one-shot query may allocate. Both once carried a page cache pre-sized for
// 65,536 pages (4.7 MB per session, 2.4 MB per query) over a tree of a few
// hundred; a session's accounters now grow with the pages it touches.
func TestSessionAllocationGates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	eng := paperScaleEngine(t)
	const runs = 200

	rng := rand.New(rand.NewSource(1))
	bytes, allocs := perOp(runs, func(int) { eng.NewSession(rng) })
	t.Logf("NewSession: %.0f B, %.1f allocs", bytes, allocs)
	if bytes >= 64<<10 || allocs > 32 {
		t.Errorf("NewSession allocates %.0f B in %.1f allocations; the gate is < 64 KB and <= 32", bytes, allocs)
	}

	// A display over a decomposed frontier: seed 11's root display, every
	// third candidate marked, then displays of the 6-node frontier that round
	// left. Before the four session copies became one round machine this
	// measured 16.09 allocations per display (a slice per pool's draw, and
	// the pool and display lists grown by append); the gate holds that line.
	sess := eng.NewSession(rand.New(rand.NewSource(11)))
	var marks []rstar.ItemID
	for i, c := range sess.Candidates() {
		if i%3 == 0 {
			marks = append(marks, c.ID)
		}
	}
	if err := sess.Feedback(marks); err != nil {
		t.Fatal(err)
	}
	_, displayAllocs := perOp(runs, func(int) { sess.Candidates() })
	t.Logf("display over %d subqueries: %.2f allocs", len(sess.Frontier()), displayAllocs)
	if displayAllocs > 16.09 {
		t.Errorf("a display allocates %.2f times; the gate is <= 16.09", displayAllocs)
	}

	// Five examples from three leaves: a query that decomposes.
	examples := []rstar.ItemID{10, 11, 4000, 4001, 9000}
	const k = 100
	ctx := context.Background()
	oneShot, oneShotAllocs := perOp(runs, func(int) {
		if _, _, err := eng.QueryByExamplesCtx(ctx, examples, k, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one-shot query: %.0f B, %.1f allocs", oneShot, oneShotAllocs)
	if oneShot >= 64<<10 {
		t.Errorf("one-shot query allocates %.0f B; the gate is < 64 KB", oneShot)
	}

	// The same examples as a session's panel, each at its leaf — what the
	// one-shot query assembles for itself. Restoring that session and
	// finalizing it is the same work, so it is the one-shot query's ceiling.
	st := &SessionState{Version: SessionStateVersion, Assign: make(map[int]uint64)}
	for _, id := range examples {
		st.Relevant = append(st.Relevant, int(id))
		st.Assign[int(id)] = uint64(eng.rfs.LeafOf(id).ID())
	}
	session, _ := perOp(runs, func(int) {
		sess, err := eng.RestoreSession(st, rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.FinalizeCtx(ctx, k); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("restored-session finalize: %.0f B", session)
	if oneShot > session {
		t.Errorf("one-shot query allocates %.0f B, a session finalize over the same examples %.0f B", oneShot, session)
	}
}
