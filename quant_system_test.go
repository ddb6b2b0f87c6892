package qdcbir

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qdcbir/internal/disk"
	"qdcbir/internal/obs"
	"qdcbir/internal/rstar"
)

// TestSystemQuantizedMatchesExact builds the same corpus twice — exact and
// quantized — and checks global k-NN and full feedback sessions return
// identical results: the SQ8 scan is an execution strategy, not a different
// answer.
func TestSystemQuantizedMatchesExact(t *testing.T) {
	cfg := SmallConfig()
	cfg.VectorMode = true
	cfg.Images = 600
	exact, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Quantized = true
	quant, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !quant.Quantized() || exact.Quantized() {
		t.Fatalf("quantized flags wrong: exact=%v quant=%v", exact.Quantized(), quant.Quantized())
	}
	for _, example := range []int{0, 17, 256, 599} {
		for _, k := range []int{1, 10, 50} {
			a, b := knnIDs(t, exact, example, k), knnIDs(t, quant, example, k)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("k-NN diverged (example %d, k %d): %v vs %v", example, k, a, b)
			}
		}
	}
	// Full feedback sessions agree too (the finalize phase runs localized
	// subqueries through the quantized path).
	runIDs := func(s *System) []int {
		sess := s.NewSession(321)
		c := sess.Candidates()
		if err := sess.Feedback([]int{c[0].ID, c[1].ID, c[3].ID}); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Finalize(20)
		if err != nil {
			t.Fatal(err)
		}
		return res.IDs()
	}
	if a, b := runIDs(exact), runIDs(quant); !reflect.DeepEqual(a, b) {
		t.Fatalf("session results diverged: %v vs %v", a, b)
	}
}

// TestSystemQuantizedObserved checks the observed quantized k-NN path keeps
// the KNN counter in step and reports no fallback for a finite query.
func TestSystemQuantizedObserved(t *testing.T) {
	cfg := SmallConfig()
	cfg.VectorMode = true
	cfg.Images = 400
	cfg.Quantized = true
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(nil)
	observed := sys.WithObserver(o)
	if !observed.Quantized() {
		t.Fatal("WithObserver dropped the quantizer")
	}
	if _, err := observed.KNN(5, 12); err != nil {
		t.Fatal(err)
	}
	if got := o.Registry().Snapshot().Counters[obs.MetricKNNs]; got != 1 {
		t.Fatalf("knn counter = %d, want 1", got)
	}
	if got := o.Registry().Snapshot().Counters[obs.MetricRerankFallbacks]; got != 0 {
		t.Fatalf("rerank fallbacks = %d on a finite query, want 0", got)
	}
}

// TestSQ8DescentAtPaperScale states, in exact counts, what the SQ8 row filter
// owes at the paper's largest database size (the shape of qdload's
// embedded_sq8: 50,000 × 37-d in vector mode, k = 50) over 4,000 seeded
// corpus queries: every answer is the float64 twin's bit for bit; every
// query opens the exact descent's nodes in the exact descent's order (so
// rstar.node_reads_per_knn cannot tell the modes apart); and a search touches
// a sliver of the code slab — the linear sweep this replaced scanned all
// ~50,000 code rows, 56,207 with its rescans, and charged all 720 leaf pages.
func TestSQ8DescentAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 50,000-image systems")
	}
	cfg := Config{Seed: 1, VectorMode: true, Images: 50000, Categories: 150}
	twin, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Quantized = true
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree, twinTree := sys.RFS().Tree(), twin.RFS().Tree()
	if !tree.QuantizedScoring() || twinTree.QuantizedScoring() {
		t.Fatalf("quantized scoring: system %v, twin %v", tree.QuantizedScoring(), twinTree.QuantizedScoring())
	}
	const searches, k = 4000, 50
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	var nodes, codes, scored uint64
	for i := 0; i < searches; i++ {
		q := sys.Corpus().Vectors[rng.Intn(sys.Len())]
		var sq8Rec, exactRec disk.Recorder
		var sq8St, exactSt rstar.SearchStats
		got, err := tree.KNNOne(ctx, tree.Root(), nil, q, k, &sq8Rec, &sq8St)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twinTree.KNNOne(ctx, twinTree.Root(), nil, q, k, &exactRec, &exactSt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k || len(want) != k {
			t.Fatalf("search %d: %d and %d results, want %d", i, len(got), len(want), k)
		}
		for r := range want {
			if got[r].ID != want[r].ID || math.Float64bits(got[r].Dist) != math.Float64bits(want[r].Dist) {
				t.Fatalf("search %d result %d: SQ8 {%d %v}, float64 twin {%d %v}", i, r, got[r].ID, got[r].Dist, want[r].ID, want[r].Dist)
			}
		}
		if !reflect.DeepEqual(sq8Rec.Trace(), exactRec.Trace()) || sq8St.NodesRead != exactSt.NodesRead {
			t.Fatalf("search %d: SQ8 read %d nodes %v, the exact descent %d nodes %v",
				i, sq8St.NodesRead, sq8Rec.Trace(), exactSt.NodesRead, exactRec.Trace())
		}
		if sq8St.RerankFallbacks != 0 || sq8St.Reranked > sq8St.CodesScanned {
			t.Fatalf("search %d: %d fallbacks, %d rows scored of %d scanned", i, sq8St.RerankFallbacks, sq8St.Reranked, sq8St.CodesScanned)
		}
		nodes += sq8St.NodesRead
		codes += sq8St.CodesScanned
		scored += sq8St.Reranked
	}
	perSearch := func(n uint64) float64 { return float64(n) / searches }
	t.Logf("per search: %.2f nodes read, %.0f code rows scanned, %.0f rows scored exactly", perSearch(nodes), perSearch(codes), perSearch(scored))
	if perSearch(codes) > 1000 {
		t.Errorf("%.0f code rows scanned per search, want <= 1000", perSearch(codes))
	}
	if perSearch(scored) > 400 {
		t.Errorf("%.0f rows scored exactly per search, want <= 400", perSearch(scored))
	}
}
