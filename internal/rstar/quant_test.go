package rstar

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"qdcbir/internal/disk"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// TestKNNQuantMatchesExact is the tentpole property test: on synthetic
// corpora of varying shape, the search behind the SQ8 row filter returns the
// exact search's top-k bit-for-bit — same IDs, same float64 distance bits,
// same order — for whole-tree and subtree-restricted searches alike.
func TestKNNQuantMatchesExact(t *testing.T) {
	cases := []struct {
		seed  int64
		n     int
		dim   int
		scale float64
	}{
		{seed: 1, n: 60, dim: 2, scale: 1},
		{seed: 2, n: 400, dim: 8, scale: 10},
		{seed: 3, n: 1000, dim: 37, scale: 100},
		{seed: 4, n: 200, dim: 5, scale: 0.01},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(tc.seed))
		pts := randPoints(rng, tc.n, tc.dim, tc.scale)
		exactTr, tr := scorerTree(t, "f64", smallCfg, pts, 8), scorerTree(t, "sq8", smallCfg, pts, 8)
		roots, exactRoots := []*Node{tr.Root()}, []*Node{exactTr.Root()}
		if !tr.Root().IsLeaf() {
			roots = append(roots, tr.Root().Children()...)
			exactRoots = append(exactRoots, exactTr.Root().Children()...)
		}
		for qi := 0; qi < 25; qi++ {
			var q vec.Vector
			switch qi % 3 {
			case 0: // a corpus point
				q = pts[rng.Intn(len(pts))]
			case 1: // a perturbed corpus point
				q = pts[rng.Intn(len(pts))].Clone()
				for j := range q {
					q[j] += rng.NormFloat64() * tc.scale * 0.1
				}
			default: // far outside the training range
				q = make(vec.Vector, tc.dim)
				for j := range q {
					q[j] = rng.NormFloat64() * tc.scale * 10
				}
			}
			for ri, root := range roots {
				for _, k := range []int{1, 5, root.Len() + 3} {
					exact, err := exactTr.KNNSearch(context.Background(), exactRoots[ri], nil, Query{Q: q, K: k})
					if err != nil {
						t.Fatalf("exact: %v", err)
					}
					var st SearchStats
					quant, err := tr.KNNSearch(context.Background(), root, nil, Query{Q: q, K: k, Stats: &st})
					if err != nil {
						t.Fatalf("quant: %v", err)
					}
					if len(quant) != len(exact) {
						t.Fatalf("seed %d q%d k=%d: %d quantized results, %d exact",
							tc.seed, qi, k, len(quant), len(exact))
					}
					for i := range exact {
						if quant[i].ID != exact[i].ID ||
							math.Float64bits(quant[i].Dist) != math.Float64bits(exact[i].Dist) {
							t.Fatalf("seed %d q%d k=%d: result %d diverges: quant {%d %v} exact {%d %v}",
								tc.seed, qi, k, i, quant[i].ID, quant[i].Dist, exact[i].ID, exact[i].Dist)
						}
						if !quant[i].Point.Equal(exact[i].Point) {
							t.Fatalf("seed %d q%d k=%d: result %d point diverges", tc.seed, qi, k, i)
						}
					}
				}
			}
		}
	}
}

// TestKNNQuantUncleanCorpusFallsBack: a corpus containing non-finite
// components trains an unclean quantizer (DBErr = +Inf); every quantized
// search must route to the exact path and still agree with it.
func TestKNNQuantUncleanCorpusFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := randPoints(rng, 80, 3, 1)
	pts[17][1] = math.Inf(1)
	pts[42][0] = math.NaN()
	tr := scorerTree(t, "sq8", smallCfg, pts, 8)
	q := vec.Vector{0.1, -0.2, 0.3}
	exact := scorerTree(t, "f64", smallCfg, pts, 8).KNN(q, 5, nil)
	var st SearchStats
	quant, err := tr.KNNSearch(context.Background(), tr.Root(), nil, Query{Q: q, K: 5, Stats: &st})
	if err != nil {
		t.Fatalf("quant: %v", err)
	}
	if st.CodesScanned != 0 {
		t.Errorf("unclean corpus scanned %d codes; want exact-path delegation", st.CodesScanned)
	}
	if len(quant) != len(exact) {
		t.Fatalf("sizes diverge: %d vs %d", len(quant), len(exact))
	}
	for i := range exact {
		if quant[i].ID != exact[i].ID {
			t.Fatalf("result %d diverges on unclean corpus", i)
		}
	}
}

// TestKNNQuantRerankFallback engineers a corpus where code distances carry no
// information — one dimension spans a huge range (setting delta) while the
// query only discriminates along a tiny-range dimension — so among the rows on
// the query's side of the wide dimension the filter can exclude nothing: every
// code row of every leaf the descent opens must be scored exactly, with no
// fallback, and the result must STILL equal the exact search.
func TestKNNQuantRerankFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 64
	pts := make([]vec.Vector, n)
	for i := range pts {
		// dim0 alternates over a 1000-wide range; dim1 is where the true
		// nearest neighbours hide, far below the quantizer step (~3.9).
		pts[i] = vec.Vector{float64(i%2) * 1000, rng.Float64() * 1e-3}
	}
	tr := scorerTree(t, "sq8", smallCfg, pts, 8)
	q := vec.Vector{0, 5e-4}
	exact := scorerTree(t, "f64", smallCfg, pts, 8).KNN(q, 4, nil)
	var st SearchStats
	quant, err := tr.KNNSearch(context.Background(), tr.Root(), nil, Query{Q: q, K: 4, Stats: &st})
	if err != nil {
		t.Fatalf("quant: %v", err)
	}
	if st.CodesScanned == 0 || st.Reranked != st.CodesScanned {
		t.Errorf("scored %d of %d scanned code rows exactly; the codes carry no information, want all", st.Reranked, st.CodesScanned)
	}
	if st.RerankFallbacks != 0 {
		t.Errorf("%d fallbacks on a finite query, want 0", st.RerankFallbacks)
	}
	for i := range exact {
		if quant[i].ID != exact[i].ID ||
			math.Float64bits(quant[i].Dist) != math.Float64bits(exact[i].Dist) {
			t.Fatalf("result %d diverges on a code-degenerate corpus: quant {%d %v} exact {%d %v}",
				i, quant[i].ID, quant[i].Dist, exact[i].ID, exact[i].Dist)
		}
	}
}

// TestAdoptQuantizedMatchesRetrained: adopting a store-ordered quantizer must
// produce the same search behaviour as training over the tree's own slab —
// the codes are a deterministic function of each point.
func TestAdoptQuantizedMatchesRetrained(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts := randPoints(rng, 300, 6, 5)
	flat := make([]float64, 0, len(pts)*6)
	for _, p := range pts {
		flat = append(flat, p...)
	}
	qz, err := store.QuantizeBacking(6, flat)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}

	trained := scorerTree(t, "sq8", smallCfg, pts, 8)
	adopted := BulkLoad(6, smallCfg, bulkItems(pts), 8)
	if err := adopted.AdoptQuantized(qz); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	for qi := 0; qi < 10; qi++ {
		q := randPoints(rng, 1, 6, 5)[0]
		a := trained.KNN(q, 9, &disk.Counter{})
		b := adopted.KNN(q, 9, &disk.Counter{})
		if len(a) != len(b) {
			t.Fatalf("q%d: sizes diverge", qi)
		}
		for i := range a {
			if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
				t.Fatalf("q%d result %d: trained {%d %v} adopted {%d %v}",
					qi, i, a[i].ID, a[i].Dist, b[i].ID, b[i].Dist)
			}
		}
	}

	// Dimension mismatch and out-of-range IDs must be rejected, and leave
	// the tree without codes.
	bare := BulkLoad(6, smallCfg, bulkItems(pts), 8)
	if err := bare.AdoptQuantized(nil); err == nil {
		t.Error("adopt nil quantizer succeeded")
	}
	wrongDim, _ := store.QuantizeBacking(3, flat[:300])
	if err := bare.AdoptQuantized(wrongDim); err == nil {
		t.Error("adopt wrong-dim quantizer succeeded")
	}
	short, _ := store.QuantizeBacking(6, flat[:6*10])
	if err := bare.AdoptQuantized(short); err == nil {
		t.Error("adopt short quantizer succeeded")
	}
	if bare.QuantizedScoring() {
		t.Error("a rejected quantizer left codes installed")
	}
}

// TestQuantSubtreeRanges: after packing, every node's [qlo, qhi) must cover
// exactly its subtree's items, and a leaf's range must be its block's rows.
func TestQuantSubtreeRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pts := randPoints(rng, 500, 4, 1)
	tr := BulkLoad(4, smallCfg, bulkItems(pts), 8)
	tr.Walk(func(n *Node, level int) {
		want := len(itemsInSubtree(n, nil))
		if n.qhi-n.qlo != want {
			t.Errorf("node %d: range [%d,%d) holds %d rows, subtree has %d items",
				n.ID(), n.qlo, n.qhi, n.qhi-n.qlo, want)
		}
		if n.IsLeaf() && want > 0 && &tr.slab[n.qlo*tr.dim] != &n.block[0] {
			t.Errorf("leaf %d: range [%d,%d) is not its block's rows", n.ID(), n.qlo, n.qhi)
		}
	})
}

// TestKNNQuantCancellation: a cancelled context must abort the search.
func TestKNNQuantCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := randPoints(rng, 200, 3, 1)
	tr := scorerTree(t, "sq8", smallCfg, pts, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.KNNSearch(ctx, tr.Root(), nil, Query{Q: pts[0], K: 5}); err == nil {
		t.Fatal("cancelled search returned no error")
	}
}
