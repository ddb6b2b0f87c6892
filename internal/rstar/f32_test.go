package rstar

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"qdcbir/internal/vec"
)

// f32Reference computes the float32-mode answer for a subtree by brute force:
// narrow the query and every subtree point to float32, score with the
// canonical float32 kernel, sort ascending (Dist, ID).
func f32Reference(tr *Tree, n *Node, q vec.Vector, k int) []Neighbor {
	q32 := vec.Narrow32(q, nil)
	var items []Item
	items = itemsInSubtree(n, items)
	out := make([]Neighbor, 0, len(items))
	for _, it := range items {
		p32 := vec.Narrow32(it.Point, nil)
		d := vec.SqL232(q32, p32)
		out = append(out, Neighbor{ID: it.ID, Point: it.Point, Dist: math.Sqrt(float64(d))})
	}
	// Selection sort on (Dist, ID) — small inputs, clarity over speed.
	for i := 0; i < len(out); i++ {
		min := i
		for j := i + 1; j < len(out); j++ {
			if neighborLess(out[j], out[min]) {
				min = j
			}
		}
		out[i], out[min] = out[min], out[i]
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TestKNNF32MatchesBruteForce: the slab sweep must return exactly the
// float32-mode brute-force answer (same IDs, same float64 distance bits, same
// order) for whole-tree and subtree-restricted searches. Distance ties at the
// k boundary are resolved identically because both sides order by (Dist, ID)
// and the selector's strict-< admission retains the smallest pairs.
func TestKNNF32MatchesBruteForce(t *testing.T) {
	cases := []struct {
		seed  int64
		n     int
		dim   int
		scale float64
	}{
		{seed: 1, n: 60, dim: 2, scale: 1},
		{seed: 2, n: 400, dim: 8, scale: 10},
		{seed: 3, n: 600, dim: 37, scale: 100},
		{seed: 4, n: 300, dim: 12, scale: 0.01},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(tc.seed))
		pts := randPoints(rng, tc.n, tc.dim, tc.scale)
		tr := BulkLoad(tc.dim, smallCfg, bulkItems(pts), 8)
		tr.SetFloat32Scoring(true)
		if !tr.Float32Scoring() {
			t.Fatalf("seed %d: float32 scoring did not enable", tc.seed)
		}
		roots := []*Node{tr.Root()}
		if !tr.Root().IsLeaf() {
			roots = append(roots, tr.Root().Children()...)
		}
		for qi := 0; qi < 15; qi++ {
			q := pts[rng.Intn(len(pts))].Clone()
			if qi%2 == 1 {
				for j := range q {
					q[j] += rng.NormFloat64() * tc.scale * 0.1
				}
			}
			for _, root := range roots {
				for _, k := range []int{1, 5, root.Len() + 3} {
					var st SearchStats
					got, err := tr.KNNOne(context.Background(), root, Scan{Float32: true}, q, k, nil, &st)
					if err != nil {
						t.Fatalf("seed %d: %v", tc.seed, err)
					}
					want := f32Reference(tr, root, q, k)
					if len(got) != len(want) {
						t.Fatalf("seed %d root %d k %d: got %d results, want %d",
							tc.seed, root.ID(), k, len(got), len(want))
					}
					for i := range got {
						if got[i].ID != want[i].ID ||
							math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
							t.Fatalf("seed %d root %d k %d rank %d: got (%d, %v), want (%d, %v)",
								tc.seed, root.ID(), k, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
						}
					}
					if st.ItemsScored == 0 {
						t.Fatalf("seed %d: no ItemsScored accounted", tc.seed)
					}
				}
			}
		}
	}
}

// TestKNNF32DelegatesWhenDisabled: without float32 scoring the entry point
// must answer through the exact float64 search.
func TestKNNF32DelegatesWhenDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randPoints(rng, 150, 6, 1)
	tr := BulkLoad(6, smallCfg, bulkItems(pts), 8)
	q := pts[3]
	got := knnScan(tr, Scan{Float32: true}, q, 10, nil)
	want := tr.KNN(q, 10, nil)
	if len(got) != len(want) {
		t.Fatalf("delegate returned %d, exact %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("rank %d: delegate (%d, %v) != exact (%d, %v)",
				i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

// TestFloat32SurvivesQuantToggle: the shared slab-ordered ID table must stay
// valid when the quantized path is enabled and disabled around an active
// float32 path, and vice versa.
func TestFloat32SurvivesQuantToggle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 200, 5, 1)
	tr := BulkLoad(5, smallCfg, bulkItems(pts), 8)
	tr.SetFloat32Scoring(true)
	if err := tr.SetQuantizedScoring(true); err != nil {
		t.Fatal(err)
	}
	q := pts[7]
	before := knnScan(tr, Scan{Float32: true}, q, 9, nil)
	if err := tr.SetQuantizedScoring(false); err != nil {
		t.Fatal(err)
	}
	if !tr.Float32Scoring() {
		t.Fatal("disabling quantized scoring dropped float32 scoring")
	}
	after := knnScan(tr, Scan{Float32: true}, q, 9, nil)
	for i := range before {
		if before[i].ID != after[i].ID || before[i].Dist != after[i].Dist {
			t.Fatalf("rank %d changed across quant toggle", i)
		}
	}
	// Now drop float32 with quantized still off: the ID table must release
	// and a fresh enable must rebuild it correctly.
	tr.SetFloat32Scoring(false)
	if tr.qids != nil {
		t.Fatal("ID table retained with both sweep paths off")
	}
	tr.SetFloat32Scoring(true)
	again := knnScan(tr, Scan{Float32: true}, q, 9, nil)
	for i := range before {
		if before[i].ID != again[i].ID || before[i].Dist != again[i].Dist {
			t.Fatalf("rank %d changed across re-enable", i)
		}
	}
}

// TestFloat32InvalidatedByMutation: a structural insert must clear the
// float32 mirror (stale slab rows would silently mis-score), falling back to
// the exact path.
func TestFloat32InvalidatedByMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randPoints(rng, 120, 4, 1)
	tr := BulkLoad(4, smallCfg, bulkItems(pts), 8)
	tr.SetFloat32Scoring(true)
	p := randPoints(rng, 1, 4, 1)[0]
	tr.Insert(ItemID(len(pts)), p)
	if tr.Float32Scoring() {
		t.Fatal("float32 scoring survived a structural mutation")
	}
	ns := knnScan(tr, Scan{Float32: true}, p, 5, nil)
	if len(ns) != 5 || ns[0].ID != ItemID(len(pts)) {
		t.Fatalf("post-mutation delegate missed the inserted point: %v", ns)
	}
}
