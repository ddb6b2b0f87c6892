package rstar

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"qdcbir/internal/vec"
)

// smallCfg keeps nodes tiny so tests exercise splits and reinsertion with few
// points.
var smallCfg = Config{MaxFill: 8, MinFill: 3}

func randPoints(rng *rand.Rand, n, dim int, scale float64) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := make(vec.Vector, dim)
		for j := range p {
			p[j] = rng.NormFloat64() * scale
		}
		pts[i] = p
	}
	return pts
}

// insertLoad builds a tree over items by R* insertion.
func insertLoad(t *testing.T, dim int, cfg Config, items []Item) *Tree {
	t.Helper()
	tr, err := InsertLoadCtx(context.Background(), dim, cfg, items)
	if err != nil {
		t.Fatalf("insertion build: %v", err)
	}
	return tr
}

func buildTree(t *testing.T, pts []vec.Vector, cfg Config) *Tree {
	t.Helper()
	tr := insertLoad(t, len(pts[0]), cfg, bulkItems(pts))
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after build: %v", err)
	}
	return tr
}

func TestEmptyTree(t *testing.T) {
	tr := insertLoad(t, 3, smallCfg, nil)
	if tr.Len() != 0 || tr.Height() != 1 || tr.NodeCount() != 1 {
		t.Fatalf("empty tree: len=%d h=%d nodes=%d", tr.Len(), tr.Height(), tr.NodeCount())
	}
	if got := tr.KNN(vec.Vector{0, 0, 0}, 5, nil); len(got) != 0 {
		t.Errorf("KNN on empty tree returned %d", len(got))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("empty tree invariants: %v", err)
	}
}

func TestInsertFewNoSplit(t *testing.T) {
	tr := insertLoad(t, 2, smallCfg, []Item{{1, vec.Vector{1, 1}}, {2, vec.Vector{2, 2}}})
	if tr.Height() != 1 || tr.Len() != 2 {
		t.Fatalf("h=%d len=%d", tr.Height(), tr.Len())
	}
	r := tr.Root().Rect()
	if !r.Min.Equal(vec.Vector{1, 1}) || !r.Max.Equal(vec.Vector{2, 2}) {
		t.Errorf("root rect = %v", r)
	}
}

func TestInsertDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	insertLoad(t, 2, smallCfg, []Item{{1, vec.Vector{1, 2, 3}}})
}

func TestInsertClonesPoint(t *testing.T) {
	p := vec.Vector{1, 1}
	tr := insertLoad(t, 2, smallCfg, []Item{{1, p}})
	p[0] = 99
	got := tr.KNN(vec.Vector{1, 1}, 1, nil)
	if got[0].Point[0] != 1 {
		t.Error("tree stores caller's slice")
	}
}

func TestGrowthAndInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 500, 4, 10)
	tr := buildTree(t, pts, smallCfg)
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Height() < 3 {
		t.Errorf("height %d suspiciously small for 500 pts with MaxFill 8", tr.Height())
	}
}

func TestKNNMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randPoints(rng, 400, 5, 10)
	tr := buildTree(t, pts, smallCfg)
	for trial := 0; trial < 25; trial++ {
		q := randPoints(rng, 1, 5, 10)[0]
		k := 1 + rng.Intn(20)
		got := tr.KNN(q, k, nil)
		want := linearKNN(pts, q, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			// Compare distances (IDs may differ on exact ties).
			if !almostEq(got[i].Dist, want[i], 1e-9) {
				t.Fatalf("trial %d rank %d: dist %v want %v", trial, i, got[i].Dist, want[i])
			}
		}
	}
}

func linearKNN(pts []vec.Vector, q vec.Vector, k int) []float64 {
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = vec.L2(q, p)
	}
	sort.Float64s(ds)
	if k > len(ds) {
		k = len(ds)
	}
	return ds[:k]
}

func almostEq(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestKNNOrderedAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 200, 3, 5)
	tr := buildTree(t, pts, smallCfg)
	q := vec.Vector{0, 0, 0}
	a := tr.KNN(q, 15, nil)
	for i := 1; i < len(a); i++ {
		if a[i].Dist < a[i-1].Dist {
			t.Fatalf("results not ordered at %d", i)
		}
	}
	b := tr.KNN(q, 15, nil)
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("nondeterministic result at %d", i)
		}
	}
}

func TestKNNKLargerThanTree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 10, 2, 3)
	tr := buildTree(t, pts, smallCfg)
	got := tr.KNN(vec.Vector{0, 0}, 50, nil)
	if len(got) != 10 {
		t.Fatalf("got %d, want all 10", len(got))
	}
	if got := tr.KNN(vec.Vector{0, 0}, 0, nil); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
}

func TestKNNFromSubtree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Two distant blobs force separate subtrees.
	var pts []vec.Vector
	for i := 0; i < 100; i++ {
		pts = append(pts, vec.Vector{rng.NormFloat64(), rng.NormFloat64()})
	}
	for i := 0; i < 100; i++ {
		pts = append(pts, vec.Vector{100 + rng.NormFloat64(), 100 + rng.NormFloat64()})
	}
	tr := buildTree(t, pts, smallCfg)
	// Find a subtree clearly on the far blob.
	var far *Node
	for _, c := range tr.Root().Children() {
		if c.Rect().Min[0] > 50 {
			far = c
			break
		}
	}
	if far == nil {
		t.Skip("split did not separate blobs at root level")
	}
	// Query near the origin but search only the far subtree: every result
	// must come from the far blob.
	got := tr.KNNFrom(far, vec.Vector{0, 0}, 5, nil)
	if len(got) == 0 {
		t.Fatal("no results from subtree")
	}
	for _, n := range got {
		if n.Point[0] < 50 {
			t.Errorf("subtree search escaped: %v", n.Point)
		}
	}
}

func TestKNNWeightedMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randPoints(rng, 300, 4, 8)
	tr := buildTree(t, pts, smallCfg)
	w := vec.Vector{4, 0.25, 1, 2}
	for trial := 0; trial < 10; trial++ {
		q := randPoints(rng, 1, 4, 8)[0]
		got, _ := tr.KNNSearch(context.Background(), tr.Root(), w, Query{Q: q, K: 10})
		// Linear reference under the weighted metric.
		ds := make([]float64, len(pts))
		for i, p := range pts {
			ds[i] = vec.WeightedSqL2(q, p, w)
		}
		sort.Float64s(ds)
		for i := range got {
			if !almostEq(got[i].Dist*got[i].Dist, ds[i], 1e-6) {
				t.Fatalf("trial %d rank %d: %v want %v", trial, i, got[i].Dist*got[i].Dist, ds[i])
			}
		}
	}
}

func TestRangeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 300, 3, 10)
	tr := buildTree(t, pts, smallCfg)
	r := NewRect(vec.Vector{-5, -5, -5}, vec.Vector{5, 5, 5})
	got := tr.Search(r, nil)
	want := 0
	for _, p := range pts {
		if r.Contains(p) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("range returned %d, want %d", len(got), want)
	}
	for _, it := range got {
		if !r.Contains(it.Point) {
			t.Errorf("item %d outside range", it.ID)
		}
	}
}

func TestWalkVisitsAllLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := randPoints(rng, 300, 3, 10)
	tr := buildTree(t, pts, smallCfg)
	levels := make(map[int]int)
	nodes := 0
	tr.Walk(func(n *Node, level int) {
		nodes++
		levels[level]++
		if n.IsLeaf() != (level == 0) {
			t.Errorf("node %d: leaf=%v at level %d", n.ID(), n.IsLeaf(), level)
		}
	})
	if nodes != tr.NodeCount() {
		t.Errorf("Walk visited %d nodes, NodeCount %d", nodes, tr.NodeCount())
	}
	if levels[tr.Height()-1] != 1 {
		t.Errorf("expected exactly one root at level %d: %v", tr.Height()-1, levels)
	}
}

func TestLeafOf(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 150, 3, 10)
	tr := buildTree(t, pts, smallCfg)
	for i := 0; i < 20; i++ {
		leaf := tr.LeafOf(ItemID(i), pts[i])
		if leaf == nil {
			t.Fatalf("LeafOf(%d) = nil", i)
		}
		found := false
		for _, it := range leaf.Items() {
			if it.ID == ItemID(i) {
				found = true
			}
		}
		if !found {
			t.Errorf("leaf of %d does not contain it", i)
		}
	}
	if tr.LeafOf(9999, vec.Vector{0, 0, 0}) != nil {
		t.Error("LeafOf absent item non-nil")
	}
}

func TestClusteredDataSeparatesIntoNodes(t *testing.T) {
	// Inserting two well-separated clusters should produce subtrees whose
	// MBRs do not overlap — the property the RFS structure relies on to act
	// as a hierarchical clustering.
	rng := rand.New(rand.NewSource(12))
	var items []Item
	for _, cx := range []float64{0, 1000} {
		for i := 0; i < 60; i++ {
			items = append(items, Item{ItemID(len(items)), vec.Vector{cx + rng.NormFloat64(), rng.NormFloat64()}})
		}
	}
	tr := insertLoad(t, 2, smallCfg, items)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	kids := tr.Root().Children()
	if len(kids) < 2 {
		t.Skip("root has a single child")
	}
	// Count root children pairs that overlap.
	overlaps := 0
	for i := 0; i < len(kids); i++ {
		for j := i + 1; j < len(kids); j++ {
			if kids[i].Rect().OverlapArea(kids[j].Rect()) > 0 {
				overlaps++
			}
		}
	}
	if overlaps > len(kids) {
		t.Errorf("%d overlapping root-child pairs among %d children", overlaps, len(kids))
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MinFill > (MaxFill+1)/2 did not panic")
		}
	}()
	insertLoad(t, 2, Config{MaxFill: 10, MinFill: 8}, nil)
}

func TestNewInvalidDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	insertLoad(t, 0, Config{}, nil)
}

func TestDuplicatePointsSupported(t *testing.T) {
	items := make([]Item, 50)
	for i := range items {
		items[i] = Item{ItemID(i), vec.Vector{1, 1}}
	}
	tr := insertLoad(t, 2, smallCfg, items)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants with duplicates: %v", err)
	}
	got := tr.KNN(vec.Vector{1, 1}, 50, nil)
	if len(got) != 50 {
		t.Fatalf("got %d of 50 duplicates", len(got))
	}
	for _, n := range got {
		if n.Dist != 0 {
			t.Errorf("duplicate at distance %v", n.Dist)
		}
	}
}

func TestConcurrentReads(t *testing.T) {
	// The server shares one tree across sessions; all read paths must be
	// safe under concurrency (verified with -race in CI runs).
	rng := rand.New(rand.NewSource(99))
	pts := randPoints(rng, 800, 5, 10)
	tr := buildTree(t, pts, smallCfg)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			local := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				q := make(vec.Vector, 5)
				for j := range q {
					q[j] = local.NormFloat64() * 10
				}
				if got := tr.KNN(q, 5, nil); len(got) != 5 {
					t.Errorf("worker %d: got %d", w, len(got))
					return
				}
				tr.Search(NewRect(vec.Vector{-1, -1, -1, -1, -1}, vec.Vector{1, 1, 1, 1, 1}), nil)
				tr.Walk(func(*Node, int) {})
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

func TestHighDimensional37(t *testing.T) {
	// The production configuration: 37 dimensions, paper fill factors.
	rng := rand.New(rand.NewSource(13))
	pts := randPoints(rng, 2000, 37, 1)
	tr := buildTree(t, pts, Config{MaxFill: 100, MinFill: 40})
	q := randPoints(rng, 1, 37, 1)[0]
	got := tr.KNN(q, 10, nil)
	want := linearKNN(pts, q, 10)
	for i := range got {
		if !almostEq(got[i].Dist, want[i], 1e-9) {
			t.Fatalf("37-d rank %d: %v want %v", i, got[i].Dist, want[i])
		}
	}
}

// TestNodeMBRAllocatesOneRect: recomputing a node's MBR allocates the result
// and nothing per entry (an archive load recomputes every node several
// times), and equals the fold of Union over the entries bit for bit.
func TestNodeMBRAllocatesOneRect(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := buildTree(t, randPoints(rng, 600, 37, 1), smallCfg)
	tr.Walk(func(n *Node, level int) {
		var want Rect
		if n.leaf {
			want = PointRect(n.items[0].Point)
			for _, it := range n.items[1:] {
				want = want.Union(PointRect(it.Point))
			}
		} else {
			want = n.children[0].rect
			for _, c := range n.children[1:] {
				want = want.Union(c.rect)
			}
		}
		var got Rect
		if allocs := testing.AllocsPerRun(10, func() { got = nodeMBR(n) }); allocs > 2 {
			t.Fatalf("node %d (%d entries): %v allocs, want the result's 2", n.id, n.Len(), allocs)
		}
		if !got.Min.Equal(want.Min) || !got.Max.Equal(want.Max) {
			t.Fatalf("node %d: nodeMBR %v/%v != Union fold %v/%v", n.id, got.Min, got.Max, want.Min, want.Max)
		}
	})
}

// BenchmarkRStarInsert prices incremental R* insertion (with forced
// reinsertion and splits) in the 37-d production configuration, one item at
// a time: the loop InsertLoadCtx runs before it packs.
func BenchmarkRStarInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]vec.Vector, b.N)
	for i := range pts {
		p := make(vec.Vector, 37)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	tree := newTree(37, Config{MaxFill: 100})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.insert(Item{ID: ItemID(i), Point: pts[i]})
	}
}
