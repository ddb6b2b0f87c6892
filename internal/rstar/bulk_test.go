package rstar

import (
	"math/rand"
	"testing"

	"qdcbir/internal/disk"
	"qdcbir/internal/vec"
)

func bulkItems(pts []vec.Vector) []Item {
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{ID: ItemID(i), Point: p}
	}
	return items
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := BulkLoad(3, smallCfg, nil, 0)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("len=%d h=%d", tr.Len(), tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadSingleLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 5, 2, 3)
	tr := BulkLoad(2, smallCfg, bulkItems(pts), 8)
	if tr.Height() != 1 || tr.Len() != 5 {
		t.Fatalf("h=%d len=%d", tr.Height(), tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadInvariantsAndCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{50, 500, 3000} {
		pts := randPoints(rng, n, 6, 10)
		tr := BulkLoad(6, smallCfg, bulkItems(pts), 8)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// All IDs present exactly once.
		seen := make(map[ItemID]bool)
		for _, it := range tr.ItemsOf() {
			if seen[it.ID] {
				t.Fatalf("n=%d: duplicate %d", n, it.ID)
			}
			seen[it.ID] = true
		}
		if len(seen) != n {
			t.Fatalf("n=%d: only %d items reachable", n, len(seen))
		}
	}
}

func TestBulkLoadKNNCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 1000, 5, 10)
	tr := BulkLoad(5, smallCfg, bulkItems(pts), 8)
	for trial := 0; trial < 15; trial++ {
		q := randPoints(rng, 1, 5, 10)[0]
		got := tr.KNN(q, 12, nil)
		want := linearKNN(pts, q, 12)
		for i := range got {
			if !almostEq(got[i].Dist, want[i], 1e-9) {
				t.Fatalf("trial %d rank %d: %v want %v", trial, i, got[i].Dist, want[i])
			}
		}
	}
}

func TestBulkLoadDoesNotAliasInput(t *testing.T) {
	pts := []vec.Vector{{1, 1}, {2, 2}}
	items := bulkItems(pts)
	tr := BulkLoad(2, smallCfg, items, 8)
	pts[0][0] = 99
	got := tr.KNN(vec.Vector{1, 1}, 1, nil)
	if got[0].Point[0] != 1 {
		t.Error("bulk load aliases caller's points")
	}
}

func TestBulkLoadPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale bulk load in -short mode")
	}
	// 15,000 items, node capacity 70-100 (fill ~93): the paper reports a
	// 3-level tree at this configuration.
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 15000, 37, 1)
	tr := BulkLoad(37, Config{MaxFill: 100, MinFill: 40}, bulkItems(pts), 93)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 3 {
		t.Errorf("height = %d, paper reports 3 levels at 15k images", tr.Height())
	}
	// Leaf occupancy stays in the paper's 70-100 band for nearly all leaves.
	var leaves, inBand int
	tr.Walk(func(n *Node, level int) {
		if level == 0 {
			leaves++
			if n.Len() >= 70 && n.Len() <= 100 {
				inBand++
			}
		}
	})
	if frac := float64(inBand) / float64(leaves); frac < 0.9 {
		t.Errorf("only %.0f%% of %d leaves in 70-100 band", frac*100, leaves)
	}
}

func TestPointsLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randPoints(rng, 100, 3, 5)
	tr := BulkLoad(3, smallCfg, bulkItems(pts), 8)
	m := tr.Points()
	if len(m) != 100 {
		t.Fatalf("Points has %d entries", len(m))
	}
	for i, p := range pts {
		if !m[ItemID(i)].Equal(p) {
			t.Fatalf("Points[%d] = %v want %v", i, m[ItemID(i)], p)
		}
	}
}

func TestIOAccountingDuringSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 2000, 4, 10)
	tr := BulkLoad(4, smallCfg, bulkItems(pts), 8)
	var acc disk.Counter
	tr.KNN(vec.Vector{0, 0, 0, 0}, 5, &acc)
	if acc.Reads() == 0 {
		t.Fatal("no I/O recorded")
	}
	if acc.Reads() > uint64(tr.NodeCount()) {
		t.Errorf("reads %d exceed node count %d", acc.Reads(), tr.NodeCount())
	}
	// A localized subtree search must touch far fewer pages than the full
	// tree has — this is the efficiency claim behind §5.2.2.
	var sub disk.Counter
	leaf := tr.Root().Children()[0]
	tr.KNNFrom(leaf, vec.Vector{0, 0, 0, 0}, 5, &sub)
	if sub.Reads() >= uint64(tr.NodeCount())/2 {
		t.Errorf("subtree search read %d of %d pages", sub.Reads(), tr.NodeCount())
	}
	// Range search accounting also works.
	var racc disk.Counter
	tr.Search(NewRect(vec.Vector{-1, -1, -1, -1}, vec.Vector{1, 1, 1, 1}), &racc)
	if racc.Reads() == 0 {
		t.Error("range search recorded no I/O")
	}
}

// TestNodeRowsTile checks every node's slab row range on bulk-loaded,
// insertion-built and reloaded trees: the root spans every row, a leaf spans
// exactly its items, and an internal node's children tile its range in
// order.
func TestNodeRowsTile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 700, 4, 10)
	bulk := BulkLoad(4, smallCfg, bulkItems(pts), 8)
	loaded, err := FromSnapshot(bulk.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Tree{
		"bulk":     bulk,
		"insert":   buildTree(t, pts, smallCfg),
		"reloaded": loaded,
	} {
		if lo, hi := tr.Root().Rows(); lo != 0 || hi != tr.Len() {
			t.Fatalf("%s: root rows [%d, %d), want [0, %d)", name, lo, hi, tr.Len())
		}
		var walk func(n *Node)
		walk = func(n *Node) {
			lo, hi := n.Rows()
			if n.IsLeaf() {
				if hi-lo != len(n.Items()) {
					t.Fatalf("%s: leaf %d rows [%d, %d) for %d items", name, n.ID(), lo, hi, len(n.Items()))
				}
				return
			}
			next := lo
			for _, c := range n.Children() {
				clo, chi := c.Rows()
				if clo != next || chi < clo {
					t.Fatalf("%s: node %d child %d rows [%d, %d) after row %d", name, n.ID(), c.ID(), clo, chi, next)
				}
				next = chi
				walk(c)
			}
			if next != hi {
				t.Fatalf("%s: node %d children end at row %d, node at %d", name, n.ID(), next, hi)
			}
		}
		walk(tr.Root())
	}
}
