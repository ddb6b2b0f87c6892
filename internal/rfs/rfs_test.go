package rfs

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"qdcbir/internal/disk"
	"qdcbir/internal/rstar"
	"qdcbir/internal/vec"
)

// testCfg uses small nodes so modest corpora produce multi-level trees.
var testCfg = BuildConfig{
	Tree:       rstar.Config{MaxFill: 16, MinFill: 6},
	TargetFill: 14,
	Seed:       1,
}

// clusteredCorpus builds nBlobs Gaussian blobs of blobSize points each.
func clusteredCorpus(rng *rand.Rand, nBlobs, blobSize, dim int) []vec.Vector {
	var pts []vec.Vector
	for b := 0; b < nBlobs; b++ {
		center := make(vec.Vector, dim)
		for j := range center {
			center[j] = rng.Float64() * 100
		}
		for i := 0; i < blobSize; i++ {
			p := center.Clone()
			for j := range p {
				p[j] += rng.NormFloat64()
			}
			pts = append(pts, p)
		}
	}
	return pts
}

func buildTest(t *testing.T, pts []vec.Vector, cfg BuildConfig) *Structure {
	t.Helper()
	s := Build(pts, cfg)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return s
}

func TestBuildBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := clusteredCorpus(rng, 10, 40, 5)
	s := buildTest(t, pts, testCfg)
	if s.Len() != 400 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Tree().Height() < 2 {
		t.Errorf("tree height %d, expected multi-level", s.Tree().Height())
	}
	// Distinct representatives about 5% of the corpus.
	frac := float64(s.RepCount()) / float64(s.Len())
	if frac < 0.03 || frac > 0.15 {
		t.Errorf("rep fraction %.3f outside sane band around 0.05", frac)
	}
}

func TestBuildEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(nil, testCfg)
}

func TestEveryNodeHasReps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := buildTest(t, clusteredCorpus(rng, 8, 30, 4), testCfg)
	s.Tree().Walk(func(n *rstar.Node, _ int) {
		reps := s.Reps(n, nil)
		if len(reps) == 0 {
			t.Errorf("node %d has no representatives", n.ID())
		}
		for _, id := range reps {
			if !s.Contains(n, id) {
				t.Errorf("node %d rep %d not in subtree", n.ID(), id)
			}
		}
	})
}

func TestUpperLevelsHaveMoreReps(t *testing.T) {
	// §3.1: "clusters in the upper levels of the RFS structure have more
	// representative images than those in the lower levels".
	rng := rand.New(rand.NewSource(3))
	s := buildTest(t, clusteredCorpus(rng, 12, 50, 4), testCfg)
	sums := map[int][]int{}
	s.Tree().Walk(func(n *rstar.Node, level int) {
		sums[level] = append(sums[level], len(s.Reps(n, nil)))
	})
	mean := func(xs []int) float64 {
		var t float64
		for _, x := range xs {
			t += float64(x)
		}
		return t / float64(len(xs))
	}
	top := s.Tree().Height() - 1
	if top == 0 {
		t.Skip("single-level tree")
	}
	if mean(sums[top]) <= mean(sums[0]) {
		t.Errorf("root level mean reps %.1f not above leaf level %.1f", mean(sums[top]), mean(sums[0]))
	}
}

func TestInternalRepsComeFromChildReps(t *testing.T) {
	// The bottom-up rule: an internal node's representative must also be a
	// representative of the child subtree it came from.
	rng := rand.New(rand.NewSource(4))
	s := buildTest(t, clusteredCorpus(rng, 8, 40, 4), testCfg)
	s.Tree().Walk(func(n *rstar.Node, _ int) {
		if n.IsLeaf() {
			return
		}
		for _, id := range s.Reps(n, nil) {
			child := s.ChildContaining(n, id)
			if child == nil {
				t.Fatalf("node %d rep %d has no containing child", n.ID(), id)
			}
			found := false
			for _, cid := range s.Reps(child, nil) {
				if cid == id {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("node %d rep %d not a rep of its child %d", n.ID(), id, child.ID())
			}
		}
	})
}

func TestChildContaining(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := buildTest(t, clusteredCorpus(rng, 6, 40, 3), testCfg)
	root := s.Root()
	if root.IsLeaf() {
		t.Skip("tree too small")
	}
	// Every image maps through ChildContaining consistently with LeafOf.
	for id := 0; id < s.Len(); id += 17 {
		item := rstar.ItemID(id)
		child := s.ChildContaining(root, item)
		if child == nil {
			t.Fatalf("image %d not under root", id)
		}
		if !s.Contains(child, item) {
			t.Errorf("ChildContaining(%d) returned subtree without it", id)
		}
	}
	// A leaf has no children.
	leaf := s.LeafOf(0)
	if got := s.ChildContaining(leaf, 0); got != nil {
		t.Error("ChildContaining on leaf should be nil")
	}
}

func TestBoundaryRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := buildTest(t, clusteredCorpus(rng, 6, 40, 3), testCfg)
	leaf := s.LeafOf(0)
	r := leaf.Rect()
	// Centre has ratio 0; a far point has a large ratio.
	if got := s.BoundaryRatio(leaf, r.Center()); got != 0 {
		t.Errorf("centre ratio = %v", got)
	}
	far := r.Center()
	far[0] += r.Diagonal() * 3
	if got := s.BoundaryRatio(leaf, far); got < 1 {
		t.Errorf("far ratio = %v", got)
	}
	// A corner point of the MBR has ratio 0.5 exactly.
	if got := s.BoundaryRatio(leaf, r.Min); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("corner ratio = %v, want 0.5", got)
	}
}

func TestExpandForQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := buildTest(t, clusteredCorpus(rng, 10, 40, 3), testCfg)
	leaf := s.LeafOf(0)
	if leaf.Parent() == nil {
		t.Skip("single-node tree")
	}
	// A query at the node centre never expands.
	center := leaf.Rect().Center()
	if got := s.ExpandForQuery(leaf, []vec.Vector{center}, 0.4); got != leaf {
		t.Error("centred query expanded")
	}
	// A query far outside expands at least one level.
	far := center.Clone()
	far[0] += leaf.Rect().Diagonal() * 2
	got := s.ExpandForQuery(leaf, []vec.Vector{far}, 0.4)
	if got == leaf {
		t.Error("boundary query did not expand")
	}
	// Threshold 0 with an off-centre point expands to the root.
	off := center.Clone()
	off[0] += 1e-3
	if got := s.ExpandForQuery(leaf, []vec.Vector{off}, 0); got != s.Root() {
		t.Error("zero threshold should expand to root")
	}
	// Expansion never escapes the root.
	if got := s.ExpandForQuery(s.Root(), []vec.Vector{far}, 0.4); got != s.Root() {
		t.Error("expansion escaped root")
	}
}

func TestRandomReps(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := buildTest(t, clusteredCorpus(rng, 10, 40, 3), testCfg)
	root := s.Root()
	all := s.Reps(root, nil)
	got := s.RandomReps(root, 5, rng, nil)
	if len(got) != 5 && len(got) != len(all) {
		t.Fatalf("RandomReps returned %d", len(got))
	}
	seen := map[rstar.ItemID]bool{}
	valid := map[rstar.ItemID]bool{}
	for _, id := range all {
		valid[id] = true
	}
	for _, id := range got {
		if seen[id] {
			t.Error("duplicate in RandomReps")
		}
		seen[id] = true
		if !valid[id] {
			t.Errorf("RandomReps returned non-representative %d", id)
		}
	}
	// Request exceeding the pool returns the whole pool.
	everything := s.RandomReps(root, len(all)+100, rng, nil)
	if len(everything) != len(all) {
		t.Errorf("oversized request returned %d of %d", len(everything), len(all))
	}
}

func TestRepsIOAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := buildTest(t, clusteredCorpus(rng, 8, 40, 3), testCfg)
	var acc disk.Counter
	s.Reps(s.Root(), &acc)
	s.Reps(s.LeafOf(0), &acc)
	if acc.Reads() != 2 {
		t.Errorf("reads = %d, want 2 (one per node touched)", acc.Reads())
	}
	// §5.2.2: multiple reps from the same cluster share one node access —
	// with an LRU cache the second read of the same node is a hit.
	cache := disk.NewLRUCache(8)
	s.Reps(s.Root(), cache)
	s.Reps(s.Root(), cache)
	if cache.Reads() != 1 || cache.Accesses() != 2 {
		t.Errorf("cached reads=%d accesses=%d", cache.Reads(), cache.Accesses())
	}
}

func TestRepsRepresentClusters(t *testing.T) {
	// With clearly separated blobs and enough representatives, every blob
	// should contribute at least one root-level representative — the property
	// that makes the initial random display usable (§3.2).
	rng := rand.New(rand.NewSource(10))
	nBlobs, blobSize := 8, 50
	pts := clusteredCorpus(rng, nBlobs, blobSize, 4)
	s := buildTest(t, pts, testCfg)
	rootReps := s.Reps(s.Root(), nil)
	blobsHit := map[int]bool{}
	for _, id := range rootReps {
		blobsHit[int(id)/blobSize] = true
	}
	if len(blobsHit) < nBlobs-1 { // allow one unlucky blob
		t.Errorf("root reps cover only %d of %d blobs", len(blobsHit), nBlobs)
	}
}

func TestKMeansHierarchyBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	pts := clusteredCorpus(rng, 8, 40, 4)
	cfg := testCfg
	cfg.Hierarchy = "kmeans"
	s := buildTest(t, pts, cfg)
	if s.Len() != 320 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Tree().Height() < 2 {
		t.Errorf("height %d", s.Tree().Height())
	}
	if s.RepCount() == 0 {
		t.Fatal("no representatives")
	}
	// The engine-facing API behaves identically over this backbone.
	got := s.Tree().KNN(pts[0], 3, nil)
	if len(got) != 3 || got[0].ID != 0 {
		t.Fatalf("kNN over kmeans hierarchy: %+v", got)
	}
}

func TestUnknownHierarchyPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pts := clusteredCorpus(rng, 2, 20, 3)
	cfg := testCfg
	cfg.Hierarchy = "quadtree"
	defer func() {
		if recover() == nil {
			t.Fatal("unknown hierarchy accepted")
		}
	}()
	Build(pts, cfg)
}

func TestIncrementalBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := clusteredCorpus(rng, 6, 30, 3)
	cfg := testCfg
	cfg.Incremental = true
	s := buildTest(t, pts, cfg)
	if s.Len() != 180 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.RepCount() == 0 {
		t.Fatal("no representatives")
	}
}

// TestInsertDimMismatchPanics: the insertion hierarchy rejects a point of
// the wrong dimension.
func TestInsertDimMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := clusteredCorpus(rng, 4, 30, 3)
	pts[17] = vec.Vector{1, 2}
	cfg := testCfg
	cfg.Hierarchy = "insert"
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(pts, cfg)
}

func TestSubtreeSize(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := buildTest(t, clusteredCorpus(rng, 6, 40, 3), testCfg)
	if got := s.SubtreeSize(s.Root()); got != s.Len() {
		t.Errorf("root subtree size %d != %d", got, s.Len())
	}
	var leafTotal int
	s.Tree().Walk(func(n *rstar.Node, level int) {
		if level == 0 {
			leafTotal += s.SubtreeSize(n)
		}
	})
	if leafTotal != s.Len() {
		t.Errorf("leaf subtree sizes sum to %d", leafTotal)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := clusteredCorpus(rng, 6, 40, 4)
	s := buildTest(t, pts, testCfg)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Len() != s.Len() || loaded.RepCount() != s.RepCount() {
		t.Fatalf("loaded len=%d reps=%d, want %d/%d", loaded.Len(), loaded.RepCount(), s.Len(), s.RepCount())
	}
	if loaded.Tree().Height() != s.Tree().Height() {
		t.Errorf("height %d != %d", loaded.Tree().Height(), s.Tree().Height())
	}
	// Same structure ⇒ same root representative set.
	orig := map[rstar.ItemID]bool{}
	for _, id := range s.Reps(s.Root(), nil) {
		orig[id] = true
	}
	for _, id := range loaded.Reps(loaded.Root(), nil) {
		if !orig[id] {
			t.Errorf("loaded root rep %d not in original", id)
		}
	}
	// Same k-NN behaviour.
	q := pts[3]
	a := s.Tree().KNN(q, 5, nil)
	b := loaded.Tree().KNN(q, 5, nil)
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("kNN differs after reload at rank %d", i)
		}
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
	if _, err := FromSnapshot(nil); err == nil {
		t.Fatal("FromSnapshot accepted nil")
	}
}

func TestBuildDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := clusteredCorpus(rng, 6, 30, 3)
	a := Build(pts, testCfg)
	b := Build(pts, testCfg)
	ra := a.Reps(a.Root(), nil)
	rb := b.Reps(b.Root(), nil)
	if len(ra) != len(rb) {
		t.Fatalf("rep counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("rep %d differs: %d vs %d", i, ra[i], rb[i])
		}
	}
}
