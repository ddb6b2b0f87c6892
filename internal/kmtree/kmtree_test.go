package kmtree

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"qdcbir/internal/kmeans"
	"qdcbir/internal/rstar"
	"qdcbir/internal/vec"
)

func randomPoints(rng *rand.Rand, n, dim int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := make(vec.Vector, dim)
		for j := range p {
			p[j] = rng.NormFloat64() * 5
		}
		pts[i] = p
	}
	return pts
}

func blobs(rng *rand.Rand, nBlobs, per, dim int) []vec.Vector {
	var pts []vec.Vector
	for b := 0; b < nBlobs; b++ {
		center := make(vec.Vector, dim)
		for j := range center {
			center[j] = float64(b * 40)
		}
		for i := 0; i < per; i++ {
			p := center.Clone()
			for j := range p {
				p[j] += rng.NormFloat64()
			}
			pts = append(pts, p)
		}
	}
	return pts
}

func TestTargetDepth(t *testing.T) {
	cases := []struct {
		n, leaf, fanout, want int
	}{
		{10, 16, 4, 0},
		{16, 16, 4, 0},
		{17, 16, 4, 1},
		{64, 16, 4, 1},
		{65, 16, 4, 2},
		{256, 16, 4, 2},
		{1, 100, 100, 0},
	}
	for _, c := range cases {
		if got := targetDepth(c.n, c.leaf, c.fanout); got != c.want {
			t.Errorf("targetDepth(%d,%d,%d) = %d want %d", c.n, c.leaf, c.fanout, got, c.want)
		}
	}
}

func TestBuildProducesValidTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 10, 50, 300, 1500} {
		pts := randomPoints(rng, n, 5)
		snap := Build(pts, Config{LeafCap: 16, Fanout: 8, Seed: 2})
		tree, err := rstar.FromSnapshot(snap)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tree.Len() != n {
			t.Fatalf("n=%d: tree has %d items", n, tree.Len())
		}
		// All IDs present exactly once.
		seen := map[rstar.ItemID]bool{}
		for _, it := range tree.ItemsOf() {
			if seen[it.ID] {
				t.Fatalf("n=%d: duplicate %d", n, it.ID)
			}
			seen[it.ID] = true
		}
		// k-NN works and finds each point at distance 0.
		for probe := 0; probe < n; probe += 97 {
			got := tree.KNN(pts[probe], 1, nil)
			if len(got) != 1 || got[0].Dist != 0 {
				t.Fatalf("n=%d: self-query for %d failed: %+v", n, probe, got)
			}
		}
	}
}

func TestBuildEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(nil, Config{})
}

func TestLeafCapacityRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 500, 4)
	snap := Build(pts, Config{LeafCap: 12, Fanout: 6, Seed: 4})
	var walk func(n *rstar.NodeSnapshot, depth int, depths map[int]bool)
	depths := map[int]bool{}
	walk = func(n *rstar.NodeSnapshot, depth int, depths map[int]bool) {
		if n.Leaf {
			if len(n.Items) > 12 {
				t.Errorf("leaf with %d items", len(n.Items))
			}
			depths[depth] = true
			return
		}
		if len(n.Children) > 12 { // MaxFill = max(LeafCap, Fanout)
			t.Errorf("node with %d children", len(n.Children))
		}
		for _, c := range n.Children {
			walk(c, depth+1, depths)
		}
	}
	walk(snap.Root, 0, depths)
	if len(depths) != 1 {
		t.Errorf("leaves at %d distinct depths", len(depths))
	}
}

// Semantic grouping: well-separated blobs should land in distinct subtrees,
// i.e. some leaf exists containing only one blob's points.
func TestClusterCoherence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := blobs(rng, 6, 30, 4)
	snap := Build(pts, Config{LeafCap: 32, Fanout: 8, Seed: 6})
	pure, total := 0, 0
	var walk func(n *rstar.NodeSnapshot)
	walk = func(n *rstar.NodeSnapshot) {
		if n.Leaf {
			total++
			blobsIn := map[int]bool{}
			for _, it := range n.Items {
				blobsIn[int(it.ID)/30] = true
			}
			if len(blobsIn) == 1 {
				pure++
			}
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(snap.Root)
	if total == 0 {
		t.Fatal("no leaves")
	}
	if frac := float64(pure) / float64(total); frac < 0.8 {
		t.Errorf("only %.0f%% of %d leaves are blob-pure", frac*100, total)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randomPoints(rng, 200, 3)
	a := Build(pts, Config{LeafCap: 16, Fanout: 4, Seed: 8})
	b := Build(pts, Config{LeafCap: 16, Fanout: 4, Seed: 8})
	var collect func(n *rstar.NodeSnapshot, out *[]int)
	collect = func(n *rstar.NodeSnapshot, out *[]int) {
		if n.Leaf {
			ids := make([]int, len(n.Items))
			for i, it := range n.Items {
				ids[i] = int(it.ID)
			}
			sort.Ints(ids)
			*out = append(*out, ids...)
			*out = append(*out, -1) // leaf separator
			return
		}
		for _, c := range n.Children {
			collect(c, out)
		}
	}
	var x, y []int
	collect(a.Root, &x)
	collect(b.Root, &y)
	if len(x) != len(y) {
		t.Fatal("structures differ in size")
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

// refOverflow counts the points refSplitBalanced moved for capacity, so the
// lanes test can tell it reached the overflow loop.
var refOverflow int

// refBuild is Build as it reads with one scalar vec.SqL2 call per distance
// in the split loops. Its k-means is kmeans.Cluster, which the kmeans tests
// hold equal to a scalar reference.
func refBuild(points []vec.Vector, cfg Config) *rstar.TreeSnapshot {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ids := make([]int, len(points))
	for i := range ids {
		ids[i] = i
	}
	return &rstar.TreeSnapshot{
		Dim:      len(points[0]),
		Cfg:      rstar.Config{MaxFill: max(cfg.LeafCap, cfg.Fanout)},
		FromBulk: true,
		Root:     refBuildNode(points, ids, targetDepth(len(points), cfg.LeafCap, cfg.Fanout), cfg, rng),
	}
}

func refBuildNode(points []vec.Vector, ids []int, depth int, cfg Config, rng *rand.Rand) *rstar.NodeSnapshot {
	if depth == 0 {
		leaf := &rstar.NodeSnapshot{Leaf: true}
		for _, id := range ids {
			leaf.Items = append(leaf.Items, rstar.Item{ID: rstar.ItemID(id), Point: points[id]})
		}
		return leaf
	}
	childCap := cfg.LeafCap
	for d := 1; d < depth; d++ {
		childCap *= cfg.Fanout
	}
	k := min(max(int(math.Ceil(float64(len(ids))/float64(childCap))), 1), cfg.Fanout)
	node := &rstar.NodeSnapshot{}
	for _, g := range refSplitBalanced(points, ids, k, childCap, cfg, rng) {
		node.Children = append(node.Children, refBuildNode(points, g, depth-1, cfg, rng))
	}
	return node
}

func refSplitBalanced(points []vec.Vector, ids []int, k, maxSize int, cfg Config, rng *rand.Rand) [][]int {
	if k == 1 || len(ids) <= 1 {
		return [][]int{ids}
	}
	pts := make([]vec.Vector, len(ids))
	for i, id := range ids {
		pts[i] = points[id]
	}
	r := kmeans.Cluster(pts, k, kmeans.Config{MaxIter: cfg.KMeansIter}, rng)
	groups := make([][]int, r.K)
	var overflow []int
	type member struct {
		idx  int
		dist float64
	}
	byCluster := make([][]member, r.K)
	for i := range ids {
		c := r.Assign[i]
		byCluster[c] = append(byCluster[c], member{idx: i, dist: vec.SqL2(pts[i], r.Centroids[c])})
	}
	for c := range byCluster {
		sort.Slice(byCluster[c], func(a, b int) bool { return byCluster[c][a].dist < byCluster[c][b].dist })
		for j, m := range byCluster[c] {
			if j < maxSize {
				groups[c] = append(groups[c], ids[m.idx])
			} else {
				overflow = append(overflow, m.idx)
			}
		}
	}
	refOverflow += len(overflow)
	for _, idx := range overflow {
		best, bestD := -1, math.Inf(1)
		for c := range groups {
			if len(groups[c]) >= maxSize {
				continue
			}
			if d := vec.SqL2(pts[idx], r.Centroids[c]); d < bestD {
				best, bestD = c, d
			}
		}
		groups[best] = append(groups[best], ids[idx])
	}
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// TestBuildLanesMatchScalar: Build, whose split loops score four centroids
// or four members per kernel call, emits the same tree as the scalar
// reference over sizes, fanouts and dimensions that are not multiples of
// four, with and without duplicate points (ties), through the overflow path.
func TestBuildLanesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	refOverflow = 0
	for _, n := range []int{9, 37, 101, 203} {
		for _, fanout := range []int{2, 3, 5, 6, 9} {
			for _, dim := range []int{1, 3, 6, 13} {
				for _, distinct := range []int{0, 2, 7} {
					var pts []vec.Vector
					if distinct == 0 {
						pts = blobs(rng, 3, n/3+1, dim)[:n]
					} else {
						base := randomPoints(rng, distinct, dim)
						for i := 0; i < n; i++ {
							pts = append(pts, base[rng.Intn(distinct)].Clone())
						}
					}
					cfg := Config{LeafCap: 5, Fanout: fanout, Seed: rng.Int63(), KMeansIter: 3 + n%7}
					if got, want := Build(pts, cfg), refBuild(pts, cfg); !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d fanout=%d dim=%d distinct=%d: tree differs from the scalar reference", n, fanout, dim, distinct)
					}
				}
			}
		}
	}
	if refOverflow == 0 {
		t.Fatal("no split reached the overflow loop")
	}
	t.Logf("%d points moved for capacity", refOverflow)
}
