// Package kmtree builds a balanced hierarchical-k-means tree over points and
// emits it as an rstar.TreeSnapshot, giving the RFS structure an alternative
// clustering backbone: the paper picks the R*-tree "without loss of
// generality ... because it is well known" but notes that other hierarchical
// clustering techniques work equally well (§3.1). A k-means hierarchy groups
// by cluster structure rather than by minimum-bounding-rectangle geometry,
// which can align better with the visual subconcept clusters the
// decomposition wants to isolate.
//
// The construction is depth-balanced so the resulting snapshot satisfies the
// R*-tree height invariant: the target depth is fixed up front from the point
// count, every branch recurses exactly that far, and k-means cluster sizes
// are rebalanced against each subtree's capacity.
package kmtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"qdcbir/internal/kmeans"
	"qdcbir/internal/rstar"
	"qdcbir/internal/vec"
)

// Config controls tree construction.
type Config struct {
	// LeafCap bounds items per leaf (default 100, the paper's node size).
	LeafCap int
	// Fanout bounds children per internal node (default = LeafCap).
	Fanout int
	// Seed drives the k-means splits.
	Seed int64
	// KMeansIter bounds Lloyd iterations per split. Default 25.
	KMeansIter int
}

func (c Config) withDefaults() Config {
	if c.LeafCap <= 0 {
		c.LeafCap = 100
	}
	if c.Fanout <= 0 {
		c.Fanout = c.LeafCap
	}
	if c.KMeansIter <= 0 {
		c.KMeansIter = 25
	}
	return c
}

// Build clusters the points hierarchically and returns the snapshot, ready
// for rstar.FromSnapshot. Item IDs are the point indices. It panics on an
// empty input.
func Build(points []vec.Vector, cfg Config) *rstar.TreeSnapshot {
	if len(points) == 0 {
		panic("kmtree: empty point set")
	}
	cfg = cfg.withDefaults()
	dim := len(points[0])
	rng := rand.New(rand.NewSource(cfg.Seed))

	ids := make([]int, len(points))
	for i := range ids {
		ids[i] = i
	}
	depth := targetDepth(len(points), cfg.LeafCap, cfg.Fanout)
	root := buildNode(points, ids, depth, cfg, rng)
	return &rstar.TreeSnapshot{
		Dim: dim,
		Cfg: rstar.Config{MaxFill: max(cfg.LeafCap, cfg.Fanout)},
		// k-means clusters are naturally uneven; tolerate light nodes the
		// same way STR bulk loads do.
		FromBulk: true,
		Root:     root,
	}
}

// targetDepth returns the number of levels below the root needed so that
// fanout^depth * leafCap >= n.
func targetDepth(n, leafCap, fanout int) int {
	depth := 0
	capacity := leafCap
	for capacity < n {
		capacity *= fanout
		depth++
		if depth > 64 {
			panic("kmtree: depth overflow")
		}
	}
	return depth
}

// buildNode recursively partitions ids to exactly `depth` further levels.
func buildNode(points []vec.Vector, ids []int, depth int, cfg Config, rng *rand.Rand) *rstar.NodeSnapshot {
	if depth == 0 {
		leaf := &rstar.NodeSnapshot{Leaf: true}
		for _, id := range ids {
			leaf.Items = append(leaf.Items, rstar.Item{ID: rstar.ItemID(id), Point: points[id]})
		}
		return leaf
	}
	// Capacity of each child subtree at the remaining depth.
	childCap := cfg.LeafCap
	for d := 1; d < depth; d++ {
		childCap *= cfg.Fanout
	}
	k := int(math.Ceil(float64(len(ids)) / float64(childCap)))
	if k < 1 {
		k = 1
	}
	if k > cfg.Fanout {
		k = cfg.Fanout
	}
	groups := splitBalanced(points, ids, k, childCap, cfg, rng)
	node := &rstar.NodeSnapshot{}
	for _, g := range groups {
		node.Children = append(node.Children, buildNode(points, g, depth-1, cfg, rng))
	}
	return node
}

// splitBalanced k-means-partitions ids into k non-empty groups of at most
// maxSize each, reassigning overflow points to the nearest centroid with
// spare capacity.
func splitBalanced(points []vec.Vector, ids []int, k, maxSize int, cfg Config, rng *rand.Rand) [][]int {
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
	// Assign in order of distance to the centroid so the overflow (the
	// points bumped for capacity) are each cluster's outliers.
	type member struct {
		idx  int
		dist float64
	}
	byCluster := make([][]member, r.K)
	for i, d := range kmeans.AssignedSqDists(pts, r) {
		c := r.Assign[i]
		byCluster[c] = append(byCluster[c], member{idx: i, dist: d})
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
	// Overflow points go to the nearest centroid with spare room.
	var open []int
	var openCtrs []vec.Vector
	for _, idx := range overflow {
		open, openCtrs = open[:0], openCtrs[:0]
		for c := range groups {
			if len(groups[c]) < maxSize {
				open, openCtrs = append(open, c), append(openCtrs, r.Centroids[c])
			}
		}
		j, _ := kmeans.Nearest(pts[idx], openCtrs)
		if j < 0 {
			// Should be impossible: k*maxSize >= len(ids) by construction.
			panic(fmt.Sprintf("kmtree: no capacity for overflow point (k=%d maxSize=%d n=%d)", k, maxSize, len(ids)))
		}
		groups[open[j]] = append(groups[open[j]], ids[idx])
	}
	// Drop empty groups (k-means can produce them on degenerate data).
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
