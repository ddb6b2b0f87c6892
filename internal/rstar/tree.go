package rstar

import (
	"context"
	"fmt"
	"math"
	"sort"

	"qdcbir/internal/disk"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// ItemID identifies one indexed point (one image in the CBIR corpus).
type ItemID int

// Item is a leaf entry: an identified point.
type Item struct {
	ID    ItemID
	Point vec.Vector
}

// Node is one page of the tree. Nodes are exported read-only: package rfs
// walks them to hang representative images off every cluster, and the query
// decomposition engine descends them during feedback processing. Mutation is
// exclusively through Tree methods.
type Node struct {
	id       disk.PageID
	leaf     bool
	rect     Rect
	parent   *Node
	children []*Node // populated iff !leaf
	items    []Item  // populated iff leaf
	// block is the leaf's contiguous dimension-strided copy of its item
	// points, a subrange of the tree-owned slab built by packBlocks; k-NN
	// scores a whole leaf with one batch kernel call through it.
	block []float64
	// box is an internal node's children's rectangles, dimension-major (each
	// dimension's Min of every child, then its Max of every child), so k-NN
	// bounds all of them with one vec.MinDistSqChildren call. Built by
	// packBlocks.
	box []float64
	// qlo and qhi delimit the subtree's slab rows [qlo, qhi): leaves are
	// packed in depth-first order, so every subtree owns one contiguous row
	// range — a leaf's SQ8 code rows or float32 mirror rows.
	qlo, qhi int
}

// ID returns the node's simulated page ID.
func (n *Node) ID() disk.PageID { return n.id }

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.leaf }

// Rect returns the node's minimum bounding rectangle.
func (n *Node) Rect() Rect { return n.rect }

// Parent returns the node's parent, or nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the internal node's children (nil for leaves). The slice
// must not be modified.
func (n *Node) Children() []*Node { return n.children }

// Items returns the leaf's entries (nil for internal nodes). The slice must
// not be modified.
func (n *Node) Items() []Item { return n.items }

// Rows returns the subtree's slab row range [lo, hi). Subtrees are packed
// depth-first, so a node's children's ranges tile its own, and two nodes'
// ranges intersect only if one lies under the other.
func (n *Node) Rows() (lo, hi int) { return n.qlo, n.qhi }

// Len returns the entry count (children or items).
func (n *Node) Len() int {
	if n.leaf {
		return len(n.items)
	}
	return len(n.children)
}

// Config sets the tree's fill factors. The paper's prototype targets nodes
// with "a maximum of 100 and minimum of 70 images each" (§4); that occupancy
// band is achieved by STR bulk loading (see BulkLoad), while incremental
// insertion uses a standard R* minimum fill (40% of maximum) since a split of
// MaxFill+1 entries cannot give both halves 70 entries.
type Config struct {
	// MaxFill bounds the entries per node. Default 100.
	MaxFill int
	// MinFill is the minimum entries per non-root node and the R* split
	// minimum; it must satisfy 2*MinFill <= MaxFill+1. Default 40% of
	// MaxFill.
	MinFill int
	// ReinsertFrac is the fraction of entries removed on the first overflow
	// per level per insertion (the R* forced-reinsert "p" parameter).
	// Default 0.3.
	ReinsertFrac float64
}

func (c Config) withDefaults() Config {
	if c.MaxFill <= 0 {
		c.MaxFill = 100
	}
	if c.MinFill <= 0 {
		c.MinFill = c.MaxFill * 2 / 5
		if c.MinFill < 1 {
			c.MinFill = 1
		}
	}
	if 2*c.MinFill > c.MaxFill+1 {
		panic(fmt.Sprintf("rstar: MinFill %d too large for MaxFill %d (need 2*MinFill <= MaxFill+1)",
			c.MinFill, c.MaxFill))
	}
	if c.ReinsertFrac <= 0 || c.ReinsertFrac >= 1 {
		c.ReinsertFrac = 0.3
	}
	return c
}

// Tree is an R*-tree over d-dimensional points.
//
// A tree is packed from construction until it is dropped: BulkLoadCtx,
// InsertLoadCtx, FromSnapshot and FromTopology lay every point out in the
// tree-owned slab before returning, and nothing changes the tree's items
// afterwards. Its leaf scorer — float64, the SQ8 row filter (quant.go) or the
// float32 mirror (f32.go) — is installed at most once, before the tree is
// shared; installing requires exclusion against searches, like construction
// itself.
//
// Concurrency invariant: once construction completes, every read path —
// Node accessors, KNN*, Search, Walk, LeafOf, Height, Len, NodeCount — is
// safe for unsynchronized use from any number of goroutines, because reads
// never mutate tree state (no internal caches, no rebalancing on read). The
// shared Accounter passed to a search must itself be goroutine-safe if the
// searches run concurrently (disk.Counter and disk.Nop are; disk.LRUCache is
// not — see package disk).
type Tree struct {
	dim    int
	cfg    Config
	root   *Node
	size   int
	height int
	nextID disk.PageID
	// fromBulk marks trees built by BulkLoad; STR packing may leave one
	// under-filled node per level, which CheckInvariants then tolerates.
	fromBulk bool
	// slab is the flat point storage behind the leaf blocks (depth-first leaf
	// order), retained so the SQ8 codes and the float32 mirror can be derived
	// from it.
	slab []float64

	// The installed leaf scorer, if not plain float64: the SQ8 codes
	// mirroring slab row for row and their quantizer (see quant.go), or the
	// float32 mirror of a slab of float32 values (see f32.go). At most one
	// of quant and fslab is set.
	qcodes []uint8
	quant  *store.Quantized
	fslab  []float32
}

// newTree returns an empty, unpacked tree for points of the given
// dimensionality; InsertLoadCtx fills and packs it.
func newTree(dim int, cfg Config) *Tree {
	if dim <= 0 {
		panic(fmt.Sprintf("rstar: invalid dimension %d", dim))
	}
	cfg = cfg.withDefaults()
	if cfg.MinFill >= cfg.MaxFill {
		panic(fmt.Sprintf("rstar: MinFill %d >= MaxFill %d", cfg.MinFill, cfg.MaxFill))
	}
	t := &Tree{dim: dim, cfg: cfg, height: 1}
	t.root = t.newNode(true)
	return t
}

// InsertLoadCtx builds a tree by inserting the items one at a time with the
// R* algorithm (ChooseSubtree, forced reinsertion, topological split), then
// packs it once. It polls ctx every 1,024 items. Like BulkLoadCtx it reads
// the callers' point slices only while building: packing copies every point
// into the tree-owned slab. It panics on a dimension mismatch.
func InsertLoadCtx(ctx context.Context, dim int, cfg Config, items []Item) (*Tree, error) {
	t := newTree(dim, cfg)
	for i, it := range items {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		t.insert(it)
	}
	t.packBlocks()
	return t, nil
}

// itemsInSubtree appends every item under n to dst and returns it.
func itemsInSubtree(n *Node, dst []Item) []Item {
	if n.leaf {
		return append(dst, n.items...)
	}
	for _, c := range n.children {
		dst = itemsInSubtree(c, dst)
	}
	return dst
}

func (t *Tree) newNode(leaf bool) *Node {
	t.nextID++
	return &Node{id: t.nextID, leaf: leaf}
}

// Root returns the root node.
func (t *Tree) Root() *Node { return t.root }

// Len returns the number of indexed items.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a tree that is a single leaf).
func (t *Tree) Height() int { return t.height }

// Dim returns the point dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Config returns the tree's fill configuration.
func (t *Tree) Config() Config { return t.cfg }

// NodeCount returns the total number of nodes (pages) in the tree.
func (t *Tree) NodeCount() int {
	var count func(*Node) int
	count = func(n *Node) int {
		c := 1
		for _, ch := range n.children {
			c += count(ch)
		}
		return c
	}
	return count(t.root)
}

// insert adds an item to the tree. The item's point is shared, not copied,
// until packBlocks moves it into the slab. It panics on a dimension mismatch.
func (t *Tree) insert(item Item) {
	if len(item.Point) != t.dim {
		panic(fmt.Sprintf("rstar: insert dim %d into %d-d tree", len(item.Point), t.dim))
	}
	// reinserted tracks which levels already used forced reinsertion during
	// this insertion (R* OverflowTreatment is invoked at most once per level).
	reinserted := make(map[int]bool)
	t.insertItem(item, reinserted)
	t.size++
}

// insertItem places item into a leaf and resolves overflows.
func (t *Tree) insertItem(item Item, reinserted map[int]bool) {
	leaf := t.chooseLeaf(t.root, PointRect(item.Point))
	leaf.items = append(leaf.items, item)
	t.adjustRectUp(leaf, PointRect(item.Point))
	if len(leaf.items) > t.cfg.MaxFill {
		t.overflow(leaf, reinserted)
	}
}

// chooseLeaf implements R* ChooseSubtree for point data: at the level above
// the leaves pick the child needing least overlap enlargement (ties broken by
// least area enlargement, then least area); higher up pick least area
// enlargement (ties by least area).
func (t *Tree) chooseLeaf(n *Node, r Rect) *Node {
	for !n.leaf {
		childrenAreLeaves := n.children[0].leaf
		var best *Node
		bestOverlap, bestEnlarge, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
		for _, ch := range n.children {
			enlarge := ch.rect.Enlargement(r)
			area := ch.rect.Area()
			if childrenAreLeaves {
				overlap := overlapEnlargement(n.children, ch, r)
				if overlap < bestOverlap ||
					(overlap == bestOverlap && enlarge < bestEnlarge) ||
					(overlap == bestOverlap && enlarge == bestEnlarge && area < bestArea) {
					best, bestOverlap, bestEnlarge, bestArea = ch, overlap, enlarge, area
				}
			} else {
				if enlarge < bestEnlarge || (enlarge == bestEnlarge && area < bestArea) {
					best, bestEnlarge, bestArea = ch, enlarge, area
				}
			}
		}
		if best == nil {
			// Astronomic coordinates can overflow areas to +Inf, making every
			// enlargement NaN and every comparison false. Degrade to the
			// first child rather than crash; the tree stays valid, only the
			// split quality suffers at those magnitudes.
			best = n.children[0]
		}
		n = best
	}
	return n
}

// overlapEnlargement returns how much the overlap between candidate and its
// siblings grows if candidate's rect is enlarged to cover r.
func overlapEnlargement(siblings []*Node, candidate *Node, r Rect) float64 {
	enlarged := candidate.rect.Union(r)
	var before, after float64
	for _, s := range siblings {
		if s == candidate {
			continue
		}
		before += candidate.rect.OverlapArea(s.rect)
		after += enlarged.OverlapArea(s.rect)
	}
	return after - before
}

// level returns the node's level, counting leaves as 0.
func (t *Tree) level(n *Node) int {
	l := 0
	for !n.leaf {
		n = n.children[0]
		l++
	}
	return l
}

// overflow applies R* OverflowTreatment to an overfull node: forced
// reinsertion the first time a level overflows during one insertion, a split
// otherwise.
func (t *Tree) overflow(n *Node, reinserted map[int]bool) {
	lvl := t.level(n)
	if n != t.root && !reinserted[lvl] {
		reinserted[lvl] = true
		t.reinsert(n, reinserted)
		return
	}
	t.split(n, reinserted)
}

// reinsert removes the ReinsertFrac entries whose centers are farthest from
// the node's center and reinserts them ("far reinsert"), tightening the node.
func (t *Tree) reinsert(n *Node, reinserted map[int]bool) {
	p := int(math.Ceil(t.cfg.ReinsertFrac * float64(n.Len())))
	if p < 1 {
		p = 1
	}
	if n.leaf {
		sort.SliceStable(n.items, func(i, j int) bool {
			return n.rect.centerDistSq(PointRect(n.items[i].Point)) <
				n.rect.centerDistSq(PointRect(n.items[j].Point))
		})
		cut := len(n.items) - p
		removed := make([]Item, p)
		copy(removed, n.items[cut:])
		n.items = n.items[:cut]
		t.recomputeRectUp(n)
		for _, it := range removed {
			t.insertItem(it, reinserted)
		}
		return
	}
	sort.SliceStable(n.children, func(i, j int) bool {
		return n.rect.centerDistSq(n.children[i].rect) < n.rect.centerDistSq(n.children[j].rect)
	})
	cut := len(n.children) - p
	removed := make([]*Node, p)
	copy(removed, n.children[cut:])
	n.children = n.children[:cut]
	t.recomputeRectUp(n)
	lvl := t.level(n)
	for _, ch := range removed {
		t.insertSubtree(ch, lvl-1, reinserted)
	}
}

// insertSubtree reinserts an orphaned subtree whose root belongs at the given
// level (leaves = level 0).
func (t *Tree) insertSubtree(sub *Node, targetLevel int, reinserted map[int]bool) {
	n := t.root
	for t.level(n) > targetLevel+1 {
		var best *Node
		bestEnlarge, bestArea := math.Inf(1), math.Inf(1)
		for _, ch := range n.children {
			enlarge := ch.rect.Enlargement(sub.rect)
			area := ch.rect.Area()
			if enlarge < bestEnlarge || (enlarge == bestEnlarge && area < bestArea) {
				best, bestEnlarge, bestArea = ch, enlarge, area
			}
		}
		if best == nil {
			best = n.children[0] // NaN-degenerate geometry; see chooseLeaf
		}
		n = best
	}
	sub.parent = n
	n.children = append(n.children, sub)
	t.adjustRectUp(n, sub.rect)
	if len(n.children) > t.cfg.MaxFill {
		t.overflow(n, reinserted)
	}
}

// split divides an overfull node using the R* topological split and
// propagates the new sibling upward.
func (t *Tree) split(n *Node, reinserted map[int]bool) {
	var sibling *Node
	if n.leaf {
		left, right := splitEntries(n.items, t.cfg.MinFill,
			func(it Item) Rect { return PointRect(it.Point) })
		sibling = t.newNode(true)
		n.items, sibling.items = left, right
	} else {
		left, right := splitEntries(n.children, t.cfg.MinFill,
			func(c *Node) Rect { return c.rect })
		sibling = t.newNode(false)
		n.children, sibling.children = left, right
		for _, c := range sibling.children {
			c.parent = sibling
		}
	}
	n.rect = nodeMBR(n)
	sibling.rect = nodeMBR(sibling)

	if n == t.root {
		newRoot := t.newNode(false)
		newRoot.children = []*Node{n, sibling}
		n.parent, sibling.parent = newRoot, newRoot
		newRoot.rect = nodeMBR(newRoot)
		t.root = newRoot
		t.height++
		return
	}
	parent := n.parent
	sibling.parent = parent
	parent.children = append(parent.children, sibling)
	t.recomputeRectUp(parent)
	if len(parent.children) > t.cfg.MaxFill {
		t.overflow(parent, reinserted)
	}
}

// splitEntries implements ChooseSplitAxis + ChooseSplitIndex over a generic
// entry slice. It returns the two groups.
func splitEntries[E any](entries []E, minFill int, rectOf func(E) Rect) (left, right []E) {
	dim := rectOf(entries[0]).Dim()
	m := len(entries)
	// distCount is the number of candidate distributions per sort order.
	distCount := m - 2*minFill + 1
	if distCount < 1 {
		distCount = 1
	}

	type order struct {
		byMin bool
		axis  int
	}
	bestAxis, bestMargin := -1, math.Inf(1)
	var bestOrder order
	// ChooseSplitAxis: for each axis, sort by lower then by upper value and
	// sum the margins of all distributions; pick the axis (and sort order)
	// with the minimal margin sum.
	idx := make([]int, m)
	sorted := make([]E, m)
	for axis := 0; axis < dim; axis++ {
		for _, byMin := range []bool{true, false} {
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool {
				ra, rb := rectOf(entries[idx[a]]), rectOf(entries[idx[b]])
				if byMin {
					return ra.Min[axis] < rb.Min[axis]
				}
				return ra.Max[axis] < rb.Max[axis]
			})
			for i, j := range idx {
				sorted[i] = entries[j]
			}
			var marginSum float64
			for d := 0; d < distCount; d++ {
				k := minFill + d
				marginSum += groupMBR(sorted[:k], rectOf).Margin() +
					groupMBR(sorted[k:], rectOf).Margin()
			}
			if marginSum < bestMargin {
				bestMargin = marginSum
				bestAxis = axis
				bestOrder = order{byMin: byMin, axis: axis}
			}
		}
	}
	_ = bestAxis

	// ChooseSplitIndex: along the chosen axis/order pick the distribution
	// with minimal overlap (ties: minimal combined area).
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := rectOf(entries[idx[a]]), rectOf(entries[idx[b]])
		if bestOrder.byMin {
			return ra.Min[bestOrder.axis] < rb.Min[bestOrder.axis]
		}
		return ra.Max[bestOrder.axis] < rb.Max[bestOrder.axis]
	})
	for i, j := range idx {
		sorted[i] = entries[j]
	}
	bestSplit, bestOverlap, bestArea := minFill, math.Inf(1), math.Inf(1)
	for d := 0; d < distCount; d++ {
		k := minFill + d
		r1 := groupMBR(sorted[:k], rectOf)
		r2 := groupMBR(sorted[k:], rectOf)
		overlap := r1.OverlapArea(r2)
		area := r1.Area() + r2.Area()
		if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
			bestSplit, bestOverlap, bestArea = k, overlap, area
		}
	}
	left = make([]E, bestSplit)
	right = make([]E, m-bestSplit)
	copy(left, sorted[:bestSplit])
	copy(right, sorted[bestSplit:])
	return left, right
}

func groupMBR[E any](entries []E, rectOf func(E) Rect) Rect {
	r := rectOf(entries[0]).Clone()
	for _, e := range entries[1:] {
		r = r.Union(rectOf(e))
	}
	return r
}

// nodeMBR recomputes a node's MBR from its entries. It allocates only the
// rectangle it returns: loading an archive recomputes and re-checks every
// node, and a rectangle per entry would be garbage several times the loaded
// system's size, which sets the process's peak memory.
func nodeMBR(n *Node) Rect {
	if n.leaf {
		if len(n.items) == 0 {
			return n.rect
		}
		r := PointRect(n.items[0].Point)
		for _, it := range n.items[1:] {
			r.grow(Rect{Min: it.Point, Max: it.Point})
		}
		return r
	}
	if len(n.children) == 0 {
		return n.rect
	}
	r := n.children[0].rect.Clone()
	for _, c := range n.children[1:] {
		r.grow(c.rect)
	}
	return r
}

// adjustRectUp grows every ancestor MBR to cover r. It is cheaper than a full
// recompute and sufficient after pure growth.
func (t *Tree) adjustRectUp(n *Node, r Rect) {
	for cur := n; cur != nil; cur = cur.parent {
		if len(cur.rect.Min) == 0 {
			cur.rect = r.Clone()
			continue
		}
		cur.rect = cur.rect.Union(r)
	}
}

// recomputeRectUp recomputes MBRs exactly from n up to the root; required
// after shrinking operations (reinsertion removal, splits).
func (t *Tree) recomputeRectUp(n *Node) {
	for cur := n; cur != nil; cur = cur.parent {
		cur.rect = nodeMBR(cur)
	}
}

func (t *Tree) findLeaf(n *Node, id ItemID, p vec.Vector) *Node {
	if !n.rect.Contains(p) && n.Len() > 0 {
		return nil
	}
	if n.leaf {
		for _, it := range n.items {
			if it.ID == id && it.Point.Equal(p) {
				return n
			}
		}
		return nil
	}
	for _, c := range n.children {
		if c.rect.Contains(p) {
			if leaf := t.findLeaf(c, id, p); leaf != nil {
				return leaf
			}
		}
	}
	return nil
}
