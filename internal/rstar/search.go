package rstar

import (
	"context"
	"errors"

	"qdcbir/internal/bitset"
	"qdcbir/internal/disk"
	"qdcbir/internal/vec"
)

// ctxCheckInterval is how many priority-queue pops a search performs between
// context polls. Checking every pop would put an interface call in the
// hottest loop of the system; every 64 pops bounds cancellation latency to a
// few microseconds while keeping the fast path branch-cheap.
const ctxCheckInterval = 64

// Neighbor is one k-NN result.
type Neighbor struct {
	ID    ItemID
	Point vec.Vector
	Dist  float64 // Euclidean distance to the query
}

// SearchStats accumulates the effort counters of one or more k-NN searches:
// priority-queue pops, tree nodes expanded, and item distance computations.
// Effort is added outside the hot loops — the descent folds its local
// counters in when it completes — so passing stats costs nothing inside
// them; a nil *SearchStats disables accumulation entirely. A SearchStats must
// not be shared by concurrent searches.
type SearchStats struct {
	HeapPops    uint64 // best-first queue pops: nodes, in every mode (the queue holds nothing else)
	NodesRead   uint64 // tree nodes expanded (== accounter accesses), in every mode
	ItemsScored uint64 // item distances computed: float64, or float32 under the float32 scorer

	// SQ8 row-filter effort (zero on exact searches): the code rows of the
	// leaves a search popped, and how many of them the filter could not
	// exclude and so scored exactly. A fallback is a NaN query, which defeats
	// the filter's bound and scores every popped leaf exactly instead.
	CodesScanned    uint64 // SQ8 code distances computed
	Reranked        uint64 // rows that passed the filter and were scored exactly
	RerankFallbacks uint64 // searches that could not use the filter
}

// grown returns the pooled buffer buf resized to n elements, reallocating only when its
// capacity falls short; the contents are unspecified.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Query is one k-NN search: the query point, how many neighbours to return,
// the ItemIDs it must pass over (Skip), and where its node accesses (Acc)
// and effort counters (Stats) go — any of the three may be nil.
//
// A row whose ItemID is in Skip is neither returned nor let set the pruning
// radius: the answer is exactly the K nearest unskipped rows, and the descent
// prunes at the K-th of those. The set is read-only for the search and must
// not change while it runs (the segmented engine's tombstone sets are
// copy-on-write, so a snapshot's set never does).
type Query struct {
	Q     vec.Vector
	K     int
	Skip  *bitset.Set
	Acc   disk.Accounter
	Stats *SearchStats
}

// accounter returns the query's accounter, or a no-op when it has none.
func (q *Query) accounter() disk.Accounter {
	if q.Acc == nil {
		return disk.Nop{}
	}
	return q.Acc
}

// KNN returns the k nearest items to q in the whole tree, ordered by
// ascending distance (ties broken by ItemID for determinism), under the
// tree's leaf scorer. Every node visited is reported to acc. A nil acc
// disables accounting.
func (t *Tree) KNN(q vec.Vector, k int, acc disk.Accounter) []Neighbor {
	return t.KNNFrom(t.root, q, k, acc)
}

// KNNFrom restricts the k-NN search to the subtree rooted at n. The query
// decomposition engine uses this for the localized multipoint k-NN
// computations of §3.3: each final subquery searches only its own subcluster
// (or, after boundary expansion, an ancestor's subtree).
func (t *Tree) KNNFrom(n *Node, q vec.Vector, k int, acc disk.Accounter) []Neighbor {
	ns, _ := t.KNNSearch(context.Background(), n, nil, Query{Q: q, K: k, Acc: acc})
	return ns
}

// KNNSearch is the tree's one k-NN search: it answers q over the subtree
// rooted at n with its q.K nearest rows, ordered by ascending distance with
// ties broken by ItemID; q.K <= 0 returns nil.
//
// The query passes over the rows in its Skip set inside the descent (see
// Query), so it prunes at its K-th unskipped distance however much of the
// subtree is skipped.
//
// Rows are scored by the tree's installed leaf scorer: exact float64, the SQ8
// row filter in front of it (same bits), or the float32 mirror (a distinct
// result mode, f32.go). Non-nil weights rank by the diagonal-weighted
// Euclidean metric instead (the paper's §6 feature-importance extension; the
// Query Point Movement baseline re-weights dimensions each round), always in
// exact float64; weights must be non-negative for its MINDIST bound to hold.
// An SQ8 tree over an unclean corpus scores exactly, and so does a NaN query
// (quant.go).
//
// The search polls ctx as it runs and returns ctx.Err() once it sees the
// context done; q.Stats is then unspecified. A search that ran to completion
// returns a nil error whatever the context's state afterwards.
func (t *Tree) KNNSearch(ctx context.Context, n *Node, weights vec.Vector, q Query) ([]Neighbor, error) {
	if n == nil || n.Len() == 0 {
		return nil, nil
	}
	m := t.metric(weights)
	roots := [1]root{{t: t, n: n, m: m}}
	f := forest{roots: roots[:], dim: t.dim, f32: m.fslab != nil}
	sc := descentPool.Get().(*descentScratch)
	defer descentPool.Put(sc)
	return f.descend(ctx, sc, nil, q)
}

// metric returns the leaf scorer a search of t runs under weights.
func (t *Tree) metric(weights vec.Vector) metric {
	var m metric
	switch {
	case weights != nil:
		m.weights = weights
	case t.fslab != nil:
		m.fslab = t.fslab
	case t.quant != nil && t.quant.Clean():
		m.quant = t.quant
	}
	return m
}

// Root is one tree of a KNNForest search: the tree, the ItemIDs the search
// must pass over in it (Skip, as Query.Skip), and the global ID of each of
// its ItemIDs (IDs[id]; nil leaves IDs as they are). Global IDs must be
// unique across the forest.
type Root struct {
	Tree *Tree
	Skip *bitset.Set
	IDs  []int
}

// Scored is a row a KNNForest caller scored itself: its global ID and its
// squared distance to the query, computed as the forest's trees compute one
// (the float32 kernel's value, widened, when they score in float32).
type Scored struct {
	ID     ItemID
	DistSq float64
}

// KNNForest answers q over several trees at once, as if one tree held all
// their unskipped rows under their global IDs plus the pre-scored rows: the
// answer is the q.K smallest of them under (squared distance, global ID),
// ordered as KNNSearch orders a result, with global IDs in Neighbor.ID and a
// nil Point for a pre-scored row. It is KNNSearch's one descent with every
// root in its queue: each tree keeps its own leaf scorer, stop rule, Skip set
// and SQ8 state, and all of them prune against the one radius, which the
// pre-scored rows seed. A pre-scored row whose distance is NaN is never
// taken. q.Skip must be nil (each Root carries its own); the node IDs
// reported to q.Acc are per tree. Empty trees are passed over. Under nil
// weights the trees must all score in float32 or none may.
func KNNForest(ctx context.Context, roots []Root, weights vec.Vector, rows []Scored, q Query) ([]Neighbor, error) {
	if q.Skip != nil {
		return nil, errors.New("rstar: a forest query passes over rows by root, not by Query.Skip")
	}
	sc := descentPool.Get().(*descentScratch)
	defer func() {
		clear(sc.roots) // drop the trees' references before the scratch is pooled
		descentPool.Put(sc)
	}()
	f := forest{dim: len(q.Q)}
	sc.roots = sc.roots[:0]
	for _, r := range roots {
		n := r.Tree.root
		if n == nil || n.Len() == 0 {
			continue
		}
		m := r.Tree.metric(weights)
		if len(sc.roots) > 0 && f.f32 != (m.fslab != nil) {
			return nil, errors.New("rstar: forest mixes float32 and float64 leaf scorers")
		}
		f.f32 = m.fslab != nil
		sc.roots = append(sc.roots, root{t: r.Tree, n: n, m: m, skip: r.Skip, ids: r.IDs})
	}
	f.roots = sc.roots
	return f.descend(ctx, sc, rows, q)
}

// neighborLess is the documented result order: ascending (Dist, ID). IDs are
// unique within a tree, so the order is total.
func neighborLess(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// Search returns all items whose points fall inside r, in no particular
// order. Visited nodes are reported to acc.
func (t *Tree) Search(r Rect, acc disk.Accounter) []Item {
	if acc == nil {
		acc = disk.Nop{}
	}
	var out []Item
	var walk func(n *Node)
	walk = func(n *Node) {
		acc.Access(n.id)
		if n.leaf {
			for _, it := range n.items {
				if r.Contains(it.Point) {
					out = append(out, it)
				}
			}
			return
		}
		for _, c := range n.children {
			if r.Intersects(c.rect) {
				walk(c)
			}
		}
	}
	walk(t.root)
	return out
}

// Walk visits every node in depth-first pre-order, calling fn with each node
// and its level (leaves are level 0). Package rfs uses this to attach
// representatives.
func (t *Tree) Walk(fn func(n *Node, level int)) {
	leafLevel := t.height - 1
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fn(n, leafLevel-depth)
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
}

// LeafOf returns the leaf whose stored item has the given ID and point, or
// nil if absent. The RFS structure maps representative images back to their
// clusters with this.
func (t *Tree) LeafOf(id ItemID, p vec.Vector) *Node { return t.findLeaf(t.root, id, p) }
