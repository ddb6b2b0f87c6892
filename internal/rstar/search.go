package rstar

import (
	"context"

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
// counters in when it completes, the slab sweeps add per scan — so passing
// stats costs nothing inside them; a nil *SearchStats disables accumulation
// entirely. A SearchStats must not be shared by concurrent searches.
type SearchStats struct {
	HeapPops    uint64 // best-first queue pops (nodes + item candidates)
	NodesRead   uint64 // tree nodes expanded (== accounter accesses)
	ItemsScored uint64 // exact item distances computed

	// Quantized-scan effort (the SQ8 sweep only; zero on exact searches). A
	// fallback is one search whose candidate set failed the rerank guarantee
	// at the requested factor and had to widen (or, for a NaN query, delegate
	// to the exact path outright).
	CodesScanned    uint64 // SQ8 code distances computed
	Reranked        uint64 // candidates re-scored with the exact kernels
	RerankFallbacks uint64 // searches that widened past rerankFactor*k

	// Timed, when set by the caller before the search, makes the quantized
	// path record per-phase wall time below; unset it costs nothing.
	Timed    bool
	ScanNS   int64 // time in quantized sweeps
	RerankNS int64 // time in exact reranks
}

// pqEntry is either a node (to expand) or an item (a candidate result) in the
// best-first search queue, keyed by its lower-bound squared distance.
type pqEntry struct {
	distSq float64
	node   *Node // nil for item entries
	item   Item
}

// searchPQ is a binary min-heap of pqEntry ordered by distSq. It reproduces
// container/heap's sift algorithms exactly — push is append+up(n-1), pop
// swaps the root with the last element, sifts down over n-1, and removes the
// tail — with the same strict < comparator the previous heap.Interface
// implementation used. Identical swap sequences mean identical array layouts
// and therefore an identical pop order among equal-distance entries, which
// keeps retrieval output byte-for-byte stable; the rewrite only removes the
// interface{} boxing that allocated on every push.
type searchPQ []pqEntry

func (p *searchPQ) push(e pqEntry) {
	*p = append(*p, e)
	h := *p
	j := len(h) - 1
	for {
		i := (j - 1) / 2
		if i == j || !(h[j].distSq < h[i].distSq) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (p *searchPQ) pop() pqEntry {
	h := *p
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].distSq < h[j1].distSq {
			j = j2
		}
		if !(h[j].distSq < h[i].distSq) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e := h[n]
	*p = h[:n]
	return e
}

// grown returns the pooled buffer buf resized to n elements, reallocating only when its
// capacity falls short; the contents are unspecified.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Scan says how a search scores rows; the zero value is the exact float64
// best-first descent. Callers pass their own configuration through unchanged:
// the precedence among the fields — Weights, then Float32, then Quantized —
// and every fallback to the exact descent (a mode the tree has not enabled,
// an unclean SQ8 corpus, a NaN query) are resolved by KNNSearch and nowhere
// else.
type Scan struct {
	// Weights, when non-nil, ranks by the diagonal-weighted Euclidean metric
	// (the paper's §6 feature-importance extension; the Query Point Movement
	// baseline re-weights dimensions each round), always on the float64
	// descent. Weights must be non-negative for its MINDIST bound to hold.
	Weights vec.Vector
	// Float32 asks for the float32 slab sweep (f32.go), a distinct result
	// mode; Quantized for the SQ8 two-phase sweep (quant.go), whose results
	// are bit-identical to the exact descent's.
	Float32   bool
	Quantized bool
	// RerankFactor is the SQ8 candidate multiplier; <= 0 uses
	// DefaultRerankFactor.
	RerankFactor int
}

// Query is one k-NN search of a KNNSearch call: the query point, how many
// neighbours to return, and where its node accesses (Acc) and effort counters
// (Stats) go — either may be nil. The search stores the neighbours in Result,
// ordered by ascending distance with ties broken by ItemID; K <= 0 leaves
// Result nil.
type Query struct {
	Q      vec.Vector
	K      int
	Acc    disk.Accounter
	Stats  *SearchStats
	Result []Neighbor
}

// accounter returns the query's accounter, or a no-op when it has none.
func (q *Query) accounter() disk.Accounter {
	if q.Acc == nil {
		return disk.Nop{}
	}
	return q.Acc
}

// KNN returns the k nearest items to q in the whole tree, ordered by
// ascending distance (ties broken by ItemID for determinism). Every node
// visited is reported to acc. A nil acc disables accounting.
func (t *Tree) KNN(q vec.Vector, k int, acc disk.Accounter) []Neighbor {
	return t.KNNFrom(t.root, q, k, acc)
}

// KNNFrom restricts the k-NN search to the subtree rooted at n. The query
// decomposition engine uses this for the localized multipoint k-NN
// computations of §3.3: each final subquery searches only its own subcluster
// (or, after boundary expansion, an ancestor's subtree).
func (t *Tree) KNNFrom(n *Node, q vec.Vector, k int, acc disk.Accounter) []Neighbor {
	ns, _ := t.KNNOne(context.Background(), n, Scan{}, q, k, acc, nil)
	return ns
}

// KNNOne is KNNSearch for a single query: M = 1 is not a separate code path,
// only a one-element batch.
func (t *Tree) KNNOne(ctx context.Context, n *Node, scan Scan, q vec.Vector, k int, acc disk.Accounter, st *SearchStats) ([]Neighbor, error) {
	qs := [1]Query{{Q: q, K: k, Acc: acc, Stats: st}}
	err := t.KNNSearch(ctx, n, scan, qs[:])
	return qs[0].Result, err
}

// KNNSearch is the tree's one k-NN search: it answers every query in qs over
// the subtree rooted at n, scoring rows as scan asks, and stores each answer
// in its Query's Result. Running queries together only shares work — a leaf
// block or a chunk of slab rows wanted by several of them is loaded once and
// scored through the multi-query kernels, which are bit-identical per query
// to the single-query kernels — so each query's Result, Stats deltas and Acc
// trace are exactly what it would get searching alone: callers batch or not
// on load, never on semantics.
//
// The search polls ctx as it runs and returns ctx.Err() once it sees the
// context done; Results and Stats are then unspecified. A search that ran to
// completion returns nil whatever the context's state afterwards.
func (t *Tree) KNNSearch(ctx context.Context, n *Node, scan Scan, qs []Query) error {
	for j := range qs {
		qs[j].Result = nil
	}
	if n == nil || n.Len() == 0 {
		return nil
	}
	switch {
	case scan.Weights != nil:
		return t.descend(ctx, n, metric{weights: scan.Weights}, qs)
	case scan.Float32:
		if t.f32OK {
			return t.sweepF32(ctx, n, qs)
		}
	case scan.Quantized:
		if t.quantOK && t.quant.Clean() {
			return t.sweepSQ8(ctx, n, scan.RerankFactor, qs)
		}
	}
	return t.descend(ctx, n, metric{}, qs)
}

// resolveBoundaryTies enforces the documented (Dist, ID) selection at the
// k boundary: candidates that matched the kth distance exactly but arrived
// after the result list filled compete with the retained entries by ID
// rather than by the queue's arbitrary pop order among equals. Without this
// the SAME live set indexed under two different tree shapes (one segment
// vs. many, or before vs. after a compaction) could return different
// members of a tied pair — the segmented engine's bit-exactness contract
// forbids that. Tie-free searches take the len(ties)==0 path, identical to
// the historical behaviour.
func resolveBoundaryTies(results, ties []Neighbor, k int) []Neighbor {
	if len(ties) == 0 {
		stabilize(results)
		return results
	}
	results = append(results, ties...)
	stabilize(results)
	return results[:k]
}

// stabilize enforces a deterministic order on equal-distance neighbours:
// ascending (Dist, ID). IDs are unique within a tree, so the order is total
// and this stable insertion sort yields the same permutation the previous
// sort.SliceStable call did — without allocating a closure. The input
// arrives nearly sorted (candidates pop in ascending distance order), so the
// pass is effectively linear.
func stabilize(ns []Neighbor) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && neighborLess(ns[j], ns[j-1]); j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

func neighborLess(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// neighborCmp is neighborLess as the three-way comparison slices.SortFunc
// takes.
func neighborCmp(a, b Neighbor) int {
	switch {
	case neighborLess(a, b):
		return -1
	case neighborLess(b, a):
		return 1
	}
	return 0
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
