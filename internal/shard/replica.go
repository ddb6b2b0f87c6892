package shard

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"qdcbir/internal/vec"
)

// Neighbor is one restricted-search result: a global image ID and its
// distance. Distances are exactly the values the single-node tree search
// produces for the same (query, image) pair — float64 sqrt of the kernel's
// squared distance, computed at the store's precision — so per-shard lists
// merge into the single-node ranking without re-scoring. Label is the
// owning shard's ground truth for the image (empty when the corpus carries
// none): it rides on the neighbour so a router can label a result without
// fetching the image's vector.
type Neighbor struct {
	ID    int     `json:"id"`
	Dist  float64 `json:"dist"`
	Label string  `json:"label,omitempty"`
}

// Replica is one shard loaded for serving: the scatter-gather machinery over
// the local subset — the full single-node topology and a slab of the local
// rows grouped by full-tree leaf, so any single-node subtree maps to a
// contiguous row range. The slab is the archive's rows, adopted as decoded.
type Replica struct {
	meta    Meta
	topo    *Topology
	localOf map[int]int // global ID -> local row
	leafID  []uint64    // full-tree leaf per local row
	labels  []string    // per local row
	rowOf   []int       // local row -> slab row

	dim int
	f32 bool // unweighted sweeps run the float32 kernels (Meta.Precision "f32")
	// The rows in (full-tree leaf pre-order, global ID) order, at storage
	// precision: slab for float64 storage, slab32 for float32 storage. A
	// float32 scan over float64 storage is the one case that keeps both —
	// slab32 is then the narrowing the single-node tree sweeps.
	slab    []float64
	slab32  []float32
	slabGID []int    // global ID per slab row
	ranges  [][2]int // per topology node index: slab row range [lo,hi)
}

// SlabLayout orders a shard's local rows the way a replica stores them:
// grouped by full-tree leaf in topology pre-order, and by local row (that is,
// ascending global ID) within a leaf. order maps slab row -> local row;
// ranges gives every topology node's contiguous slab row range, so a
// subtree-restricted search is one flat sweep. The topology must be indexed.
func SlabLayout(t *Topology, leafID []uint64) (order []int, ranges [][2]int, err error) {
	members := make(map[uint64][]int)
	for li, leaf := range leafID {
		if i, ok := t.IdxOf(leaf); !ok || !t.Nodes[i].Leaf {
			return nil, nil, fmt.Errorf("shard: local row %d assigned to unknown leaf %d", li, leaf)
		}
		members[leaf] = append(members[leaf], li)
	}
	order = make([]int, 0, len(leafID))
	ranges = make([][2]int, len(t.Nodes))
	var dfs func(i int)
	dfs = func(i int) {
		lo := len(order)
		if t.Nodes[i].Leaf {
			order = append(order, members[t.Nodes[i].ID]...)
		} else {
			for _, c := range t.Children(i) {
				dfs(c)
			}
		}
		ranges[i] = [2]int{lo, len(order)}
	}
	dfs(t.Root())
	if len(order) != len(leafID) {
		return nil, nil, fmt.Errorf("shard: slab covers %d of %d rows (leaf table inconsistent)", len(order), len(leafID))
	}
	return order, ranges, nil
}

// NewReplica assembles a replica from an archive, adopting its rows as the
// slab. The archive must not be modified afterwards.
func NewReplica(a *Archive) (*Replica, error) {
	if err := a.check(); err != nil {
		return nil, err
	}
	if err := a.Topo.Index(); err != nil {
		return nil, err
	}
	order, ranges, err := SlabLayout(a.Topo, a.LeafID)
	if err != nil {
		return nil, err
	}
	r := &Replica{
		meta:    a.Meta,
		topo:    a.Topo,
		localOf: make(map[int]int, len(a.Globals)),
		leafID:  a.LeafID,
		labels:  a.Labels,
		rowOf:   make([]int, len(order)),
		dim:     a.Meta.Dim,
		f32:     a.Meta.Precision == "f32",
		slab:    a.Rows.F64,
		slab32:  a.Rows.F32,
		slabGID: make([]int, len(order)),
		ranges:  ranges,
	}
	for li, gid := range a.Globals {
		r.localOf[gid] = li
	}
	for row, li := range order {
		r.slabGID[row] = a.Globals[li]
		r.rowOf[li] = row
	}
	if r.f32 && r.slab32 == nil {
		r.slab32 = vec.Narrow32(r.slab, nil)
	}
	return r, nil
}

// Meta returns the shard identity.
func (r *Replica) Meta() Meta { return r.meta }

// Topo returns the full single-node topology (shared; do not modify).
func (r *Replica) Topo() *Topology { return r.topo }

// Owns reports whether the image's row is stored on this shard.
func (r *Replica) Owns(gid int) bool { _, ok := r.localOf[gid]; return ok }

// Point is one locally stored image: its full-tree leaf and feature vector,
// which routers fetch to plan finalize rounds.
type Point struct {
	ID    int       `json:"id"`
	Leaf  uint64    `json:"leaf"`
	Vec   []float64 `json:"vec"`
	Label string    `json:"label,omitempty"`
}

// PointInfo returns a locally stored image's planning record. The vector is
// the exact float64 view the single-node engine would read (for float32
// storage, the exact widening), so router-side centroid and boundary
// arithmetic reproduces the single-node values bit-for-bit.
func (r *Replica) PointInfo(gid int) (Point, bool) {
	li, ok := r.localOf[gid]
	if !ok {
		return Point{}, false
	}
	v := r.rows64(r.rowOf[li], r.rowOf[li]+1, make([]float64, r.dim))
	return Point{ID: gid, Leaf: r.leafID[li], Vec: v, Label: r.labels[li]}, true
}

// rows64 returns slab rows [lo,hi) as float64, in buf — a copy of float64
// rows or the exact widening of float32 rows — or, when buf is nil, as a view
// of the float64 slab. A non-nil buf must hold (hi-lo)·dim values.
func (r *Replica) rows64(lo, hi int, buf []float64) []float64 {
	switch {
	case r.slab == nil:
		return vec.Widen64(r.slab32[lo*r.dim:hi*r.dim], buf)
	case buf == nil:
		return r.slab[lo*r.dim : hi*r.dim]
	}
	return buf[:copy(buf, r.slab[lo*r.dim:hi*r.dim])]
}

// Labeler resolves image labels: locally stored images from the shard's
// ground truth, everything else through the topology's representative-label
// table (displays only ever show representatives).
func (r *Replica) Labeler() func(id int) string {
	return func(id int) string {
		if li, ok := r.localOf[id]; ok {
			return r.labels[li]
		}
		return r.topo.RepLabel(id)
	}
}

// sweepChunk is the row count of one kernel call over a stored slab.
const sweepChunk = 1024

// chunk64 sizes the float64 sweeps: whole sweepChunk blocks over a float64
// slab; over float32 storage, blocks small enough that the widening buffer
// stays near 128 KB however wide the rows are.
func (r *Replica) chunk64() (rows int, buf []float64) {
	if r.slab != nil {
		return sweepChunk, nil
	}
	rows = max(1, min(sweepChunk, (16<<10)/r.dim))
	return rows, make([]float64, rows*r.dim)
}

// SearchNode runs a k-NN search over the shard's rows restricted to the
// single-node subtree rooted at nodeID. The result is ascending by
// (distance, global ID) — the same total order the single-node search's
// stabilized output uses — with distances computed by the same batch kernels
// at the same precision. A non-nil weights vector selects the weighted
// float64 path, exactly as rstar.Scan.Weights does on a single node.
func (r *Replica) SearchNode(ctx context.Context, nodeID uint64, q vec.Vector, weights []float64, k int) ([]Neighbor, error) {
	if weights != nil && len(weights) != r.dim {
		return nil, fmt.Errorf("shard: weight dim %d != corpus dim %d", len(weights), r.dim)
	}
	out, err := r.sweep(ctx, nodeID, []vec.Vector{q}, weights, []int{k})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// SearchNodeBatch answers several k-NN searches restricted to the SAME
// single-node subtree in one pass over the shard's rows: each slab chunk is
// loaded once and scored against every query by the multi-query kernels, with
// one independent bounded selector per query. Per query the result is
// bit-identical to SearchNode — same kernels, same admission order, same
// (distance, global ID) total order — so coalescing concurrent sweeps changes
// throughput, never answers. Weighted searches have no multi kernel and must
// stay on SearchNode.
func (r *Replica) SearchNodeBatch(ctx context.Context, nodeID uint64, qs []vec.Vector, ks []int) ([][]Neighbor, error) {
	return r.sweep(ctx, nodeID, qs, nil, ks)
}

// sweep scores every query against each slab chunk of the node's row range,
// one bounded selector per query. Unweighted sweeps of an f32 replica run
// the float32 kernels; the rest run the float64 kernels, over float32
// storage on rows widened a chunk at a time. weights requires one query.
func (r *Replica) sweep(ctx context.Context, nodeID uint64, qs []vec.Vector, weights []float64, ks []int) ([][]Neighbor, error) {
	if len(qs) != len(ks) {
		return nil, fmt.Errorf("shard: %d queries but %d ks", len(qs), len(ks))
	}
	m := len(qs)
	sels := make([]*topSelect, m)
	for j, q := range qs {
		if ks[j] <= 0 {
			return nil, fmt.Errorf("shard: invalid k=%d", ks[j])
		}
		if len(q) != r.dim {
			return nil, fmt.Errorf("shard: query dim %d != corpus dim %d", len(q), r.dim)
		}
		sels[j] = &topSelect{k: ks[j]}
	}
	idx, ok := r.topo.IdxOf(nodeID)
	if !ok {
		return nil, fmt.Errorf("shard: unknown search node %d", nodeID)
	}
	lo, hi := r.ranges[idx][0], r.ranges[idx][1]
	switch {
	case lo == hi || m == 0:
	case r.f32 && weights == nil:
		qbuf := make([]float32, m*r.dim)
		for j, q := range qs {
			vec.Narrow32(q, qbuf[j*r.dim:(j+1)*r.dim:(j+1)*r.dim])
		}
		scratch := make([]float32, m*sweepChunk)
		for base := lo; base < hi; base += sweepChunk {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			end := min(base+sweepChunk, hi)
			db, rows := scratch[:m*(end-base)], r.slab32[base*r.dim:end*r.dim]
			if m == 1 {
				vec.SquaredDistsTo32(qbuf, rows, db)
			} else {
				vec.SquaredDistsToMulti32(qbuf, m, rows, db)
			}
			admit(r, sels, base, end-base, db)
		}
	default:
		qbuf := []float64(qs[0])
		if m > 1 {
			qbuf = slices.Concat(qs...)
		}
		step, wide := r.chunk64()
		scratch := make([]float64, m*step)
		for base := lo; base < hi; base += step {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			end := min(base+step, hi)
			db, rows := scratch[:m*(end-base)], r.rows64(base, end, wide)
			if weights != nil {
				vec.WeightedSquaredDistsTo(qbuf, vec.Vector(weights), rows, db)
			} else {
				vec.SquaredDistsToMulti(qbuf, m, rows, db)
			}
			admit(r, sels, base, end-base, db)
		}
	}
	out := make([][]Neighbor, m)
	for j, sel := range sels {
		out[j] = r.neighbors(sel)
	}
	return out, nil
}

// admit feeds one chunk's distances to the selectors: query j's squared
// distances to slab rows [base, base+rows) are db[j*rows:(j+1)*rows].
// Widening float32 to float64 is exact and order-preserving, so one float64
// selector serves both precisions; the final Dist is math.Sqrt(float64(d32))
// — the f32 path's formula.
func admit[T float32 | float64](r *Replica, sels []*topSelect, base, rows int, db []T) {
	for j, sel := range sels {
		for i, d := range db[j*rows : (j+1)*rows] {
			sel.add(float64(d), r.slabGID[base+i])
		}
	}
}

// neighbors drains a selector into the wire-neutral result list, ascending
// by (distance, ID), each neighbour carrying its local label.
func (r *Replica) neighbors(sel *topSelect) []Neighbor {
	cands := sel.sorted()
	ns := make([]Neighbor, len(cands))
	for i, c := range cands {
		ns[i] = Neighbor{ID: c.gid, Dist: math.Sqrt(c.d), Label: r.labels[r.localOf[c.gid]]}
	}
	return ns
}

// MergeNeighbors merges per-shard restricted-search results into the global
// top-k under the canonical (distance, ID) order. Shards hold disjoint rows,
// so no deduplication is needed; because every list is itself the k smallest
// of its shard, the merged prefix equals the single-node top-k.
func MergeNeighbors(lists [][]Neighbor, k int) []Neighbor {
	var all []Neighbor
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// cand is one bounded-selection entry: squared distance and global ID.
type cand struct {
	d   float64
	gid int
}

// topSelect keeps the k smallest candidates under the (distance, ID) order
// via a bounded max-heap (root = current worst).
type topSelect struct {
	k int
	h []cand
}

// worse reports a > b under the (distance, ID) order.
func worse(a, b cand) bool {
	if a.d != b.d {
		return a.d > b.d
	}
	return a.gid > b.gid
}

func (s *topSelect) add(d float64, gid int) {
	c := cand{d: d, gid: gid}
	if len(s.h) < s.k {
		s.h = append(s.h, c)
		// sift up
		i := len(s.h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worse(s.h[i], s.h[p]) {
				break
			}
			s.h[i], s.h[p] = s.h[p], s.h[i]
			i = p
		}
		return
	}
	if !worse(s.h[0], c) {
		return
	}
	s.h[0] = c
	// sift down
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(s.h) && worse(s.h[l], s.h[big]) {
			big = l
		}
		if r < len(s.h) && worse(s.h[r], s.h[big]) {
			big = r
		}
		if big == i {
			break
		}
		s.h[i], s.h[big] = s.h[big], s.h[i]
		i = big
	}
}

func (s *topSelect) sorted() []cand {
	out := append([]cand(nil), s.h...)
	sort.Slice(out, func(i, j int) bool { return worse(out[j], out[i]) })
	return out
}
