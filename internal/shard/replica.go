package shard

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"qdcbir/internal/offheap"
	"qdcbir/internal/rstar"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// Neighbor is one restricted-search result: a global image ID and its
// distance. DistSq is exactly the squared distance the single-node tree
// search selects by for the same (query, image) pair — the kernel's, computed
// at the store's precision — and Dist is its float64 square root, so
// per-shard lists merge into the single-node ranking without re-scoring.
// Merging orders by DistSq: two squared distances can round to one root.
// Label is the owning shard's ground truth for the image (empty when the
// corpus carries none): it rides on the neighbour so a router can label a
// result without fetching the image's vector.
type Neighbor struct {
	ID     int     `json:"id"`
	Dist   float64 `json:"dist"`
	DistSq float64 `json:"-"`
	Label  string  `json:"label,omitempty"`
}

// Replica is one shard loaded for serving: the scatter-gather machinery over
// the local subset — the full single-node topology and a slab of the local
// rows grouped by full-tree leaf, so any single-node subtree maps to a
// contiguous row range. The slab and the SQ8 codes of the rows unweighted
// sweeps score live in one sealed, read-only mapping outside the Go heap,
// which the replica owns until Close; the heap holds the topology and the
// per-row tables.
type Replica struct {
	meta    Meta
	topo    *Topology
	globals []int    // global ID per local row, ascending
	leafID  []uint64 // full-tree leaf per local row
	labels  []string // per local row
	rowOf   []int    // local row -> slab row
	mem     *offheap.Region
	// rows are the local rows in (full-tree leaf pre-order, global ID)
	// order at storage precision, as views of mem, under their global IDs.
	// Their SQ8 codes, trained at load, filter unweighted sweeps; they are
	// left out where the bracket would bound nothing: non-finite rows, a
	// constant corpus, rows past SQ8's dimension limit.
	rows   rstar.Slab
	ranges [][2]int // per topology node index: slab row range [lo,hi)
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
	dfs(0)
	if len(order) != len(leafID) {
		return nil, nil, fmt.Errorf("shard: slab covers %d of %d rows (leaf table inconsistent)", len(order), len(leafID))
	}
	return order, ranges, nil
}

// slabLayout places a replica's arrays in its mapping: the rows at offset 0,
// float64 or float32, then the SQ8 codes, present or empty. The rows'
// section size is a multiple of a code's, so each view is aligned.
type slabLayout struct {
	values int // rows × dim
	f32    bool
	codes  bool
}

// layoutOf sizes the mapping of a shard: its rows at storage precision and a
// code byte per value wherever SQ8 can train.
func layoutOf(m Meta) slabLayout {
	return slabLayout{
		values: m.LocalImages * m.Dim,
		f32:    m.Storage == "f32",
		codes:  m.Dim <= store.MaxSQ8Dim,
	}
}

// bytesPerValue is the mapping's size per row value: at most 9, for float64
// rows and a code byte.
func (l slabLayout) bytesPerValue() int {
	n := 8
	if l.f32 {
		n = 4
	}
	if l.codes {
		n++
	}
	return n
}

func (l slabLayout) size() int { return l.bytesPerValue() * l.values }

// views returns the layout's sections of mem; an absent one is nil.
func (l slabLayout) views(mem *offheap.Region) (f64 []float64, f32 []float32, codes []uint8) {
	off := 0
	if l.f32 {
		f32 = offheap.View[float32](mem, off, l.values)
		off += 4 * l.values
	} else {
		f64 = offheap.View[float64](mem, off, l.values)
		off += 8 * l.values
	}
	if l.codes {
		codes = offheap.View[uint8](mem, off, l.values)
	}
	return f64, f32, codes
}

// NewReplica assembles a replica from an archive. It adopts the mapping of
// an archive from ReadArchive, or copies an in-memory archive's rows into a
// new one, fills in the SQ8 codes it sweeps, and seals the mapping
// read-only. On success the replica owns the mapping (free it
// with Close) and the archive must not be modified afterwards; on failure an
// archive from ReadArchive still holds its mapping, which Release frees.
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
	lay := layoutOf(a.Meta)
	mem, adopted := a.mem, a.mem != nil
	if !adopted {
		if mem, err = offheap.Alloc(lay.size()); err != nil {
			return nil, fmt.Errorf("shard: slab: %w", err)
		}
	}
	f64, f32, codes := lay.views(mem)
	if !adopted {
		copy(f64, a.Rows.F64)
		copy(f32, a.Rows.F32)
	}
	r := &Replica{
		meta:    a.Meta,
		topo:    a.Topo,
		globals: a.Globals,
		leafID:  a.LeafID,
		labels:  a.Labels,
		rowOf:   make([]int, len(order)),
		mem:     mem,
		rows:    rstar.Slab{Dim: a.Meta.Dim, F64: f64, F32: f32, IDs: make([]int, len(order))},
		ranges:  ranges,
	}
	for row, li := range order {
		r.rows.IDs[row] = a.Globals[li]
		r.rowOf[li] = row
	}
	// Archives carry no codes: training is two passes over the rows. A
	// filter that would bound nothing leaves its codes unread in the mapping.
	if codes != nil {
		var qz *store.Quantized
		if f32 != nil {
			qz, _ = store.QuantizeBackingInto(a.Meta.Dim, f32, codes)
		} else {
			qz, _ = store.QuantizeBackingInto(a.Meta.Dim, f64, codes)
		}
		if qz != nil && qz.Clean() && qz.Delta() > 0 {
			r.rows.Codes, r.rows.Quant = codes, qz
		}
	}
	if err := mem.Seal(); err != nil {
		if !adopted {
			mem.Free()
		}
		return nil, fmt.Errorf("shard: slab: %w", err)
	}
	a.mem = nil
	return r, nil
}

// Close frees the replica's mapping: its rows and codes. The replica must not
// be searched during or after Close, nor the rows of the archive it was
// built from read; a server that keeps its replica for the life of the
// process never calls it.
func (r *Replica) Close() error {
	err := r.mem.Free()
	r.rows = rstar.Slab{}
	return err
}

// MappedBytes is the size of the replica's mapping: the rows it sweeps and
// their SQ8 codes. It is 0 after Close.
func (r *Replica) MappedBytes() int { return r.mem.Len() }

// local returns the local row of a global ID stored here.
func (r *Replica) local(gid int) (int, bool) {
	return slices.BinarySearch(r.globals, gid)
}

// Meta returns the shard identity.
func (r *Replica) Meta() Meta { return r.meta }

// Topo returns the full single-node topology (shared; do not modify).
func (r *Replica) Topo() *Topology { return r.topo }

// Owns reports whether the image's row is stored on this shard.
func (r *Replica) Owns(gid int) bool { _, ok := r.local(gid); return ok }

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
	li, ok := r.local(gid)
	if !ok {
		return Point{}, false
	}
	dim, row := r.rows.Dim, r.rowOf[li]
	var v []float64
	if r.rows.F64 != nil {
		v = slices.Clone(r.rows.F64[row*dim : (row+1)*dim])
	} else {
		v = vec.Widen64(r.rows.F32[row*dim:(row+1)*dim], nil)
	}
	return Point{ID: gid, Leaf: r.leafID[li], Vec: v, Label: r.labels[li]}, true
}

// Labeler resolves image labels: locally stored images from the shard's
// ground truth, everything else through the topology's representative-label
// table (displays only ever show representatives).
func (r *Replica) Labeler() func(id int) string {
	return func(id int) string {
		if li, ok := r.local(id); ok {
			return r.labels[li]
		}
		return r.topo.RepLabel(id)
	}
}

// LegStats is one search's sweep work: the SQ8 code rows it read and the
// rows it scored with the exact kernel. A search the filter cannot act on
// reads no code rows and scores its whole range.
type LegStats struct {
	Scanned int
	Scored  int
}

// SearchNode runs a k-NN search over the shard's rows restricted to the
// single-node subtree rooted at nodeID. The result is ascending by
// (squared distance, global ID), the order the single-node search selects
// by, with distances computed by the same kernels at the same precision. A
// non-nil weights vector selects the weighted float64 path, exactly as
// weights passed to rstar.Tree.KNNSearch do on a single node.
func (r *Replica) SearchNode(ctx context.Context, nodeID uint64, q vec.Vector, weights []float64, k int) ([]Neighbor, error) {
	ns, _, err := r.Sweep(ctx, nodeID, q, weights, k)
	return ns, err
}

// Sweep is SearchNode that also reports the search's sweep work: one
// rstar.Slab.Search over the subtree's row range. Weights must pass
// vec.CheckWeights.
func (r *Replica) Sweep(ctx context.Context, nodeID uint64, q vec.Vector, weights []float64, k int) ([]Neighbor, LegStats, error) {
	if err := vec.CheckWeights(weights, r.rows.Dim); err != nil {
		return nil, LegStats{}, fmt.Errorf("shard: %w", err)
	}
	if k <= 0 {
		return nil, LegStats{}, fmt.Errorf("shard: invalid k=%d", k)
	}
	if len(q) != r.rows.Dim {
		return nil, LegStats{}, fmt.Errorf("shard: query dim %d != corpus dim %d", len(q), r.rows.Dim)
	}
	idx, ok := r.topo.IdxOf(nodeID)
	if !ok {
		return nil, LegStats{}, fmt.Errorf("shard: unknown search node %d", nodeID)
	}
	lo, hi := r.ranges[idx][0], r.ranges[idx][1]
	var st rstar.SearchStats
	ns := make([]Neighbor, 0, min(k, hi-lo))
	err := r.rows.Search(ctx, lo, hi, weights, rstar.Query{Q: q, K: k, Stats: &st}, func(gid int, distSq float64) {
		li, _ := r.local(gid)
		ns = append(ns, Neighbor{ID: gid, Dist: math.Sqrt(distSq), DistSq: distSq, Label: r.labels[li]})
	})
	if err != nil {
		return nil, LegStats{}, err
	}
	return ns, LegStats{Scanned: int(st.CodesScanned), Scored: int(st.ItemsScored)}, nil
}

// MergeNeighbors merges per-shard restricted-search results into the global
// top-k under the (squared distance, ID) order a single node selects by, and
// sets each kept neighbour's Dist to the root of its DistSq. Shards hold
// disjoint rows, so no deduplication is needed; because every list is itself
// the k smallest of its shard, the merged prefix equals the single-node
// top-k.
func MergeNeighbors(lists [][]Neighbor, k int) []Neighbor {
	all := slices.Concat(lists...)
	slices.SortFunc(all, func(a, b Neighbor) int {
		if c := cmp.Compare(a.DistSq, b.DistSq); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if len(all) > k {
		all = all[:k]
	}
	for i := range all {
		all[i].Dist = math.Sqrt(all[i].DistSq)
	}
	return all
}
