package shard

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"qdcbir/internal/offheap"
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

	dim int
	f32 bool // unweighted sweeps run the float32 kernels (Meta.Precision "f32")
	// The rows in (full-tree leaf pre-order, global ID) order, at storage
	// precision: slab for float64 storage, slab32 for float32 storage. A
	// float32 scan over float64 storage is the one case that keeps both —
	// slab32 is then the narrowing the single-node tree sweeps.
	slab   []float64
	slab32 []float32
	// quant is the SQ8 row filter of unweighted sweeps: codes in slab order,
	// trained at load over the rows those sweeps score (slab32 whenever it
	// exists, whose exact widening a float64 scan of float32 storage reads;
	// slab otherwise). Nil where the bracket would bound nothing: non-finite
	// rows, a constant corpus, rows past SQ8's dimension limit.
	quant   *store.Quantized
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
	dfs(0)
	if len(order) != len(leafID) {
		return nil, nil, fmt.Errorf("shard: slab covers %d of %d rows (leaf table inconsistent)", len(order), len(leafID))
	}
	return order, ranges, nil
}

// slabLayout places a replica's arrays in its mapping: float64 rows at offset
// 0, then float32 rows, then the SQ8 codes, each section present or empty.
// Every section's size is a multiple of the next's element size, so each
// view is aligned.
type slabLayout struct {
	values          int // rows × dim
	f64, f32, codes bool
}

// layoutOf sizes the mapping of a shard: its rows at storage precision, the
// float32 narrowing a float32 scan of float64 storage sweeps, and a code byte
// per value wherever SQ8 can train.
func layoutOf(m Meta) slabLayout {
	return slabLayout{
		values: m.LocalImages * m.Dim,
		f64:    m.Storage == "f64",
		f32:    m.Storage == "f32" || m.Precision == "f32",
		codes:  m.Dim <= store.MaxSQ8Dim,
	}
}

// bytesPerValue is the mapping's size per row value: at most 13, for float64
// rows, their float32 narrowing and a code byte.
func (l slabLayout) bytesPerValue() int {
	n := 0
	if l.f64 {
		n += 8
	}
	if l.f32 {
		n += 4
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
	if l.f64 {
		f64 = offheap.View[float64](mem, off, l.values)
		off += 8 * l.values
	}
	if l.f32 {
		f32 = offheap.View[float32](mem, off, l.values)
		off += 4 * l.values
	}
	if l.codes {
		codes = offheap.View[uint8](mem, off, l.values)
	}
	return f64, f32, codes
}

// NewReplica assembles a replica from an archive. It adopts the mapping of
// an archive from ReadArchive, or copies an in-memory archive's rows into a
// new one, fills in the float32 narrowing and SQ8 codes it sweeps, and seals
// the mapping read-only. On success the replica owns the mapping (free it
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
		dim:     a.Meta.Dim,
		f32:     a.Meta.Precision == "f32",
		slab:    f64,
		slab32:  f32,
		slabGID: make([]int, len(order)),
		ranges:  ranges,
	}
	for row, li := range order {
		r.slabGID[row] = a.Globals[li]
		r.rowOf[li] = row
	}
	if r.slab != nil && r.slab32 != nil {
		vec.Narrow32(r.slab, r.slab32)
	}
	// Archives carry no codes: training is two passes over the rows. A
	// filter that would bound nothing leaves its codes unread in the mapping.
	if codes != nil {
		var qz *store.Quantized
		if r.slab32 != nil {
			qz, _ = store.QuantizeBackingInto(r.dim, r.slab32, codes)
		} else {
			qz, _ = store.QuantizeBackingInto(r.dim, r.slab, codes)
		}
		if qz != nil && qz.Clean() && qz.Delta() > 0 {
			r.quant = qz
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
	r.slab, r.slab32, r.quant = nil, nil, nil
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
// (distance, global ID) — the same total order the single-node search's
// stabilized output uses — with distances computed by the same batch kernels
// at the same precision. A non-nil weights vector selects the weighted
// float64 path, exactly as weights passed to rstar.Tree.KNNSearch do on a
// single node.
func (r *Replica) SearchNode(ctx context.Context, nodeID uint64, q vec.Vector, weights []float64, k int) ([]Neighbor, error) {
	ns, _, err := r.Sweep(ctx, nodeID, q, weights, k)
	return ns, err
}

// Sweep is SearchNode that also reports the search's sweep work. Weights
// must pass vec.CheckWeights.
func (r *Replica) Sweep(ctx context.Context, nodeID uint64, q vec.Vector, weights []float64, k int) ([]Neighbor, LegStats, error) {
	if err := vec.CheckWeights(weights, r.dim); err != nil {
		return nil, LegStats{}, fmt.Errorf("shard: %w", err)
	}
	if k <= 0 {
		return nil, LegStats{}, fmt.Errorf("shard: invalid k=%d", k)
	}
	if len(q) != r.dim {
		return nil, LegStats{}, fmt.Errorf("shard: query dim %d != corpus dim %d", len(q), r.dim)
	}
	idx, ok := r.topo.IdxOf(nodeID)
	if !ok {
		return nil, LegStats{}, fmt.Errorf("shard: unknown search node %d", nodeID)
	}
	sel := &topSelect{k: k}
	var st LegStats
	if lo, hi := r.ranges[idx][0], r.ranges[idx][1]; lo < hi {
		sc := legPool.Get().(*legScratch)
		defer legPool.Put(sc)
		var err error
		if st, err = r.sweep(ctx, sc, lo, hi, q, weights, sel); err != nil {
			return nil, LegStats{}, err
		}
	}
	return r.neighbors(sel), st, nil
}

// sweepChunk is the row count of one kernel call over a stored slab.
const sweepChunk = 1024

// filterRowsPerResult is how many rows per wanted result a range needs
// before the SQ8 filter pays. The filter reads every code row and scores at
// least k rows exactly, and over rows already in cache a 512-d code row costs
// about two thirds of a float32 row (50 against 77 ns), so it wins only where
// it skips most of the range. On BenchmarkShardLeg's clustered shard, legs on
// cache-hot leaves broke even at 8 to 16 rows per result and ran 1.5× faster
// at 32; a root leg, 130 rows per result, runs 1.6–2× faster.
const filterRowsPerResult = 8

// legScratch is one Sweep's pooled working memory, so a steady-state leg
// allocates only its selector and result list.
type legScratch struct {
	q32   []float32 // the query narrowed (float32 sweeps)
	qw    []float64 // the narrowed query widened back, to encode it
	codes []uint8   // the query's code row
	raw   []int32   // code distances over the range
	seeds []uint64  // the query's nearest rows by code
	d32   []float32 // exact kernel output
	d64   []float64
	wide  []float64 // float32 rows widened for a float64 kernel
}

var legPool = sync.Pool{New: func() any { return new(legScratch) }}

// grown returns the pooled buffer buf resized to n elements, reallocating
// only when its capacity falls short; the contents are unspecified.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// widening sizes the float64 kernel calls: whole sweepChunk blocks over a
// float64 slab, needing no buffer; over float32 storage, blocks small enough
// that the widening buffer stays near 128 KB however wide the rows are.
func (r *Replica) widening(sc *legScratch) (rows int, buf []float64) {
	if r.slab != nil {
		return sweepChunk, nil
	}
	rows = max(1, min(sweepChunk, (16<<10)/r.dim))
	sc.wide = grown(sc.wide, rows*r.dim)
	return rows, sc.wide
}

// sweep scores q over slab rows [lo,hi) and returns its sweep work. A query
// the SQ8 bracket can act on — unweighted, on a replica with codes, over
// more than filterRowsPerResult·k rows, with a finite decode error — takes
// the filtered sweep; any other takes the plain sweep of every row.
// Unweighted sweeps of an f32 replica run the float32 kernels on the
// narrowed query; the rest run the float64 kernels, over float32 storage on
// rows widened a block at a time.
func (r *Replica) sweep(ctx context.Context, sc *legScratch, lo, hi int, q vec.Vector, weights []float64, sel *topSelect) (LegStats, error) {
	var q32 []float32
	if r.f32 && weights == nil {
		sc.q32 = vec.Narrow32(q, sc.q32)
		q32 = sc.q32
	}
	if r.quant != nil && weights == nil && hi-lo > filterRowsPerResult*sel.k {
		// The code row encodes the query the kernel scores: at f32, its
		// narrowing. A NaN or infinite decode error bounds nothing.
		cq := q
		if r.f32 {
			sc.qw = vec.Widen64(q32, sc.qw)
			cq = sc.qw
		}
		var qErr float64
		if sc.codes, qErr = r.quant.EncodeQuery(cq, sc.codes); qErr < math.Inf(1) {
			return r.filter(ctx, sc, lo, hi, q32, q, qErr, sel)
		}
	}
	if err := r.scan(ctx, sc, lo, hi, q32, q, weights, sel); err != nil {
		return LegStats{}, err
	}
	return LegStats{Scored: hi - lo}, nil
}

// scan is the plain sweep: every row of [lo,hi) scored a chunk at a time,
// by the float32 kernel on q32 when it is set and by the float64 (or
// weighted) kernel on q otherwise.
func (r *Replica) scan(ctx context.Context, sc *legScratch, lo, hi int, q32 []float32, q vec.Vector, weights []float64, sel *topSelect) error {
	dim := r.dim
	if q32 != nil {
		sc.d32 = grown(sc.d32, sweepChunk)
		for base := lo; base < hi; base += sweepChunk {
			if err := ctx.Err(); err != nil {
				return err
			}
			end := min(base+sweepChunk, hi)
			db := sc.d32[:end-base]
			vec.SquaredDistsTo32(q32, r.slab32[base*dim:end*dim], db)
			admit(r, sel, base, db)
		}
		return nil
	}
	step, wide := r.widening(sc)
	sc.d64 = grown(sc.d64, step)
	for base := lo; base < hi; base += step {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(base+step, hi)
		db, rows := sc.d64[:end-base], r.rows64(base, end, wide)
		if weights != nil {
			vec.WeightedSquaredDistsTo(q, vec.Vector(weights), rows, db)
		} else {
			vec.SquaredDistsTo(q, rows, db)
		}
		admit(r, sel, base, db)
	}
	return nil
}

// filter is the SQ8-filtered sweep of a query whose code row sweep has left
// in sc.codes, with decode error qErr: the code kernel over the range's code
// rows — a byte per component where a float32 row has four — gives its code
// distances, and refine then exact-scores what its bracket cannot exclude.
func (r *Replica) filter(ctx context.Context, sc *legScratch, lo, hi int, q32 []float32, q vec.Vector, qErr float64, sel *topSelect) (LegStats, error) {
	n := hi - lo
	sc.raw = grown(sc.raw, n)
	for base := lo; base < hi; base += sweepChunk {
		if err := ctx.Err(); err != nil {
			return LegStats{}, err
		}
		end := min(base+sweepChunk, hi)
		vec.Uint8SquaredDistsTo(sc.codes, r.quant.Block(base, end), sc.raw[base-lo:end-lo])
	}
	scored, err := r.refine(ctx, sc, lo, sc.raw, q32, q, qErr, sel)
	if err != nil {
		return LegStats{}, err
	}
	return LegStats{Scanned: n, Scored: scored}, nil
}

// refine exact-scores one query's rows of the range that starts at slab row
// lo, raw holding their code distances (and left clobbered). First the k rows
// nearest by code, which fill the selector and so fix a finite radius; then,
// in slab order, every other row whose code distance is within that radius's
// code bound, each run of consecutive survivors through one kernel call, the
// bound following the radius as it tightens. A skipped row's kernel value is
// strictly above the selector's k-th (store.Quantized.CodeRadius32 and
// CodeRadius64), so it could be neither in the answer nor a tie at its
// boundary: the selector ends holding exactly what a plain sweep leaves in
// it. It returns the number of rows scored.
func (r *Replica) refine(ctx context.Context, sc *legScratch, lo int, raw []int32, q32 []float32, q vec.Vector, qErr float64, sel *topSelect) (int, error) {
	step, wide := sweepChunk, []float64(nil)
	if !r.f32 {
		step, wide = r.widening(sc)
	}
	// The seeds are scored in slab order, runs of adjacent rows together: a
	// query's nearest rows by code mostly share its leaves.
	seeds := nearestCodes(raw, sel.k, sc.seeds[:0])
	for i := range seeds {
		seeds[i] &= math.MaxUint32
	}
	slices.Sort(seeds)
	for s := 0; s < len(seeds); {
		e := s + 1
		for e < len(seeds) && seeds[e] == seeds[e-1]+1 && e-s < step {
			e++
		}
		a, b := int(seeds[s]), int(seeds[e-1])+1
		r.offer(sc, sel, q32, q, wide, lo+a, lo+b)
		for i := a; i < b; i++ {
			raw[i] = -1 // scored
		}
		s = e
	}
	sc.seeds = seeds
	scored := len(seeds)
	limit := r.codeLimit(sel, qErr)
	for i := 0; i < len(raw); {
		if c := raw[i]; c < 0 || c > limit {
			i++
			continue
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		end := i + 1
		for end < len(raw) && end-i < step && raw[end] >= 0 && raw[end] <= limit {
			end++
		}
		r.offer(sc, sel, q32, q, wide, lo+i, lo+end)
		scored += end - i
		limit = r.codeLimit(sel, qErr)
		i = end
	}
	return scored, nil
}

// offer scores slab rows [a,b) exactly for one query — the float32 kernel on
// its narrowing q32 at f32, the float64 kernel on q otherwise, over rows
// widened into wide when the storage is float32 — and offers each to sel.
func (r *Replica) offer(sc *legScratch, sel *topSelect, q32 []float32, q vec.Vector, wide []float64, a, b int) {
	if r.f32 {
		sc.d32 = grown(sc.d32, b-a)
		vec.SquaredDistsTo32(q32, r.slab32[a*r.dim:b*r.dim], sc.d32)
		for i, d := range sc.d32 {
			sel.add(float64(d), r.slabGID[a+i])
		}
		return
	}
	sc.d64 = grown(sc.d64, b-a)
	vec.SquaredDistsTo(q, r.rows64(a, b, wide), sc.d64)
	for i, d := range sc.d64 {
		sel.add(d, r.slabGID[a+i])
	}
}

// codeLimit is the code-space bound of a full selector's radius — the kernel
// value of its k-th row: a row whose code distance exceeds it has a kernel
// value strictly above that radius.
func (r *Replica) codeLimit(sel *topSelect, qErr float64) int32 {
	kth := sel.h[0].d
	if r.f32 {
		return r.quant.CodeRadius32(float32(kth), qErr)
	}
	return r.quant.CodeRadius64(kth, qErr)
}

// nearestCodes appends to keys the k smallest (code distance, row) pairs of
// raw (all distances non-negative), packed distance<<32 | row so that one
// integer comparison orders them, kept as a bounded max-heap.
func nearestCodes(raw []int32, k int, keys []uint64) []uint64 {
	for i, c := range raw {
		key := uint64(c)<<32 | uint64(i)
		if len(keys) < k {
			keys = append(keys, key)
			for x := len(keys) - 1; x > 0; {
				p := (x - 1) / 2
				if keys[p] >= keys[x] {
					break
				}
				keys[p], keys[x] = keys[x], keys[p]
				x = p
			}
			continue
		}
		if key >= keys[0] {
			continue
		}
		keys[0] = key
		for x := 0; ; {
			big := x
			if l := 2*x + 1; l < k && keys[l] > keys[big] {
				big = l
			}
			if r := 2*x + 2; r < k && keys[r] > keys[big] {
				big = r
			}
			if big == x {
				break
			}
			keys[x], keys[big] = keys[big], keys[x]
			x = big
		}
	}
	return keys
}

// admit feeds one block's distances to sel: db holds the squared distances
// to slab rows [base, base+len(db)). Widening float32 to float64 is exact
// and order-preserving, so one float64 selector serves both precisions; the
// final Dist is math.Sqrt(float64(d32)) — the f32 path's formula.
func admit[T float32 | float64](r *Replica, sel *topSelect, base int, db []T) {
	for i, d := range db {
		sel.add(float64(d), r.slabGID[base+i])
	}
}

// neighbors drains a selector into the wire-neutral result list, ascending
// by (distance, ID), each neighbour carrying its local label.
func (r *Replica) neighbors(sel *topSelect) []Neighbor {
	cands := sel.sorted()
	ns := make([]Neighbor, len(cands))
	for i, c := range cands {
		li, _ := r.local(c.gid)
		ns[i] = Neighbor{ID: c.gid, Dist: math.Sqrt(c.d), DistSq: c.d, Label: r.labels[li]}
	}
	return ns
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
	slices.SortFunc(out, func(a, b cand) int {
		if c := cmp.Compare(a.d, b.d); c != 0 {
			return c
		}
		return cmp.Compare(a.gid, b.gid)
	})
	return out
}
