package rstar

// This file is the one best-first descent. A search runs over a forest: one
// or more subtrees, each with its own leaf scorer, Skip set and map from
// ItemIDs to selection IDs, whose nodes pop from one priority queue in order
// of their exact MBR MINDIST; the queue holds nodes only, each naming its
// tree. What a query has found so far lives in one k-bounded selector of
// exact squared distances keyed by (squared distance, selection ID) — the key
// a single tree holding every row would use — whose worst entry is the
// pruning radius of every tree: the descent ends when the nearest unopened
// node lies beyond it. A popped leaf's rows reach the selector through its
// tree's leaf scorer — the float64 block kernel, its diagonal-weighted form,
// or the SQ8 row filter, which scores a row exactly only if its code
// distance cannot prove it lies outside the radius. No scorer changes which
// rows the selector ends up holding, so every mode opens the same nodes in
// the same order and returns the same bits. The float32 scorer (f32.go) is
// the one scorer with answers of its own: it ranks the leaf's float32 mirror
// rows by the float32 kernel's values. Nodes still pop in the float64
// descent's order; the descent stops at its float32 radius widened by the
// query's narrowing error. A subtree search (KNNSearch) is the forest of one, whose
// selection IDs are its ItemIDs; KNNForest is the same loop over several,
// and over slabs whose rows it sweeps before the first pop (slab.go). Every
// scorer reads a run of rows of a Slab — a leaf's [qlo, qhi) of its tree's
// slab, or a chunk of a flat range — and at every precision a NaN value is
// never taken. A descent answers one query.

import (
	"context"
	"math"
	"sync"

	"qdcbir/internal/bitset"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// metric is how a descent measures in one tree: the rows its leaves score
// (s), plain squared L2 or the diagonal-weighted form when weights is set,
// and the SQ8 row filter over s.Codes when quant is set. Its methods are all
// the descent knows about distances, so another precision is another leaf
// scorer, not another descent. Nodes are keyed by the float64 MINDIST in
// every mode.
type metric struct {
	weights vec.Vector
	quant   *store.Quantized
	s       Slab
}

// f32 reports whether the metric scores rows with the float32 kernel.
func (m *metric) f32() bool { return m.weights == nil && m.s.F32 != nil }

// bound returns the metric's MINDIST from q to r.
func (m metric) bound(r Rect, q vec.Vector) float64 {
	if m.weights == nil {
		return vec.MinDistSq(q, r.Min, r.Max)
	}
	return vec.WeightedMinDistSq(q, m.weights, r.Min, r.Max)
}

// bounds sets out[c] to bound(child c's rect, q) for the len(out) children
// packed in an internal node's box, bit for bit, in one pass.
func (m metric) bounds(q vec.Vector, box, out []float64) {
	vec.MinDistSqChildren(q, m.weights, box, len(out), out)
}

func (m metric) block(q vec.Vector, block, out []float64) {
	if m.weights == nil {
		vec.SquaredDistsTo(q, block, out)
		return
	}
	vec.WeightedSquaredDistsTo(q, m.weights, block, out)
}

// root is one tree of a forest, or one slab: the subtree searched (nil for
// a slab root, whose every row is swept), the leaf scorer over its rows, the
// Skip set its rows are tested against (nil: the query's own), and ids,
// which maps a tree's ItemID to the selection ID the selector keys and
// returns it by (nil: the ItemID itself). A slab root's rows go under the
// slab's own IDs.
type root struct {
	n    *Node
	m    metric
	skip *bitset.Set
	ids  []int
}

// item returns it under its selection ID.
func (r *root) item(it Item) Item {
	if r.ids != nil {
		it.ID = ItemID(r.ids[it.ID])
	}
	return it
}

// key is the Skip key of the i-th row of a run that starts at slab row lo:
// its ItemID in a tree leaf, whose items are the run's rows, and its slab
// row in a flat run (nil items).
func (r *root) key(items []Item, lo, i int) int {
	if items != nil {
		return int(items[i].ID)
	}
	return lo + i
}

// take returns the i-th row of such a run as the selector holds it: the
// leaf's item under its selection ID, or a slab row's selection ID with no
// point.
func (r *root) take(items []Item, lo, i int) Item {
	if items != nil {
		return r.item(items[i])
	}
	return Item{ID: r.m.s.id(lo + i)}
}

// forest is what one descend call searches: its roots, all of one dim, and
// the stop rule they share. Either every root scores in float32 or none
// does.
type forest struct {
	roots []root
	dim   int
	f32   bool
}

// stop is the forest's stop key for the squared radius r: r itself, or under
// the float32 scorer stop32(r). qErr is the query's float32 narrowing error.
func (f *forest) stop(r, qErr float64) float64 {
	if !f.f32 {
		return r
	}
	return stop32(r, qErr, f.dim)
}

// nodePQ is a binary min-heap of nodes keyed by MINDIST, with
// container/heap's sift algorithms and a strict < comparator: identical push
// sequences give identical layouts, so the pop order among equal-distance
// nodes — and with it a query's page-access trace — is a function of the
// forest and the query alone.
type nodePQ []nodeEntry

type nodeEntry struct {
	distSq float64
	node   *Node
	tree   int // the node's root in the forest
}

func (p *nodePQ) push(e nodeEntry) {
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

func (p *nodePQ) pop() nodeEntry {
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

// selector holds the k best rows a descent has scored so far under the
// documented selection key (squared distance, then selection ID), as a
// max-heap: its root is the worst row held. It grows by append and so never
// holds more than the rows offered, whatever k a caller asks for.
type selector struct {
	k int
	h []selected
	// radiusSq is the root's squared distance once k rows are held, +Inf
	// before: nothing farther can enter the answer, not even as a tie (ties
	// resolve by selection ID among rows AT the radius).
	radiusSq float64
}

type selected struct {
	distSq float64
	item   Item // under its selection ID
}

// after reports whether a ranks after b under (distSq, selection ID).
func (a *selected) after(b *selected) bool {
	return a.distSq > b.distSq || (a.distSq == b.distSq && a.item.ID > b.item.ID)
}

// offer considers one scored row and reports whether the radius may have
// changed: the row filled the last free slot, or displaced the root.
func (s *selector) offer(distSq float64, it Item) bool {
	e := selected{distSq: distSq, item: it}
	if len(s.h) < s.k {
		s.h = append(s.h, e)
		h := s.h
		for j := len(h) - 1; j > 0; {
			i := (j - 1) / 2
			if !h[j].after(&h[i]) {
				break
			}
			h[i], h[j] = h[j], h[i]
			j = i
		}
		if len(h) < s.k {
			return false
		}
	} else {
		if !s.h[0].after(&e) {
			return false
		}
		s.h[0] = e
		s.down(len(s.h))
	}
	s.radiusSq = s.h[0].distSq
	return true
}

// down restores the heap order of h[:n] after its root was replaced.
func (s *selector) down(n int) {
	h := s.h
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].after(&h[j]) {
			j = j2
		}
		if !h[j].after(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// sorted orders the rows held ascending by (distSq, selection ID) — the key
// membership was decided by — in place, and empties the selector; the rows
// stay valid until it is next offered one.
func (s *selector) sorted() []selected {
	for n := len(s.h) - 1; n > 0; n-- {
		s.h[0], s.h[n] = s.h[n], s.h[0]
		s.down(n)
	}
	h := s.h
	s.h = s.h[:0]
	return h
}

// drain empties the selector into a new result list. The reported order is
// (Dist, ID), which differs from the selection key only where two squared
// distances round to one root, so one insertion pass over the sorted rows
// finishes it.
func (s *selector) drain() []Neighbor {
	h := s.sorted()
	out := make([]Neighbor, len(h))
	for i, e := range h {
		out[i] = Neighbor{ID: e.item.ID, Point: e.item.Point, Dist: math.Sqrt(e.distSq)}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && neighborLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// treeState is one query's state in one root of its forest: the rows it
// passes over, and the SQ8 filter's per-quantizer state — the query's code
// row under that root's quantizer (nil when the root scores every row
// exactly), the measured decode error of that row, whether the rows score in
// float32, and the selector's radius carried into that root's code space,
// solved lazily: limitAt is the radius codeLimit was solved for, so a radius
// that moved in another tree is carried over before this root's next leaf is
// filtered.
type treeState struct {
	skip      *bitset.Set
	code      []uint8
	qErr      float64
	f32       bool
	codeLimit int32
	limitAt   float64
}

// limit returns the code-space limit of the selector's current radius, a
// kernel value: one rule per kernel precision, CodeRadius32 for the float32
// kernel and CodeRadius64 for the float64 one.
func (ts *treeState) limit(qz *store.Quantized, radiusSq float64) int32 {
	if ts.limitAt != radiusSq {
		if ts.f32 {
			ts.codeLimit = qz.CodeRadius32(float32(radiusSq), ts.qErr)
		} else {
			ts.codeLimit = qz.CodeRadius64(radiusSq, ts.qErr)
		}
		ts.limitAt = radiusSq
	}
	return ts.codeLimit
}

// descent is one query's search state.
type descent struct {
	pq    nodePQ
	sel   selector
	trees []treeState
	// stopSq is the key beyond which the descent ends: the selector's
	// radius, or under the float32 scorer that radius widened by stop32.
	stopSq float64
	// q32 is the query's float32 narrowing (nil unless the forest scores in
	// float32) and q32Err the measured error of that form.
	q32    []float32
	q32Err float64
	one32  [1]float32 // one float32 row's kernel output (takeCodes)

	pops, nodes, items, reranked, codes uint64
}

// tightened moves the stop key after the selector's radius changed.
func (d *descent) tightened(f *forest) {
	d.stopSq = f.stop(d.sel.radiusSq, d.q32Err)
}

// fold adds the descent's effort to st, if set.
func (d *descent) fold(st *SearchStats) {
	if st == nil {
		return
	}
	st.HeapPops += d.pops
	st.NodesRead += d.nodes
	st.ItemsScored += d.items
	st.CodesScanned += d.codes
	st.Reranked += d.reranked
}

// take offers the exact scores of a run of root t's rows that starts at slab
// row lo (items: the leaf's items, nil for a flat run): rows beyond the
// radius, NaN values and skipped rows are dropped unseen by the selector.
// Float32 kernel values are offered widened, which keeps their order. Each
// radius change moves the stop key with it.
func take[T float32 | float64](d *descent, f *forest, t, lo int, items []Item, distSq []T) {
	r, skip := &f.roots[t], d.trees[t].skip
	d.items += uint64(len(distSq))
	for i, sq := range distSq {
		if !(float64(sq) <= d.sel.radiusSq) || skip.Get(r.key(items, lo, i)) {
			continue
		}
		if d.sel.offer(float64(sq), r.take(items, lo, i)) {
			d.tightened(f)
		}
	}
}

// takeCodes filters a run of root t's rows that starts at slab row lo by
// their SQ8 code distances raw: only rows the bracket cannot place outside
// the radius are scored exactly — vec.SqL2's bits on a float64 row, the
// value the block kernel produces, or the float32 kernel's on a float32 row
// — and the code-space limit follows the radius as it tightens. A skipped
// row is not scored at all, nor is a row whose code distance is negative
// (as a uint32 it exceeds every limit): a filtered sweep marks its seeds
// so.
//
// Float64 rows are scored four at a time: the next four the current limit
// admits go through vec.SqL2x4 together. The limit only tightens (the radius
// only shrinks, and the code radius is monotone in it), so those four
// include every row of their span the one-row-at-a-time loop would score;
// each is then re-tested, in row order, against the limit as the rows before
// it left it, before it is counted and offered. The rows counted, the offers
// and the limit's every step are therefore the sequential loop's; a row the
// re-test drops cost one lane of work and nothing else.
func (d *descent) takeCodes(f *forest, t, lo int, items []Item, q vec.Vector, raw []int32) {
	r, ts := &f.roots[t], &d.trees[t]
	s, qz := &r.m.s, r.m.quant
	d.codes += uint64(len(raw))
	limit := ts.limit(qz, d.sel.radiusSq)
	var at [4]int
	var sq [4]float64
	for i := 0; i < len(raw); {
		n := 0
		for ; i < len(raw) && n < len(at); i++ {
			if uint32(raw[i]) <= uint32(limit) && !ts.skip.Get(r.key(items, lo, i)) {
				at[n] = i
				n++
			}
		}
		if n == 0 {
			break
		}
		d.exact4(s, q, lo, &at, n, &sq)
		for j, row := range at[:n] {
			if raw[row] > limit {
				continue
			}
			d.items++
			d.reranked++
			if !(sq[j] <= d.sel.radiusSq) {
				continue
			}
			if d.sel.offer(sq[j], r.take(items, lo, row)) {
				d.tightened(f)
				limit = ts.limit(qz, d.sel.radiusSq)
			}
		}
	}
}

// exact4 sets sq[j] to the exact kernel value of slab row lo+at[j], j < n:
// float64 rows through one vec.SqL2x4 call (a short group repeats a row:
// four lanes cost what one does), float32 rows one at a time through the
// float32 batch kernel on the query's narrowing.
func (d *descent) exact4(s *Slab, q vec.Vector, lo int, at *[4]int, n int, sq *[4]float64) {
	dim := s.Dim
	if s.F32 != nil {
		for j, row := range at[:n] {
			row += lo
			vec.SquaredDistsTo32(d.q32, s.F32[row*dim:(row+1)*dim], d.one32[:])
			sq[j] = float64(d.one32[0])
		}
		return
	}
	for j := n; j < len(at); j++ {
		at[j] = at[0]
	}
	o0, o1, o2, o3 := (lo+at[0])*dim, (lo+at[1])*dim, (lo+at[2])*dim, (lo+at[3])*dim
	sq[0], sq[1], sq[2], sq[3] = vec.SqL2x4(q, s.F64[o0:o0+dim], s.F64[o1:o1+dim], s.F64[o2:o2+dim], s.F64[o3:o3+dim])
}

// descentScratch is the pooled working memory of one descend call, so a
// steady-state search allocates nothing but its result slice, over one root
// as over several.
type descentScratch struct {
	roots   []root // a KNNForest call's roots
	d       descent
	qcodes  []uint8   // the query's code row in every root (SQ8)
	qw      []float64 // the query's float32 narrowing widened back, to encode it
	q32     []float32 // the query's float32 narrowing
	dists   []float64 // kernel output
	raw     []int32   // code kernel output
	bounds  []float64 // an opened node's children's MINDISTs
	dists32 []float32 // float32 kernel output
	wide    []float64 // float32 rows widened for a weighted kernel
	seeds   []uint64  // a filtered sweep's rows nearest by code
}

var descentPool = sync.Pool{New: func() interface{} { return new(descentScratch) }}

// begin resets sc's descent for one query over f: an empty selector and
// queue, the query's float32 narrowing when the forest scores in float32,
// and each root's Skip set. No root has a code row yet (encode).
func (f *forest) begin(sc *descentScratch, q Query) *descent {
	d := &sc.d
	*d = descent{pq: d.pq[:0], sel: selector{k: q.K, h: d.sel.h[:0], radiusSq: math.Inf(1)},
		trees: grown(d.trees, len(f.roots)), stopSq: math.Inf(1)}
	if f.f32 {
		sc.q32 = vec.Narrow32(q.Q, sc.q32)
		d.q32, d.q32Err = sc.q32, narrowErr(q.Q, sc.q32)
	}
	d.tightened(f)
	sc.qcodes = grown(sc.qcodes, len(f.roots)*f.dim)
	for t := range f.roots {
		ts := &d.trees[t]
		*ts = treeState{skip: f.roots[t].skip, f32: f.f32, limitAt: math.Inf(1), codeLimit: math.MaxInt32}
		if ts.skip == nil {
			ts.skip = q.Skip
		}
	}
	return d
}

// encode gives root t, whose metric filters through SQ8 codes, the query's
// code row — of its float32 narrowing when the rows are float32, the query
// the kernel scores — and reports whether it did. A query whose decode
// error is not finite (a NaN or an infinite component) defeats the bracket:
// it keeps a nil code row and is scored exactly, counted as a
// RerankFallback.
func (d *descent) encode(f *forest, sc *descentScratch, t int, q Query) bool {
	cq := q.Q
	if f.f32 {
		sc.qw = vec.Widen64(d.q32, sc.qw)
		cq = sc.qw
	}
	lo := t * f.dim
	code, qErr := f.roots[t].m.quant.EncodeQuery(cq, sc.qcodes[lo:lo+f.dim:lo+f.dim])
	if !(qErr < math.Inf(1)) {
		if q.Stats != nil {
			q.Stats.RerankFallbacks++
		}
		return false
	}
	d.trees[t].code, d.trees[t].qErr = code, qErr
	return true
}

// descend answers q over f. Slab roots are swept before the first node pops,
// so their rows seed the radius. The best-first loop then pops nodes until
// the nearest unopened one lies beyond the stop key. An opened internal node
// bounds its children from its box in one kernel pass and pushes them in
// order; a popped leaf is scored by its root's leaf scorer.
func (f *forest) descend(ctx context.Context, sc *descentScratch, q Query) ([]Neighbor, error) {
	if q.K <= 0 {
		return nil, nil
	}
	d := f.begin(sc, q)
	for t := range f.roots {
		r := &f.roots[t]
		switch {
		case r.n == nil:
			if err := f.sweep(ctx, sc, d, t, 0, r.m.s.Len(), q); err != nil {
				return nil, err
			}
			continue
		case r.m.quant != nil:
			d.encode(f, sc, t, q)
		}
		d.pq.push(nodeEntry{distSq: r.m.bound(r.n.rect, q.Q), node: r.n, tree: t})
	}
	acc := q.accounter()
	for len(d.pq) > 0 {
		if d.pops%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		e := d.pq.pop()
		d.pops++
		if e.distSq > d.stopSq {
			break
		}
		r := &f.roots[e.tree]
		acc.Access(e.node.id)
		d.nodes++
		if e.node.leaf {
			f.scoreLeaf(sc, d, e.tree, e.node, q.Q)
			continue
		}
		kids := e.node.children
		sc.bounds = grown(sc.bounds, len(kids))
		r.m.bounds(q.Q, e.node.box, sc.bounds)
		for i, c := range kids {
			d.pq.push(nodeEntry{distSq: sc.bounds[i], node: c, tree: e.tree})
		}
	}
	d.fold(q.Stats)
	return d.sel.drain(), nil
}

// scoreLeaf scores a popped leaf of root t, its slab rows [qlo,qhi): through
// the SQ8 filter when the query has a code row there, else with the exact
// kernel.
func (f *forest) scoreLeaf(sc *descentScratch, d *descent, t int, leaf *Node, q vec.Vector) {
	lo, hi := leaf.qlo, leaf.qhi
	if code := d.trees[t].code; code != nil {
		s := &f.roots[t].m.s
		sc.raw = grown(sc.raw, hi-lo)
		vec.Uint8SquaredDistsTo(code, s.Codes[lo*s.Dim:hi*s.Dim], sc.raw)
		d.takeCodes(f, t, lo, leaf.items, q, sc.raw)
		return
	}
	f.exact(sc, d, t, lo, hi, leaf.items, q)
}

// exact scores root t's slab rows [lo,hi) with its exact kernel and offers
// them through take: the float32 kernel on the query's narrowing over
// float32 rows, else the float64 (or weighted) block kernel, over float32
// rows widened exactly. items are the rows' tree items, nil for a flat run.
func (f *forest) exact(sc *descentScratch, d *descent, t, lo, hi int, items []Item, q vec.Vector) {
	m := &f.roots[t].m
	dim := m.s.Dim
	if m.f32() {
		sc.dists32 = grown(sc.dists32, hi-lo)
		vec.SquaredDistsTo32(d.q32, m.s.F32[lo*dim:hi*dim], sc.dists32)
		take(d, f, t, lo, items, sc.dists32)
		return
	}
	var rows []float64
	if m.s.F64 != nil {
		rows = m.s.F64[lo*dim : hi*dim]
	} else {
		sc.wide = vec.Widen64(m.s.F32[lo*dim:hi*dim], sc.wide)
		rows = sc.wide
	}
	sc.dists = grown(sc.dists, hi-lo)
	m.block(q, rows, sc.dists)
	take(d, f, t, lo, items, sc.dists)
}
