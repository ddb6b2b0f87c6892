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
// narrowing errors. A subtree search (KNNSearch) is the forest of one, whose
// selection IDs are its ItemIDs; KNNForest is the same loop over several.
// A descent answers one query.

import (
	"context"
	"math"
	"sync"

	"qdcbir/internal/bitset"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// metric is how a descent measures in one tree: plain squared L2, the
// diagonal-weighted form when weights is set, plain squared L2 behind the SQ8
// row filter when quant is set, or the float32 kernel over the tree's float32
// mirror when fslab is set. Its methods are all the descent knows about
// distances, so another precision is another leaf scorer, not another
// descent. Nodes are keyed by the float64 MINDIST in every mode.
type metric struct {
	weights vec.Vector
	quant   *store.Quantized
	// fslab is the float32 mirror of the slab, and rowErr its largest finite
	// row narrowing error (see f32.go).
	fslab  []float32
	rowErr float64
}

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

// root is one tree of a forest: the subtree searched, the tree's leaf
// scorer, the Skip set its rows are tested against (nil: the query's own),
// and ids, which maps an ItemID to the selection ID the selector keys and
// returns it by (nil: the ItemID itself).
type root struct {
	t    *Tree
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

// forest is what one descend call searches: its roots, all of one dim, and the stop rule they share. Either every root scores in float32
// or none does; f32Err is then the largest root's narrowing error, which
// widens the forest's stop key the most.
type forest struct {
	roots  []root
	dim    int
	f32    bool
	f32Err float64
}

// stop is the forest's stop key for the squared radius r: r itself, or under
// the float32 scorer the widest root's stop32(r). qErr is the query's
// float32 narrowing error.
func (f *forest) stop(r, qErr float64) float64 {
	if !f.f32 {
		return r
	}
	return stop32(r, qErr, f.f32Err, f.dim)
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

// drain empties the selector into a new result list. Rows leave worst first,
// into the list's tail, so the list is ascending by (distSq, ID) — the key
// membership was decided by; the reported order is (Dist, ID), which differs
// only where two squared distances round to one root, so one insertion pass
// over an all but sorted list finishes it.
func (s *selector) drain() []Neighbor {
	out := make([]Neighbor, len(s.h))
	for n := len(s.h) - 1; n >= 0; n-- {
		e := &s.h[0]
		out[n] = Neighbor{ID: e.item.ID, Point: e.item.Point, Dist: math.Sqrt(e.distSq)}
		s.h[0] = s.h[n]
		s.down(n)
	}
	s.h = s.h[:0]
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
// exactly), the measured decode error of that row, and the selector's radius
// carried into that root's code space, solved lazily: limitAt is the radius
// codeLimit was solved for, so a radius that moved in another tree is
// carried over before this root's next leaf is filtered.
type treeState struct {
	skip      *bitset.Set
	code      []uint8
	qErr      float64
	codeLimit int32
	limitAt   float64
}

// limit returns the code-space limit of the selector's current radius.
func (ts *treeState) limit(qz *store.Quantized, radiusSq float64) int32 {
	if ts.limitAt != radiusSq {
		ts.codeLimit, ts.limitAt = qz.CodeRadius(math.Sqrt(radiusSq), ts.qErr), radiusSq
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

	pops, nodes, items, reranked, codes uint64
}

// tightened moves the stop key after the selector's radius changed.
func (d *descent) tightened(f *forest) {
	d.stopSq = f.stop(d.sel.radiusSq, d.q32Err)
}

// takeBlock offers the exact block scores of a leaf of root t: rows beyond
// the radius, and skipped rows, are dropped unseen by the selector.
func (d *descent) takeBlock(f *forest, t int, items []Item, distSq []float64) {
	r, skip := &f.roots[t], d.trees[t].skip
	d.items += uint64(len(items))
	for i, sq := range distSq {
		if sq > d.sel.radiusSq || skip.Get(int(items[i].ID)) {
			continue
		}
		if d.sel.offer(sq, r.item(items[i])) {
			d.tightened(f)
		}
	}
}

// takeBlock32 is takeBlock for the float32 scorer: the leaf's float32 kernel
// values are offered widened, which keeps their order, and a NaN value is
// never taken. Each radius change moves the stop key with it.
func (d *descent) takeBlock32(f *forest, t int, items []Item, distSq []float32) {
	r, skip := &f.roots[t], d.trees[t].skip
	d.items += uint64(len(items))
	for i, sq := range distSq {
		if !(float64(sq) <= d.sel.radiusSq) || skip.Get(int(items[i].ID)) {
			continue
		}
		if d.sel.offer(float64(sq), r.item(items[i])) {
			d.tightened(f)
		}
	}
}

// takeCodes filters a leaf of root t by its SQ8 code distances: only rows
// the bracket cannot place outside the radius are scored exactly — vec.SqL2's
// bits on the slab row, the value the block kernel produces — and the
// code-space limit follows the radius as it tightens. A skipped row is not
// scored at all.
//
// Rows are scored four at a time: the next four the current limit admits go
// through vec.SqL2x4 together. The limit only tightens (the radius only
// shrinks, and CodeRadius is monotone in it), so those four include every
// row of their span the one-row-at-a-time loop would score; each is then
// re-tested, in row order, against the limit as the rows before it left it,
// before it is counted and offered. The rows counted, the offers and the
// limit's every step are therefore the sequential loop's; a row the re-test
// drops cost one lane of work and nothing else.
func (d *descent) takeCodes(f *forest, t int, items []Item, q vec.Vector, raw []int32) {
	r, ts := &f.roots[t], &d.trees[t]
	qz := r.m.quant
	d.codes += uint64(len(items))
	limit := ts.limit(qz, d.sel.radiusSq)
	var at [4]int
	var sq [4]float64
	for i := 0; i < len(raw); {
		n := 0
		for ; i < len(raw) && n < len(at); i++ {
			if raw[i] <= limit && !ts.skip.Get(int(items[i].ID)) {
				at[n] = i
				n++
			}
		}
		if n == 0 {
			break
		}
		for j := n; j < len(at); j++ {
			at[j] = at[0] // a short group repeats a row: four lanes cost what one does
		}
		sq[0], sq[1], sq[2], sq[3] = vec.SqL2x4(q,
			items[at[0]].Point, items[at[1]].Point, items[at[2]].Point, items[at[3]].Point)
		for j, row := range at[:n] {
			if raw[row] > limit {
				continue
			}
			d.items++
			d.reranked++
			if sq[j] > d.sel.radiusSq {
				continue
			}
			if d.sel.offer(sq[j], r.item(items[row])) {
				d.tightened(f)
				limit = ts.limit(qz, d.sel.radiusSq)
			}
		}
	}
}

// descentScratch is the pooled working memory of one descend call, so a
// steady-state search allocates nothing but its result slice, over one root
// as over several.
type descentScratch struct {
	roots   []root // a KNNForest call's roots
	d       descent
	qcodes  []uint8   // the query's code row in every root (SQ8)
	q32     []float32 // the query's float32 narrowing
	dists   []float64 // kernel output
	raw     []int32   // code kernel output
	bounds  []float64 // an opened node's children's MINDISTs
	dists32 []float32 // float32 kernel output
}

var descentPool = sync.Pool{New: func() interface{} { return new(descentScratch) }}

// descend answers q over f, offering it the pre-scored rows before the
// descent starts. The best-first loop pops nodes until the nearest unopened
// one lies beyond the stop key. An opened internal node bounds its children
// from its box in one kernel pass and pushes them in order; a popped leaf is
// scored by its root's leaf scorer. Under the float32 scorer a node beyond
// its own root's stop key, narrower than the forest's, is dropped unopened.
func (f *forest) descend(ctx context.Context, sc *descentScratch, rows []Scored, q Query) ([]Neighbor, error) {
	if q.K <= 0 {
		return nil, nil
	}
	dim, nr := f.dim, len(f.roots)
	d := &sc.d
	*d = descent{pq: d.pq[:0], sel: selector{k: q.K, h: d.sel.h[:0], radiusSq: math.Inf(1)},
		trees: grown(d.trees, nr), stopSq: math.Inf(1)}
	if f.f32 {
		sc.q32 = vec.Narrow32(q.Q, sc.q32)
		d.q32, d.q32Err = sc.q32, narrowErr(q.Q, sc.q32)
	}
	for _, p := range rows {
		if p.DistSq <= d.sel.radiusSq {
			d.sel.offer(p.DistSq, Item{ID: p.ID})
		}
	}
	d.tightened(f)
	sc.qcodes = grown(sc.qcodes, nr*dim)
	for t := range f.roots {
		r := &f.roots[t]
		ts := &d.trees[t]
		*ts = treeState{skip: r.skip, limitAt: math.Inf(1), codeLimit: math.MaxInt32}
		if ts.skip == nil {
			ts.skip = q.Skip
		}
		if r.m.quant != nil {
			// A NaN query defeats the bracket (its decode error is NaN): it
			// keeps a nil code row and scores every leaf exactly.
			lo := t * dim
			code, qErr := r.m.quant.EncodeQuery(q.Q, sc.qcodes[lo:lo+dim:lo+dim])
			if !math.IsNaN(qErr) {
				ts.code, ts.qErr = code, qErr
			} else if q.Stats != nil {
				q.Stats.RerankFallbacks++
			}
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
		if r.m.rowErr < f.f32Err && e.distSq > stop32(d.sel.radiusSq, d.q32Err, r.m.rowErr, f.dim) {
			continue
		}
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
	if st := q.Stats; st != nil {
		st.HeapPops += d.pops
		st.NodesRead += d.nodes
		st.ItemsScored += d.items
		st.CodesScanned += d.codes
		st.Reranked += d.reranked
	}
	return d.sel.drain(), nil
}

// scoreLeaf scores a popped leaf of root t under that root's leaf scorer:
// the float32 kernel over the leaf's rows of the float32 mirror, the SQ8
// filter in front of the exact rows when the query has a code row there, or
// the exact (or weighted) float64 block kernel.
func (f *forest) scoreLeaf(sc *descentScratch, d *descent, t int, leaf *Node, q vec.Vector) {
	r := &f.roots[t]
	rows, dim := len(leaf.items), f.dim
	switch code := d.trees[t].code; {
	case r.m.fslab != nil:
		sc.dists32 = grown(sc.dists32, rows)
		vec.SquaredDistsTo32(d.q32, r.m.fslab[leaf.qlo*dim:leaf.qhi*dim], sc.dists32)
		d.takeBlock32(f, t, leaf.items, sc.dists32)
	case code != nil:
		sc.raw = grown(sc.raw, rows)
		vec.Uint8SquaredDistsTo(code, r.t.qcodes[leaf.qlo*dim:leaf.qhi*dim], sc.raw)
		d.takeCodes(f, t, leaf.items, q, sc.raw)
	default:
		sc.dists = grown(sc.dists, rows)
		r.m.block(q, leaf.block, sc.dists)
		d.takeBlock(f, t, leaf.items, sc.dists)
	}
}
