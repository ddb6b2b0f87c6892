package rstar

// This file is the tree's one best-first descent. It is written for M
// queries over the same subtree: each runs its own descent as a coroutine —
// private priority queue, private accounter and effort counters, exactly the
// operation sequence it would perform alone — and SUSPENDS when it pops a
// leaf with a packed block. Once every query is suspended or finished, the
// driver groups the suspended ones by leaf and scores each leaf once for all
// its visitors. With M = 1 every group has one visitor, which is the plain
// single-query search.

import (
	"context"
	"math"
	"sync"

	"qdcbir/internal/vec"
)

// metric is the distance a descent ranks by: plain squared L2, or the
// diagonal-weighted form when weights is set. Its three methods — a node's
// lower bound, one item's score, a whole leaf block's scores — are all the
// descent knows about distances, so another first phase is another metric,
// not another descent. The block kernels preserve the scalar accumulation
// order, so block and item agree bit for bit.
type metric struct {
	weights vec.Vector
}

// bound returns the metric's MINDIST from q to r.
func (m metric) bound(r Rect, q vec.Vector) float64 {
	if m.weights == nil {
		return r.MinDistSq(q)
	}
	var s float64
	for i := range q {
		var d float64
		if q[i] < r.Min[i] {
			d = r.Min[i] - q[i]
		} else if q[i] > r.Max[i] {
			d = q[i] - r.Max[i]
		}
		s += m.weights[i] * d * d
	}
	return s
}

func (m metric) item(q, p vec.Vector) float64 {
	if m.weights == nil {
		return vec.SqL2(q, p)
	}
	return vec.WeightedSqL2(q, p, m.weights)
}

func (m metric) block(q vec.Vector, block, out []float64) {
	if m.weights == nil {
		vec.SquaredDistsTo(q, block, out)
		return
	}
	vec.WeightedSquaredDistsTo(q, m.weights, block, out)
}

// descent is one query's private search state. pending marks a popped leaf
// whose block scoring is deferred to the driver.
type descent struct {
	k       int
	pq      searchPQ
	results []Neighbor
	ties    []Neighbor
	kthSq   float64
	pops    uint64
	nodes   uint64
	items   uint64
	pending *Node
	done    bool
}

// pushBlock queues the pending leaf's items under their block scores and
// clears the suspension.
func (d *descent) pushBlock(distSq []float64) {
	for i, it := range d.pending.items {
		d.pq.push(pqEntry{distSq: distSq[i], item: it})
	}
	d.pending = nil
}

// descentScratch is the pooled working memory of one descend call, so a
// steady-state search allocates nothing but its result slices — at M = 1 as
// at any other M.
type descentScratch struct {
	ds      []descent
	waiting []int     // queries suspended on a leaf this round
	group   []int     // the visitors of one leaf
	qbuf    []float64 // a group's query vectors, packed for the multi kernel
	dists   []float64 // kernel output
}

var descentPool = sync.Pool{New: func() interface{} { return new(descentScratch) }}

// advance runs one query's best-first loop until it completes or pops a
// block-backed leaf, which is left in d.pending with its access and effort
// already charged.
func (t *Tree) advance(ctx context.Context, m metric, q *Query, d *descent) error {
	acc := q.accounter()
	for len(d.pq) > 0 {
		if d.pops%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		e := d.pq.pop()
		d.pops++
		if len(d.results) == d.k && e.distSq > d.kthSq {
			break
		}
		if e.node == nil {
			// Item candidate: its distance is exact, and because the queue is
			// ordered it arrives in ascending order. Once k results are held,
			// candidates matching the kth distance exactly are kept aside so
			// the boundary tie resolves by ID, not by heap pop order.
			if len(d.results) < d.k {
				d.results = append(d.results, Neighbor{
					ID: e.item.ID, Point: e.item.Point, Dist: math.Sqrt(e.distSq),
				})
				if len(d.results) == d.k {
					d.kthSq = e.distSq
				}
			} else if e.distSq == d.kthSq {
				d.ties = append(d.ties, Neighbor{
					ID: e.item.ID, Point: e.item.Point, Dist: math.Sqrt(e.distSq),
				})
			}
			continue
		}
		acc.Access(e.node.id)
		d.nodes++
		if e.node.leaf {
			d.items += uint64(len(e.node.items))
			if t.blocksOK && e.node.block != nil {
				d.pending = e.node
				return nil
			}
			for _, it := range e.node.items {
				d.pq.push(pqEntry{distSq: m.item(q.Q, it.Point), item: it})
			}
			continue
		}
		for _, c := range e.node.children {
			d.pq.push(pqEntry{distSq: m.bound(c.rect, q.Q), node: c})
		}
	}
	d.done = true
	return nil
}

// descend answers qs over the subtree rooted at n with the exact float64
// best-first search under m.
func (t *Tree) descend(ctx context.Context, n *Node, m metric, qs []Query) error {
	sc := descentPool.Get().(*descentScratch)
	defer descentPool.Put(sc)
	sc.ds = grown(sc.ds, len(qs))
	ds := sc.ds
	for j := range qs {
		d := &ds[j]
		*d = descent{k: qs[j].K, pq: d.pq[:0], ties: d.ties[:0], kthSq: math.Inf(1)}
		if d.k <= 0 {
			d.done = true
			continue
		}
		d.pq.push(pqEntry{distSq: m.bound(n.rect, qs[j].Q), node: n})
		d.results = make([]Neighbor, 0, d.k)
	}
	for {
		waiting := sc.waiting[:0]
		for j := range ds {
			d := &ds[j]
			if d.done {
				continue
			}
			if err := t.advance(ctx, m, &qs[j], d); err != nil {
				return err
			}
			if !d.done {
				waiting = append(waiting, j)
			}
		}
		sc.waiting = waiting
		if len(waiting) == 0 {
			break
		}
		for i, j := range waiting {
			leaf := ds[j].pending
			if leaf == nil {
				continue // scored with an earlier visitor of the same leaf
			}
			group := sc.group[:0]
			for _, v := range waiting[i:] {
				if ds[v].pending == leaf {
					group = append(group, v)
				}
			}
			sc.group = group
			t.scoreLeaf(sc, m, leaf, qs, ds, group)
		}
	}
	for j := range ds {
		d := &ds[j]
		if d.k <= 0 {
			continue
		}
		qs[j].Result = resolveBoundaryTies(d.results, d.ties, d.k)
		d.results = nil // the caller's now; the pool must not keep it alive
		if st := qs[j].Stats; st != nil {
			st.HeapPops += d.pops
			st.NodesRead += d.nodes
			st.ItemsScored += d.items
		}
	}
	return nil
}

// scoreLeaf scores leaf's block for the queries in group, all suspended on
// it, and resumes them. Several visitors share one pass over the block
// through the multi-query kernel; a lone visitor — always the case at M = 1 —
// takes the single-query kernel, as does every visitor under the weighted
// metric, which has no multi-query kernel.
func (t *Tree) scoreLeaf(sc *descentScratch, m metric, leaf *Node, qs []Query, ds []descent, group []int) {
	rows := len(leaf.items)
	g := len(group)
	if g == 1 || m.weights != nil {
		sc.dists = grown(sc.dists, rows)
		for _, j := range group {
			m.block(qs[j].Q, leaf.block, sc.dists)
			ds[j].pushBlock(sc.dists)
		}
		return
	}
	dim := t.dim
	sc.qbuf = grown(sc.qbuf, g*dim)
	for gi, j := range group {
		copy(sc.qbuf[gi*dim:(gi+1)*dim], qs[j].Q)
	}
	sc.dists = grown(sc.dists, g*rows)
	vec.SquaredDistsToMulti(sc.qbuf, g, leaf.block, sc.dists)
	for gi, j := range group {
		ds[j].pushBlock(sc.dists[gi*rows : (gi+1)*rows])
	}
}
