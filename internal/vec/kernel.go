package vec

import (
	"fmt"
	"math"
)

// This file holds the batch distance kernels behind the flat feature store
// (internal/store) and the R*-tree leaf blocks. Every kernel accumulates in
// exactly the order of the scalar reference (SqL2 / WeightedSqL2): each row
// has its own accumulator, and term i is added to it before term i+1. The
// batch kernels run four rows at once, so four such chains interleave and
// overlap their add latencies; no chain ever sees another's terms. Speed
// comes from that overlap, contiguous memory, fewer slice-header
// dereferences, and early exit — never from reassociating a sum — so results
// are bit-identical to the scalar loops and the system's byte-level
// determinism guarantees survive the batch paths. Every product is rounded
// before it is added — float64(d * d), as the Go spec spells an explicit
// rounding — because a compiler may otherwise fuse x*y + z into one
// multiply-add that rounds once (arm64 does, FMADDD): the float64 loops of
// this package therefore produce the same bits on every architecture, and
// CI fails if the arm64 listing of the package holds a fused instruction.

// SquaredDistsTo computes out[r] = SqL2(q, row_r) for every dimension-strided
// row of block, where block holds len(out) rows of len(q) contiguous
// components. It panics if len(block) != len(out)*len(q).
func SquaredDistsTo(q Vector, block []float64, out []float64) {
	dim := len(q)
	if len(block) != len(out)*dim {
		panic(fmt.Sprintf("vec: block %d != %d rows x %d dims", len(block), len(out), dim))
	}
	if dim == 0 {
		for r := range out {
			out[r] = 0
		}
		return
	}
	r := 0
	for ; r+4 <= len(out); r += 4 {
		o := r * dim
		out[r], out[r+1], out[r+2], out[r+3] = SqL2x4(q,
			block[o:o+dim], block[o+dim:o+2*dim], block[o+2*dim:o+3*dim], block[o+3*dim:o+4*dim])
	}
	for ; r < len(out); r++ {
		row := block[r*dim : r*dim+dim : r*dim+dim]
		var s float64
		for i, ri := range row {
			d := q[i] - ri
			s += float64(d * d)
		}
		out[r] = s
	}
}

// SqL2x4 returns SqL2(q, a), SqL2(q, b), SqL2(q, c) and SqL2(q, e), bit for
// bit: four independent accumulators, each summing its row's terms in index
// order, interleaved so one row's add latency hides behind the others'. The
// rows must be at least as long as q.
func SqL2x4(q, a, b, c, e Vector) (sa, sb, sc, se float64) {
	a, b, c, e = a[:len(q)], b[:len(q)], c[:len(q)], e[:len(q)]
	for i, qi := range q {
		da := qi - a[i]
		db := qi - b[i]
		dc := qi - c[i]
		de := qi - e[i]
		sa += float64(da * da)
		sb += float64(db * db)
		sc += float64(dc * dc)
		se += float64(de * de)
	}
	return sa, sb, sc, se
}

// weightedSqL2x4 is SqL2x4 under WeightedSqL2's metric. Each lane's add
// follows its own difference: in this shape the compiler gives every lane's
// add the operand order WeightedSqL2's takes, in race-instrumented builds
// too, so even the payload of a NaN sum matches.
func weightedSqL2x4(q, weights, a, b, c, e Vector) (sa, sb, sc, se float64) {
	weights = weights[:len(q)]
	a, b, c, e = a[:len(q)], b[:len(q)], c[:len(q)], e[:len(q)]
	for i, qi := range q {
		w := weights[i]
		da := qi - a[i]
		sa += float64(w * da * da)
		db := qi - b[i]
		sb += float64(w * db * db)
		dc := qi - c[i]
		sc += float64(w * dc * dc)
		de := qi - e[i]
		se += float64(w * de * de)
	}
	return sa, sb, sc, se
}

// WeightedSquaredDistsTo computes out[r] = WeightedSqL2(q, row_r, weights)
// for every dimension-strided row of block. It panics on size mismatches.
func WeightedSquaredDistsTo(q, weights Vector, block []float64, out []float64) {
	mustSameDim(q, weights)
	dim := len(q)
	if len(block) != len(out)*dim {
		panic(fmt.Sprintf("vec: block %d != %d rows x %d dims", len(block), len(out), dim))
	}
	if dim == 0 {
		for r := range out {
			out[r] = 0
		}
		return
	}
	r := 0
	for ; r+4 <= len(out); r += 4 {
		o := r * dim
		out[r], out[r+1], out[r+2], out[r+3] = weightedSqL2x4(q, weights,
			block[o:o+dim], block[o+dim:o+2*dim], block[o+2*dim:o+3*dim], block[o+3*dim:o+4*dim])
	}
	for ; r < len(out); r++ {
		row := block[r*dim : r*dim+dim : r*dim+dim]
		var s float64
		for i, ri := range row {
			d := q[i] - ri
			s += float64(weights[i] * d * d)
		}
		out[r] = s
	}
}

// SquaredDistCapped returns SqL2(q, v) computed with partial-distance early
// exit: the scan stops as soon as the running sum reaches limit and returns
// the partial sum. Because every term is non-negative the partial sums are
// monotone, so for any limit the returned value r satisfies
//
//	r < limit  ⟺  SqL2(q, v) < limit
//
// and whenever r < limit it is bit-identical to SqL2(q, v) (no early exit
// can have fired). NaN components never trigger the exit (NaN >= limit is
// false), so NaN-poisoned rows run to completion and return exactly what
// SqL2 returns. Callers must therefore use the result only for strict
// below-limit decisions, or for the exact distance when it is below limit.
func SquaredDistCapped(q, v Vector, limit float64) float64 {
	mustSameDim(q, v)
	var s float64
	for i, qi := range q {
		d := qi - v[i]
		s += float64(d * d)
		if s >= limit {
			return s
		}
	}
	return s
}

// WeightedSquaredDistCapped is SquaredDistCapped under a diagonal-weighted
// metric: it returns WeightedSqL2(q, v, weights) with early exit against
// limit. The below-limit equivalence holds for non-negative weights.
func WeightedSquaredDistCapped(q, v, weights Vector, limit float64) float64 {
	mustSameDim(q, v)
	mustSameDim(q, weights)
	var s float64
	for i, qi := range q {
		d := qi - v[i]
		s += float64(weights[i] * d * d)
		if s >= limit {
			return s
		}
	}
	return s
}

// topEntry is one candidate in a TopK selection.
type topEntry struct {
	dist float64
	id   int
}

// TopK selects the k smallest (dist, id) pairs from a stream of candidates
// using a bounded max-heap, without allocating per candidate. It replicates
// the exact algorithm of container/heap over a max-ordered heap keyed on
// dist alone (strict replacement when dist < current threshold), so a TopK
// fed the same candidate sequence as the previous container/heap-based
// selectors retains exactly the same set — including which of several
// equal-distance boundary candidates survive.
type TopK struct {
	k int
	h []topEntry
}

// NewTopK returns a selector for the k smallest candidates. k <= 0 selects
// nothing.
func NewTopK(k int) *TopK {
	if k < 0 {
		k = 0
	}
	return &TopK{k: k, h: make([]topEntry, 0, k)}
}

// Reset empties the selector for reuse, keeping its buffer.
func (t *TopK) Reset(k int) {
	if k < 0 {
		k = 0
	}
	t.k = k
	t.h = t.h[:0]
}

// Len returns the number of candidates currently retained.
func (t *TopK) Len() int { return len(t.h) }

// Threshold returns the current admission bound: +Inf until k candidates are
// retained, then the largest retained distance. A candidate is admitted iff
// its distance is strictly below Threshold, which makes Threshold the exact
// limit to pass to SquaredDistCapped when scanning.
func (t *TopK) Threshold() float64 {
	if len(t.h) < t.k {
		return math.Inf(1)
	}
	if t.k == 0 {
		return math.Inf(-1)
	}
	return t.h[0].dist
}

// Add offers one candidate. Distances compared against the threshold may be
// capped partials (see SquaredDistCapped): a rejected candidate's value is
// never stored, and an admitted one was below the limit and therefore exact.
func (t *TopK) Add(dist float64, id int) {
	if t.k == 0 {
		return
	}
	if len(t.h) < t.k {
		t.h = append(t.h, topEntry{dist: dist, id: id})
		t.up(len(t.h) - 1)
		return
	}
	if dist < t.h[0].dist {
		t.h[0] = topEntry{dist: dist, id: id}
		t.fixRoot()
	}
}

// up is container/heap's sift-up with Less(i,j) = h[i].dist > h[j].dist.
func (t *TopK) up(j int) {
	h := t.h
	for {
		i := (j - 1) / 2
		if i == j || !(h[j].dist > h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// fixRoot is container/heap's Fix(0): sift down, or sift up if nothing moved
// (up from the root is a no-op, so only down matters in practice).
func (t *TopK) fixRoot() {
	h := t.h
	n := len(h)
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].dist > h[j1].dist {
			j = j2
		}
		if !(h[j].dist > h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// AppendIDs appends the retained candidate IDs to dst in ascending
// (dist, id) order and returns the extended slice. The selector is left in
// an unspecified order; Reset before reuse.
func (t *TopK) AppendIDs(dst []int) []int {
	sortEntries(t.h)
	for _, e := range t.h {
		dst = append(dst, e.id)
	}
	return dst
}

// sortEntries orders entries ascending by (dist, id) — the same total order
// every selector in this repository presents results in. IDs are unique, so
// the order is total and any comparison sort yields the same permutation;
// insertion sort keeps the kernel allocation-free.
func sortEntries(es []topEntry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && (es[j].dist < es[j-1].dist ||
			(es[j].dist == es[j-1].dist && es[j].id < es[j-1].id)); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}
