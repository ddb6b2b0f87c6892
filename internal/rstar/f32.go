package rstar

// This file wires the float32 precision mode into the tree as a slab sweep:
// SetFloat32Scoring narrows the float64 leaf slab to a float32 mirror ONCE,
// and sweepF32 answers subtree-restricted k-NN queries with one linear sweep
// of the mirror's rows through the float32 batch kernels feeding a bounded
// vec.TopK32 per query — each query is narrowed once per search, so the hot
// loop never converts per-row.
//
// Unlike the SQ8 row filter (quant.go), which only decides which rows the
// descent scores in float64 and so returns the exact search's bits, float32 is a
// DISTINCT documented result mode: distances are computed entirely in
// float32 (then widened through one float64 sqrt for the Neighbor contract),
// so rankings can differ from the float64 path wherever float32 rounding
// collapses or reorders close distances. What the mode does guarantee is
// platform determinism: the batch kernel's accumulation order is canonical
// (see vec/kernel32.go), bit-identical between the portable loop and the
// AVX2 implementation, and the sweep always uses the batch kernel — never a
// capped scalar variant — so results are identical with and without
// acceleration, across architectures, and under the noasm build tag.

import (
	"context"
	"math"
	"sort"
	"sync"

	"qdcbir/internal/disk"
	"qdcbir/internal/vec"
)

// f32CtxInterval is how many slab rows the float32 sweep scores between
// context polls (the rows are far cheaper than the descent's node pops, so
// the interval is correspondingly larger than ctxCheckInterval).
const f32CtxInterval = 1024

// chargeLeaves reports every leaf page under n to acc, in the depth-first
// order the slab rows were packed in, and returns how many there are: the
// sweep reads every leaf's rows, so each leaf page is charged exactly once
// per query.
func chargeLeaves(n *Node, acc disk.Accounter) uint64 {
	if n.leaf {
		acc.Access(n.id)
		return 1
	}
	var leaves uint64
	for _, c := range n.children {
		leaves += chargeLeaves(c, acc)
	}
	return leaves
}

// SetFloat32Scoring toggles the float32 sweep path. Enabling packs the leaf
// blocks if needed, builds the slab-ordered ID table shared with the
// quantized path, and narrows the slab to a float32 mirror (one rounding per
// component — exact when the indexed points came from float32 data, since
// float32→float64→float32 round-trips bit-for-bit). Disabling drops the
// mirror; a Scan asking for Float32 then runs the exact float64 descent
// (KNNSearch holds that fallback). Enabling an
// empty tree is a no-op. Like all mutations, the toggle requires external
// exclusion against readers.
func (t *Tree) SetFloat32Scoring(enabled bool) {
	if !enabled {
		t.invalidateFloat32()
		return
	}
	if t.f32OK || t.size == 0 {
		return
	}
	if !t.blocksOK {
		t.packBlocks()
	}
	t.setQuantRanges()
	t.fslab = vec.Narrow32(t.slab, nil)
	t.f32OK = true
}

// Float32Scoring reports whether the float32 sweep path is active.
func (t *Tree) Float32Scoring() bool { return t.f32OK }

// invalidateFloat32 drops the float32-scan state. Node qlo/qhi values go
// stale rather than being rewalked; f32OK guards every use of them.
func (t *Tree) invalidateFloat32() {
	t.f32OK = false
	t.fslab = nil
	t.dropRangesIfUnused()
}

// f32Scratch is the pooled working memory of one float32 sweep. Per active
// query (K > 0) it holds the narrowed vector, the selector, and the candidate
// log (every row that was at or below the admission threshold when scored — a
// superset of the final top-k that includes all boundary ties).
type f32Scratch struct {
	act   []int     // indices of the active queries
	q32   []float32 // their narrowed vectors, packed for the multi kernel
	dists []float32 // one chunk's distances, query-major
	per   []f32Query
}

// f32Query is one active query's selector and candidate log.
type f32Query struct {
	sel   vec.TopK32
	cands []vec.Entry32
}

var f32ScratchPool = sync.Pool{New: func() interface{} { return new(f32Scratch) }}

// sweepF32 answers qs over the subtree rooted at n in the float32 mode: each
// query narrows to float32 once, the subtree's contiguous mirror rows
// [qlo, qhi) pass ONCE through the float32 batch kernel in chunks — every
// chunk scored for all the queries — and a bounded selector per query keeps
// its k smallest (distance, row) pairs. Results are the float32 mode's
// deterministic answer (see the file comment) ordered ascending (Dist, ID);
// equal-float32-distance candidates at the k boundary resolve by ItemID,
// matching the exact search's documented tie rule — the sweep logs every row
// scored at or below the admission threshold, then selects the k smallest
// under (distance, ItemID), so the winners do not depend on slab layout (and
// therefore not on how the corpus was segmented). Each query's accounter is
// charged every leaf page in the swept range once; scored rows land in its
// Stats.ItemsScored.
func (t *Tree) sweepF32(ctx context.Context, n *Node, qs []Query) error {
	sc := f32ScratchPool.Get().(*f32Scratch)
	defer f32ScratchPool.Put(sc)
	lo, hi := n.qlo, n.qhi
	rows := hi - lo
	dim := t.dim

	act := sc.act[:0]
	for j := range qs {
		if qs[j].K > 0 {
			act = append(act, j)
		}
	}
	sc.act = act
	ma := len(act)
	if ma == 0 {
		return nil
	}
	sc.q32 = grown(sc.q32, ma*dim)
	q32 := sc.q32
	for len(sc.per) < ma {
		sc.per = append(sc.per, f32Query{})
	}
	// The sweep reads every leaf's mirror rows, so each query is charged each
	// leaf page in the range exactly once.
	var leaves uint64
	for a, j := range act {
		vec.Narrow32(qs[j].Q, q32[a*dim:(a+1)*dim:(a+1)*dim])
		sc.per[a].sel.Reset(min(qs[j].K, rows))
		sc.per[a].cands = sc.per[a].cands[:0]
		leaves = chargeLeaves(n, qs[j].accounter())
	}

	// A selector only maintains the admission threshold (the exact kth
	// smallest distance, whichever rows the heap happens to retain); the
	// candidate log keeps every row scored at or below the threshold current
	// at its time. The threshold never increases, so the log is a superset
	// of both the true top-k and every row tying the final kth distance.
	for base := lo; base < hi; base += f32CtxInterval {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(base+f32CtxInterval, hi)
		cr := end - base
		sc.dists = grown(sc.dists, ma*cr)
		dists := sc.dists
		if ma == 1 {
			vec.SquaredDistsTo32(q32, t.fslab[base*dim:end*dim], dists)
		} else {
			vec.SquaredDistsToMulti32(q32, ma, t.fslab[base*dim:end*dim], dists)
		}
		for a := range act {
			p := &sc.per[a]
			thr := p.sel.Threshold()
			for i, d := range dists[a*cr : (a+1)*cr] {
				if d < thr {
					p.sel.Add(d, base+i)
					thr = p.sel.Threshold()
					p.cands = append(p.cands, vec.Entry32{Dist: d, ID: base + i})
				} else if d == thr {
					p.cands = append(p.cands, vec.Entry32{Dist: d, ID: base + i})
				}
			}
		}
	}
	for a, j := range act {
		// Keep rows at or below the final threshold, order them by
		// (distance, ItemID), and take the k smallest.
		final := sc.per[a].sel.Threshold()
		kept := sc.per[a].cands[:0]
		for _, c := range sc.per[a].cands {
			if c.Dist <= final {
				kept = append(kept, c)
			}
		}
		sort.Slice(kept, func(x, y int) bool {
			if kept[x].Dist != kept[y].Dist {
				return kept[x].Dist < kept[y].Dist
			}
			return t.qids[kept[x].ID] < t.qids[kept[y].ID]
		})
		if k := min(qs[j].K, rows); len(kept) > k {
			kept = kept[:k]
		}
		out := make([]Neighbor, len(kept))
		for i, e := range kept {
			rowF := t.slab[e.ID*dim : e.ID*dim+dim : e.ID*dim+dim]
			out[i] = Neighbor{ID: t.qids[e.ID], Point: rowF, Dist: math.Sqrt(float64(e.Dist))}
		}
		qs[j].Result = out
		if st := qs[j].Stats; st != nil {
			st.NodesRead += leaves
			st.ItemsScored += uint64(rows)
		}
	}
	return nil
}
