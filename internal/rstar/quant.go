package rstar

// This file wires the SQ8 compressed representation (store.Quantized, the
// int32 kernels in internal/vec) into the tree as a two-phase k-NN:
//
//  1. Scan. Because packBlocks lays leaves out in depth-first order, every
//     subtree owns one contiguous slab row range [qlo, qhi). The quantized
//     codes mirror the slab row-for-row, so a subtree-restricted search is a
//     single linear sweep of uint8 code rows feeding a bounded
//     vec.QuantTopK of size rerankFactor*k, with partial-distance early
//     exit against its threshold.
//  2. Rerank. The retained candidates are re-scored with the exact float
//     kernels against their slab rows and sorted ascending (Dist, ItemID) —
//     the same values and ordering the exact search produces.
//
// Exactness guarantee. QuantTopK admission thresholds only decrease, so every
// row NOT retained had code distance >= the selector's final threshold T.
// store.Quantized.Certifies turns T, the query's measured decode error and
// the k-th reranked exact distance into a proof that no excluded row can
// enter the top-k, in which case the reranked result equals the exact
// search's bit-for-bit. When the proof fails the search widens the candidate
// set (doubling rerankFactor*k) and ultimately reranks every row in the range
// — trivially exact — so the quantized path NEVER returns an approximate
// answer; failures only cost time and are counted as RerankFallbacks.
//
// Unclean corpora (NaN/±Inf components) have dbErr = +Inf and are routed to
// the exact search up front; a NaN query defeats the bound the same way and
// falls back likewise.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"qdcbir/internal/disk"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// DefaultRerankFactor is the candidate multiplier used when a caller passes
// rerankFactor <= 0: the quantized scan retains DefaultRerankFactor*k rows
// for exact reranking. See DESIGN.md §11 for the tuning argument.
const DefaultRerankFactor = 4

// quantCtxInterval is how many code rows the quantized sweep scores between
// context polls (the rows are far cheaper than heap pops, so the interval is
// correspondingly larger than ctxCheckInterval).
const quantCtxInterval = 1024

// firstCandidates is a query's SQ8 selector size before any widening:
// k*rerankFactor clamped to the range's rows.
func firstCandidates(k, rerankFactor, rows int) int {
	m := k * rerankFactor
	if m > rows || m < k { // m < k: multiplication overflow
		m = rows
	}
	return m
}

// setQuantRanges assigns every node's slab row range [qlo, qhi) and builds
// the slab-ordered item ID table. Leaves are walked in the same depth-first
// order packBlocks used, so row r of the slab belongs to item qids[r].
// Requires blocksOK.
func (t *Tree) setQuantRanges() {
	t.qids = make([]ItemID, 0, t.size)
	var walk func(n *Node)
	walk = func(n *Node) {
		n.qlo = len(t.qids)
		if n.leaf {
			for _, it := range n.items {
				t.qids = append(t.qids, it.ID)
			}
		} else {
			for _, c := range n.children {
				walk(c)
			}
		}
		n.qhi = len(t.qids)
	}
	walk(t.root)
}

// SetQuantizedScoring toggles the SQ8 two-phase scan. Enabling packs the leaf
// blocks if needed and trains a quantizer over the tree's own slab (the slab
// is a permutation of the indexed points, and min/max training is
// order-independent, so the parameters are identical to training over the
// points in any other order). Disabling drops the codes; a Scan asking for
// Quantized then runs the exact descent (KNNSearch holds that fallback).
// Enabling an empty tree is a no-op. Like all
// mutations, the toggle requires external exclusion against readers.
func (t *Tree) SetQuantizedScoring(enabled bool) error {
	if !enabled {
		t.invalidateQuantized()
		return nil
	}
	if t.quantOK || t.size == 0 {
		return nil
	}
	if !t.blocksOK {
		t.packBlocks()
	}
	qz, err := store.QuantizeBacking(t.dim, t.slab)
	if err != nil {
		return err
	}
	t.setQuantRanges()
	t.qcodes = qz.Codes()
	t.quant = qz
	t.quantOK = true
	return nil
}

// AdoptQuantized installs a quantizer whose rows are indexed by ItemID (the
// store-ordered quantizer an archive persists), permuting its codes into slab
// order. Encoding is deterministic per point, so the adopted codes are
// byte-identical to what SetQuantizedScoring would retrain; archives restore
// through this to skip the training pass. Every indexed ItemID must be a
// valid row of qz.
func (t *Tree) AdoptQuantized(qz *store.Quantized) error {
	if qz == nil {
		return fmt.Errorf("rstar: adopt nil quantizer")
	}
	if qz.Dim() != t.dim {
		return fmt.Errorf("rstar: quantizer dim %d != tree dim %d", qz.Dim(), t.dim)
	}
	if t.size == 0 {
		return nil
	}
	if !t.blocksOK {
		t.packBlocks()
	}
	t.setQuantRanges()
	codes := make([]uint8, t.size*t.dim)
	for row, id := range t.qids {
		if int(id) < 0 || int(id) >= qz.Len() {
			t.invalidateQuantized()
			return fmt.Errorf("rstar: item %d outside quantizer rows [0, %d)", id, qz.Len())
		}
		copy(codes[row*t.dim:(row+1)*t.dim], qz.Row(int(id)))
	}
	t.qcodes = codes
	t.quant = qz
	t.quantOK = true
	return nil
}

// QuantizedScoring reports whether the SQ8 scan path is active.
func (t *Tree) QuantizedScoring() bool { return t.quantOK }

// invalidateQuantized drops the quantized-scan state. Node qlo/qhi values go
// stale rather than being rewalked; quantOK guards every use of them. The
// slab-ordered ID table is shared with the float32 scan path, so it survives
// while that path still holds it.
func (t *Tree) invalidateQuantized() {
	t.quantOK = false
	t.qcodes = nil
	t.quant = nil
	t.dropRangesIfUnused()
}

// dropRangesIfUnused releases the slab-ordered ID table once neither slab-
// sweep path (quantized or float32) needs it.
func (t *Tree) dropRangesIfUnused() {
	if !t.quantOK && !t.f32OK {
		t.qids = nil
	}
}

// chargeLeaves reports every leaf page under n to acc, in the depth-first
// order the slab rows were packed in, and returns how many there are. Both
// slab sweeps charge their range this way: a sweep reads every leaf's rows,
// so each leaf page is charged exactly once per query.
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

// quantScratch is the pooled working memory of one quantized sweep: per
// active query (K > 0, finite decode error) its code row, decode error and
// candidate selector, plus the shared scan and rerank buffers.
type quantScratch struct {
	act    []int           // indices of the active queries
	qcodes []uint8         // their code rows, packed for the multi kernel
	qErrs  []float64       // per active query
	sels   []vec.QuantTopK // per active query
	dists  []int32         // one chunk's code distances, query-major
	ids    []int
	cands  []Neighbor
}

var quantScratchPool = sync.Pool{New: func() interface{} { return new(quantScratch) }}

// scanCodes sweeps the code rows [lo, hi) once for the queries whose code
// rows are packed in qcodes, admitting rows into their selectors sels. One
// query without SIMD support scores row by row with early exit against its
// threshold; otherwise each chunk of rows is scored by a batch kernel — for
// all the queries at once when there are several — and filtered against the
// thresholds. Capped and full distances admit the same rows (the capped
// contract), so the retained sets and final thresholds are identical
// whichever branch runs.
func (t *Tree) scanCodes(ctx context.Context, lo, hi int, qcodes []uint8, sels []vec.QuantTopK, sc *quantScratch) error {
	dim := t.dim
	codes := t.qcodes
	g := len(sels)
	if g == 1 && !vec.HasAcceleratedUint8Batch() {
		sel := &sels[0]
		for r := lo; r < hi; r++ {
			if (r-lo)%quantCtxInterval == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			row := codes[r*dim : r*dim+dim : r*dim+dim]
			sel.Add(vec.Uint8SquaredDistCapped(qcodes, row, sel.Threshold()), r)
		}
		return nil
	}
	for base := lo; base < hi; base += quantCtxInterval {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(base+quantCtxInterval, hi)
		cr := end - base
		sc.dists = grown(sc.dists, g*cr)
		dists := sc.dists
		if g == 1 {
			vec.Uint8SquaredDistsTo(qcodes, codes[base*dim:end*dim], dists)
		} else {
			vec.Uint8SquaredDistsToMulti(qcodes, g, codes[base*dim:end*dim], dists)
		}
		for a := range sels {
			sel := &sels[a]
			thr := sel.Threshold()
			for i, d := range dists[a*cr : (a+1)*cr] {
				if d < thr {
					sel.Add(d, base+i)
					thr = sel.Threshold()
				}
			}
		}
	}
	return nil
}

// sweepSQ8 answers qs over the subtree rooted at n with the two-phase
// quantized search: one shared SQ8 sweep of the subtree's code rows selects
// rerankFactor*k candidates per query (rerankFactor <= 0 uses
// DefaultRerankFactor); then, query by query, the exact float kernels re-rank
// them and the candidate set widens until the rerank guarantee certifies the
// result. Results are bit-identical to the exact descent's. Each query's
// accounter is charged every leaf page in the scanned range once, retries
// included — re-reads hit memory the first pass already paid for; effort
// lands in its Stats' CodesScanned/Reranked/RerankFallbacks counters, with
// per-phase wall time in ScanNS/RerankNS when Stats.Timed is set (the shared
// sweep's time is attributed to every query that rode it). A NaN query
// defeats the bound and runs the exact descent instead, counted as a
// fallback.
func (t *Tree) sweepSQ8(ctx context.Context, n *Node, rerankFactor int, qs []Query) error {
	if rerankFactor <= 0 {
		rerankFactor = DefaultRerankFactor
	}
	sc := quantScratchPool.Get().(*quantScratch)
	defer quantScratchPool.Put(sc)
	lo, hi := n.qlo, n.qhi
	rows := hi - lo
	dim := t.dim

	act, qcodes, qErrs := sc.act[:0], sc.qcodes[:0], sc.qErrs[:0]
	for j := range qs {
		q := &qs[j]
		if q.K <= 0 {
			continue
		}
		used := len(qcodes)
		qcodes = append(qcodes, make([]uint8, dim)...)
		_, qErr := t.quant.EncodeQuery(q.Q, qcodes[used:])
		if math.IsNaN(qErr) {
			qcodes = qcodes[:used]
			if q.Stats != nil {
				q.Stats.RerankFallbacks++
			}
			if err := t.descend(ctx, n, metric{}, qs[j:j+1]); err != nil {
				return err
			}
			continue
		}
		act = append(act, j)
		qErrs = append(qErrs, qErr)
	}
	sc.act, sc.qcodes, sc.qErrs = act, qcodes, qErrs
	ma := len(act)
	if ma == 0 {
		return nil
	}
	for len(sc.sels) < ma {
		sc.sels = append(sc.sels, vec.QuantTopK{})
	}
	sels := sc.sels[:ma]

	var leaves uint64
	anyTimed := false
	for a, j := range act {
		leaves = chargeLeaves(n, qs[j].accounter())
		sels[a].Reset(firstCandidates(min(qs[j].K, rows), rerankFactor, rows))
		if st := qs[j].Stats; st != nil && st.Timed {
			anyTimed = true
		}
	}

	// Phase 1, shared: the quantized sweep of the subtree's code rows.
	var t0 time.Time
	if anyTimed {
		t0 = time.Now()
	}
	if err := t.scanCodes(ctx, lo, hi, qcodes, sels, sc); err != nil {
		return err
	}
	var sharedScanNS int64
	if anyTimed {
		sharedScanNS = time.Since(t0).Nanoseconds()
	}

	for a, j := range act {
		q := &qs[j]
		sel := &sels[a]
		k := min(q.K, rows)
		st := q.Stats
		if st == nil {
			st = new(SearchStats) // unobserved: counted into the void
		}
		st.NodesRead += leaves
		st.CodesScanned += uint64(rows)
		st.ScanNS += sharedScanNS
		widened := false
		var cands []Neighbor
		for m := firstCandidates(k, rerankFactor, rows); ; {
			// Phase 2: exact rerank. SqL2 over a slab row computes the
			// identical value the exact search's batch kernel produces for
			// that item, and (Dist, ID) ordering matches stabilize, so the
			// certified output is bit-for-bit the exact search's.
			if st.Timed {
				t0 = time.Now()
			}
			threshold := sel.Threshold() // read first: AppendIDs reorders the selector
			sc.ids = sel.AppendIDs(sc.ids[:0])
			sc.cands = grown(sc.cands, len(sc.ids))
			cands = sc.cands
			for i, r := range sc.ids {
				rowF := t.slab[r*dim : r*dim+dim : r*dim+dim]
				cands[i] = Neighbor{ID: t.qids[r], Point: rowF, Dist: math.Sqrt(vec.SqL2(q.Q, rowF))}
			}
			st.Reranked += uint64(len(cands))
			st.ItemsScored += uint64(len(cands))
			slices.SortFunc(cands, neighborCmp)
			if len(cands) > k {
				cands = cands[:k]
			}
			if st.Timed {
				st.RerankNS += time.Since(t0).Nanoseconds()
			}
			// Done when every row in range was reranked (nothing was
			// excluded) or the certificate holds; otherwise widen the
			// candidate set and rescan for this query alone.
			if m >= rows || t.quant.Certifies(threshold, qErrs[a], cands[len(cands)-1].Dist) {
				break
			}
			widened = true
			if m > rows/2 {
				m = rows
			} else {
				m *= 2
			}
			if st.Timed {
				t0 = time.Now()
			}
			sel.Reset(m)
			if err := t.scanCodes(ctx, lo, hi, qcodes[a*dim:(a+1)*dim], sels[a:a+1], sc); err != nil {
				return err
			}
			st.CodesScanned += uint64(rows)
			if st.Timed {
				st.ScanNS += time.Since(t0).Nanoseconds()
			}
		}
		if widened {
			st.RerankFallbacks++
		}
		q.Result = append([]Neighbor(nil), cands...)
	}
	return nil
}
