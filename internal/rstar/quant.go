package rstar

// This file holds the tree's SQ8 state (store.Quantized, the int32 kernels in
// internal/vec): uint8 code rows mirroring the leaf slab row for row, which
// the one best-first descent (descent.go) uses as a ROW FILTER in front of
// leaf scoring. packBlocks lays leaves out in depth-first order, so a leaf's
// code rows are the contiguous range [qlo, qhi) of the code slab.
//
// Exactness. The descent keeps the query's k best exact distances; once k are
// held, their worst is the pruning radius. For a row with code distance raw,
// store.Quantized.LowerDist brackets its true distance from below
// (DecodedDist(raw) − qErr − DBErr ≤ exact), so a row whose bound exceeds the
// radius is strictly farther than the k-th best row — outside the top-k and
// outside its boundary ties alike — and is skipped unscored; the descent
// compares raw with store.Quantized.CodeRadius, the same inequality solved
// for raw once per radius change. Every other row is scored with the exact
// float kernel on its slab row. The selector therefore receives exactly the
// rows it would have admitted from an exact block score: results, node reads
// and page traces are the exact descent's, there is nothing to certify and
// nothing to widen.
//
// Unclean corpora (NaN/±Inf components) have DBErr = +Inf and are routed to
// the exact scorer up front; a NaN query defeats the bound the same way and
// is scored exactly, leaf by leaf, counted as a RerankFallback.

import (
	"fmt"

	"qdcbir/internal/store"
)

// setRowRanges assigns every node's slab row range [qlo, qhi). Leaves are
// walked in the same depth-first order packBlocks used, so a leaf's rows are
// its items in order. Requires blocksOK.
func (t *Tree) setRowRanges() {
	row := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		n.qlo = row
		if n.leaf {
			row += len(n.items)
		} else {
			for _, c := range n.children {
				walk(c)
			}
		}
		n.qhi = row
	}
	walk(t.root)
}

// SetQuantizedScoring toggles the SQ8 row filter. Enabling packs the leaf
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
	t.setRowRanges()
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
	t.setRowRanges()
	codes := make([]uint8, t.size*t.dim)
	// itemsInSubtree lists the items in depth-first leaf order: slab order.
	for row, it := range itemsInSubtree(t.root, nil) {
		id := it.ID
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

// QuantizedScoring reports whether the SQ8 row filter is active.
func (t *Tree) QuantizedScoring() bool { return t.quantOK }

// invalidateQuantized drops the SQ8 state. Node qlo/qhi values go
// stale rather than being rewalked; quantOK guards every use of them.
func (t *Tree) invalidateQuantized() {
	t.quantOK = false
	t.qcodes = nil
	t.quant = nil
}
