package rstar

// This file holds the tree's SQ8 state (store.Quantized, the int32 kernels in
// internal/vec): uint8 code rows mirroring the leaf slab row for row, which
// the one best-first descent (descent.go) uses as a ROW FILTER in front of
// leaf scoring. packBlocks lays leaves out in depth-first order, so a leaf's
// code rows are the contiguous range [qlo, qhi) of the code slab. A tree
// holding the codes runs every unweighted search through the filter.
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
	"errors"
	"fmt"

	"qdcbir/internal/store"
)

// TrainQuantized installs the SQ8 row filter, training a quantizer over the
// tree's own slab (the slab is a permutation of the indexed points, and
// min/max training is order-independent, so the parameters are identical to
// training over the points in any other order). It is a no-op on an empty
// tree and on one that already holds the filter, and an error on one that
// holds the float32 scorer. Installing requires exclusion against searches.
func (t *Tree) TrainQuantized() error {
	if t.quant != nil || t.size == 0 {
		return nil
	}
	if t.fslab != nil {
		return errFloat32Installed
	}
	qz, err := store.QuantizeBacking(t.dim, t.slab)
	if err != nil {
		return err
	}
	t.qcodes, t.quant = qz.Codes(), qz
	return nil
}

// AdoptQuantized installs a quantizer whose rows are indexed by ItemID (the
// store-ordered quantizer an archive persists), permuting its codes into slab
// order. Encoding is deterministic per point, so the adopted codes are
// byte-identical to what TrainQuantized would train; archives restore
// through this to skip the training pass. Every indexed ItemID must be a
// valid row of qz. Like TrainQuantized it is a no-op on an empty tree and on
// one that already holds the filter, and an error on one that holds the
// float32 scorer.
func (t *Tree) AdoptQuantized(qz *store.Quantized) error {
	if qz == nil {
		return fmt.Errorf("rstar: adopt nil quantizer")
	}
	if qz.Dim() != t.dim {
		return fmt.Errorf("rstar: quantizer dim %d != tree dim %d", qz.Dim(), t.dim)
	}
	if t.quant != nil || t.size == 0 {
		return nil
	}
	if t.fslab != nil {
		return errFloat32Installed
	}
	codes := make([]uint8, t.size*t.dim)
	// itemsInSubtree lists the items in depth-first leaf order: slab order.
	for row, it := range itemsInSubtree(t.root, nil) {
		id := it.ID
		if int(id) < 0 || int(id) >= qz.Len() {
			return fmt.Errorf("rstar: item %d outside quantizer rows [0, %d)", id, qz.Len())
		}
		copy(codes[row*t.dim:(row+1)*t.dim], qz.Row(int(id)))
	}
	t.qcodes, t.quant = codes, qz
	return nil
}

// errFloat32Installed is the SQ8 installers' answer on a float32 tree: the
// filter serves the float64 scorer, which that tree no longer runs.
var errFloat32Installed = errors.New("rstar: tree already scores leaves in float32")

// QuantizedScoring reports whether the SQ8 row filter is installed.
func (t *Tree) QuantizedScoring() bool { return t.quant != nil }
