package seg

import (
	"context"
	"fmt"
	"sync"

	"qdcbir/internal/rstar"
	"qdcbir/internal/shard"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// Neighbor is a global-ID scored result, the serving tier's shard.Neighbor.
type Neighbor = shard.Neighbor

// KNNCtx returns the k nearest live images to q across the whole snapshot:
// every sealed segment (each tree scoring with its leaf scorer — the
// float64 block kernel, the same kernel behind the SQ8 row filter, or the
// float32 leaf scorer over float32 rows) plus the memtable (a block scan
// with the kernel of the DB's precision), found by one search
// (rstar.KNNForest) over the segments' trees.
//
// Bit-exactness: every row is scored by the position-independent per-row
// kernels a monolithic build runs on it (SQ8 codes only filter which rows are
// scored exactly, so per-segment quantizer training differences never reach
// the output), each segment's tombstoned rows are passed over inside the
// descent (rstar.Root.Skip), and the one selector every segment and the
// memtable feed keys rows by (squared distance, global ID), the key of a
// single-segment rebuild of the live set. The answer is therefore
// bit-identical to that rebuild's, ties at one square root included.
func (s *Snapshot) KNNCtx(ctx context.Context, q vec.Vector, k int) ([]Neighbor, error) {
	return s.knn(ctx, q, nil, k, nil)
}

// knnScratch is the pooled working memory of one snapshot k-NN.
type knnScratch struct {
	roots   []rstar.Root
	rows    []rstar.Scored
	dists   []float64
	dists32 []float32
	q32     []float32
	wide    []float64 // a Float32 DB's memtable rows, widened for a weighted scan
}

var knnPool = sync.Pool{New: func() interface{} { return new(knnScratch) }}

// knn is KNNCtx under an optional per-dimension weighting (nil for plain
// Euclidean; callers validate it), adding its search effort to st when st is
// not nil. Weighted scans are always exact float64 in every mode, as in the
// monolithic engine. A segment whose rows are all tombstoned is not searched.
func (s *Snapshot) knn(ctx context.Context, q, weights vec.Vector, k int, st *rstar.SearchStats) ([]Neighbor, error) {
	if len(q) != s.db.cfg.Dim {
		return nil, fmt.Errorf("seg: query dim %d, want %d", len(q), s.db.cfg.Dim)
	}
	if k <= 0 || s.live == 0 {
		return nil, nil
	}
	sc := knnPool.Get().(*knnScratch)
	defer knnPool.Put(sc)
	roots := sc.roots[:0]
	for _, sv := range s.segs {
		if sv.liveLen() > 0 {
			roots = append(roots, rstar.Root{Tree: sv.seg.rfs.Tree(), Skip: sv.tomb, IDs: sv.seg.ids})
		}
	}
	sc.roots = roots
	ns, err := rstar.KNNForest(ctx, roots, weights, s.scoreMem(sc, q, weights), rstar.Query{Q: q, K: k, Stats: st})
	clear(roots) // drop the segments' references from the pool
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(ns))
	for i, n := range ns {
		out[i] = Neighbor{ID: int(n.ID), Dist: n.Dist}
	}
	return out, nil
}

// scoreMem scores the memtable prefix's live rows with the block kernel
// whose bits the same rows get once sealed: SquaredDistsTo, its weighted
// form, or in a Float32 DB SquaredDistsTo32 (weighted scans widen the rows).
func (s *Snapshot) scoreMem(sc *knnScratch, q, weights vec.Vector) []rstar.Scored {
	m := s.mem
	rows := sc.rows[:0]
	if m.live() == 0 {
		return rows
	}
	n := m.rows * m.dim
	if weights == nil && m.prec == store.Float32 {
		sc.q32 = vec.Narrow32(q, grown(sc.q32, len(q)))
		sc.dists32 = grown(sc.dists32, m.rows)
		vec.SquaredDistsTo32(sc.q32, m.data32[:n], sc.dists32)
		for slot, d := range sc.dists32 {
			if !m.tomb.Get(slot) {
				rows = append(rows, rstar.Scored{ID: rstar.ItemID(m.baseID + slot), DistSq: float64(d)})
			}
		}
	} else {
		sc.dists = grown(sc.dists, m.rows)
		var data []float64
		if m.prec == store.Float32 {
			sc.wide = vec.Widen64(m.data32[:n], grown(sc.wide, n))
			data = sc.wide
		} else {
			data = m.data[:n]
		}
		if weights == nil {
			vec.SquaredDistsTo(q, data, sc.dists)
		} else {
			vec.WeightedSquaredDistsTo(q, weights, data, sc.dists)
		}
		for slot, d := range sc.dists {
			if !m.tomb.Get(slot) {
				rows = append(rows, rstar.Scored{ID: rstar.ItemID(m.baseID + slot), DistSq: d})
			}
		}
	}
	sc.rows = rows
	return rows
}

// grown returns buf resized to n elements, reallocating only when its
// capacity falls short; the contents are unspecified.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
