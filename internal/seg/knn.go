package seg

import (
	"context"
	"fmt"
	"sync"

	"qdcbir/internal/rstar"
	"qdcbir/internal/shard"
	"qdcbir/internal/vec"
)

// Neighbor is a global-ID scored result, the serving tier's shard.Neighbor.
type Neighbor = shard.Neighbor

// KNNCtx returns the k nearest live images to q across the whole snapshot:
// every sealed segment (each tree scoring with its leaf scorer — the
// float64 block kernel, the same kernel behind the SQ8 row filter, or the
// float32 leaf scorer over float32 rows) plus the memtable (a slab of the
// DB's precision, swept by the same scorers), found by one search
// (rstar.KNNForest) over the segments' trees and the memtable.
//
// Bit-exactness: every row is scored by the position-independent per-row
// kernels a monolithic build runs on it (SQ8 codes only filter which rows are
// scored exactly, so per-segment quantizer training differences never reach
// the output), each segment's and the memtable's tombstoned rows are passed
// over inside the search (rstar.Root.Skip), and the one selector every
// segment and the memtable feed keys rows by (squared distance, global ID),
// the key of a single-segment rebuild of the live set. The answer is
// therefore bit-identical to that rebuild's, ties at one square root
// included.
func (s *Snapshot) KNNCtx(ctx context.Context, q vec.Vector, k int) ([]Neighbor, error) {
	return s.knn(ctx, q, nil, k, nil)
}

// knnScratch is the pooled working memory of one snapshot k-NN: the
// forest's roots and the memtable's slab.
type knnScratch struct {
	roots []rstar.Root
	mem   rstar.Slab
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
	if s.mem.live() > 0 {
		sc.mem = s.mem.slab()
		roots = append(roots, rstar.Root{Slab: &sc.mem, Skip: s.mem.tomb})
	}
	sc.roots = roots
	ns, err := rstar.KNNForest(ctx, roots, weights, rstar.Query{Q: q, K: k, Stats: st})
	clear(roots) // drop the segments' and the memtable's references from the pool
	sc.mem = rstar.Slab{}
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(ns))
	for i, n := range ns {
		out[i] = Neighbor{ID: int(n.ID), Dist: n.Dist}
	}
	return out, nil
}
