package seg

import (
	"context"
	"fmt"
	"math"
	"sort"

	"qdcbir/internal/par"
	"qdcbir/internal/rstar"
	"qdcbir/internal/shard"
	"qdcbir/internal/vec"
)

// Neighbor is a global-ID scored result; the alias makes the merge
// arithmetic literally the serving tier's (shard.MergeNeighbors).
type Neighbor = shard.Neighbor

// KNNCtx returns the k nearest live images to q across the whole snapshot:
// every sealed segment (searched through its tree's one k-NN search in the
// configured mode — the float64 descent, the same descent behind the SQ8
// row filter, or with the float32 leaf scorer) plus the memtable (always an exact scan),
// merged by (distance, global ID).
//
// Bit-exactness: each per-segment list carries distances identical to what
// a monolithic build computes for the same rows (position-independent
// per-row kernels; SQ8 codes only filter which rows are scored exactly, so
// per-segment quantizer training differences never reach the output),
// per-segment local order equals global-ID order, and each segment's
// descent passes over its tombstoned rows (rstar.Query.Skip), so it returns
// exactly that segment's min(live, k) nearest live rows. The merged list is
// therefore bit-identical to a single-segment rebuild of the live set.
func (s *Snapshot) KNNCtx(ctx context.Context, q vec.Vector, k int) ([]Neighbor, error) {
	return s.knn(ctx, q, nil, k)
}

// knn is KNNCtx under an optional per-dimension weighting (nil for plain
// Euclidean; callers validate it). Weighted scans are always exact float64
// in every mode, as in the monolithic engine.
func (s *Snapshot) knn(ctx context.Context, q, weights vec.Vector, k int) ([]Neighbor, error) {
	if len(q) != s.db.cfg.Dim {
		return nil, fmt.Errorf("seg: query dim %d, want %d", len(q), s.db.cfg.Dim)
	}
	if k <= 0 || s.live == 0 {
		return nil, nil
	}
	lists := make([][]Neighbor, len(s.segs)+1)
	err := par.Do(ctx, len(s.segs)+1, s.db.cfg.Parallelism, func(i int) error {
		if i == len(s.segs) {
			lists[i] = s.scanMem(q, weights, k)
			return nil
		}
		ns, err := s.searchSegment(ctx, s.segs[i], q, weights, k)
		if err != nil {
			return err
		}
		lists[i] = ns
		return nil
	})
	if err != nil {
		return nil, err
	}
	return shard.MergeNeighbors(lists, k), nil
}

// searchSegment returns the k nearest live neighbors of one sealed segment,
// global IDs attached: one descent of the segment's tree with K = k and the
// segment's tombstones as its Skip set, so no tombstoned row enters the
// answer or sets the pruning radius. A segment whose rows are all tombstoned
// is not searched.
func (s *Snapshot) searchSegment(ctx context.Context, sv segView, q, weights vec.Vector, k int) ([]Neighbor, error) {
	if sv.liveLen() == 0 {
		return nil, nil
	}
	// The segment's tree scores as it was sealed: float32, SQ8-filtered, or
	// exact when its codes could not be trained.
	tree := sv.seg.rfs.Tree()
	qs := [1]rstar.Query{{Q: q, K: k, Skip: sv.tomb}}
	if err := tree.KNNSearch(ctx, tree.Root(), weights, qs[:]); err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(qs[0].Result))
	for i, n := range qs[0].Result {
		out[i] = Neighbor{ID: sv.seg.ids[int(n.ID)], Dist: n.Dist}
	}
	return out, nil
}

// scanMem exact-scans the memtable prefix. In float32 mode it scores on
// the insert-time narrowed rows with the same kernel the sealed f32 path
// uses (vec.SqL232), so a row's distance is bit-identical before and
// after sealing.
func (s *Snapshot) scanMem(q, weights vec.Vector, k int) []Neighbor {
	if s.mem.live() == 0 {
		return nil
	}
	var q32 []float32
	if weights == nil && s.db.cfg.Float32 {
		q32 = vec.Narrow32(q, nil)
	}
	out := make([]Neighbor, 0, s.mem.live())
	for slot := 0; slot < s.mem.rows; slot++ {
		if s.mem.tomb.Get(slot) {
			continue
		}
		var d float64
		switch {
		case weights != nil:
			d = math.Sqrt(vec.WeightedSqL2(q, s.mem.row(slot), weights))
		case s.db.cfg.Float32:
			d = math.Sqrt(float64(vec.SqL232(q32, s.mem.row32(slot))))
		default:
			d = math.Sqrt(vec.SqL2(q, s.mem.row(slot)))
		}
		out = append(out, Neighbor{ID: s.mem.baseID + slot, Dist: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
