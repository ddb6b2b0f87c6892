package seg

import (
	"context"
	"fmt"
	"sort"

	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/store"
)

// segment is one immutable sealed unit: a feature store, an R*-tree over
// it, and the ascending list of global IDs its local rows map to. Once
// built a segment is never mutated — deletes are tombstones held in the
// snapshot, and compaction replaces segments wholesale.
//
// Local row i holds the vector of global ID ids[i], and ids is strictly
// ascending. That invariant is what makes cross-segment merge tie-breaks
// exact: within a segment, ascending local ID order IS ascending global ID
// order, so the per-segment k-NN's (distance, local ID) ordering maps to
// (distance, global ID) without re-sorting equal-distance runs.
type segment struct {
	ids []int
	st  *store.FeatureStore
	rfs *rfs.Structure
}

func (g *segment) len() int { return len(g.ids) }

// localOf returns the local slot of global ID id, or -1.
func (g *segment) localOf(id int) int {
	i := sort.SearchInts(g.ids, id)
	if i < len(g.ids) && g.ids[i] == id {
		return i
	}
	return -1
}

// buildSegment seals the given rows (global IDs ascending, st's rows in the
// same order) into an immutable segment. The build mirrors the monolithic
// assemble/attachQuantizer path knob for knob — RepFraction, MaxFill =
// NodeCapacity, TargetFill = NodeCapacity·93/100, tree seed cfg.Seed+2 — so
// a single sealed segment of the whole corpus is the same structure a
// from-scratch build would produce. A store of float32 rows gets the float32
// scorer and no SQ8 codes.
func buildSegment(ctx context.Context, cfg Config, ids []int, st *store.FeatureStore) (*segment, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("seg: empty segment")
	}
	if st.Len() != len(ids) || st.Dim() != cfg.Dim {
		return nil, fmt.Errorf("seg: store holds %d rows of dim %d for %d rows of dim %d", st.Len(), st.Dim(), len(ids), cfg.Dim)
	}
	structure, err := rfs.BuildStoreCtx(ctx, st, rfs.BuildConfig{
		RepFraction: cfg.RepFraction,
		Tree:        rstar.Config{MaxFill: cfg.NodeCapacity},
		TargetFill:  cfg.NodeCapacity * 93 / 100,
		Seed:        cfg.Seed + 2,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Quantized {
		// Train per segment. A segment whose corpus cannot be trained (or
		// that scores float32 rows) scores exactly, mirroring the monolithic
		// attachQuantizer behaviour; that is invisible in results, because
		// the SQ8 codes only filter which rows are scored exactly.
		_ = structure.Tree().TrainQuantized()
	}
	return &segment{ids: ids, st: st, rfs: structure}, nil
}
