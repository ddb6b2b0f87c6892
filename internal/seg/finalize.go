package seg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"qdcbir/internal/core"
	"qdcbir/internal/kmeans"
	"qdcbir/internal/shard"
	"qdcbir/internal/vec"
)

// QueryByExamplesCtx runs the final localized multipoint k-NN round
// (§3.3/§3.4) against the snapshot using QUERY-SIDE decomposition: the
// example vectors themselves are clustered (k-means, deterministic seed
// from the DB config) into ceil(sqrt(n)) groups, and each group's centroid
// subquery runs corpus-wide over the snapshot. The order, allocation,
// merge, top-up and rank-score sort are core.FinalRound, the tail every
// backing runs.
//
// Unlike the tree-anchored monolithic finalize, this decomposition never
// references tree nodes — so its output is invariant to how the corpus is
// segmented: the same live set produces bit-identical groups whether it
// sits in one sealed segment, five segments plus a memtable, or a
// from-scratch rebuild. (Example images are identified by global ID; under
// the order-preserving ID relabeling of a rebuild the clustering sees the
// same vectors in the same order with the same seed.)
func (s *Snapshot) QueryByExamplesCtx(ctx context.Context, examples []int, k int, weights vec.Vector) (*core.Answer, error) {
	dc, err := s.decompose(examples, k, weights)
	if err != nil {
		return nil, err
	}
	claims, err := core.FinalRound(ctx, k, dc.subs, core.FetchEach(s.db.cfg.Parallelism, func(ctx context.Context, r core.Request) ([]Neighbor, error) {
		return s.knn(ctx, dc.centroids[r.Group], weights, r.Want, nil)
	}), shard.Claim)
	if err != nil {
		return nil, err
	}
	res := &core.Answer{Groups: make([]core.AnswerGroup, len(claims))}
	for i, c := range claims {
		res.Groups[i] = core.AnswerGroup{QueryIDs: dc.members[c.Group], Images: c.Images, RankScore: c.RankScore}
	}
	return res, nil
}

// decomposition is a final round's query side: its subqueries in final
// order, and each group's centroid and member global IDs (ascending).
type decomposition struct {
	subs      []core.Subquery
	centroids []vec.Vector
	members   [][]int
}

// decompose validates a final round's inputs and clusters its examples into
// the round's groups.
func (s *Snapshot) decompose(examples []int, k int, weights vec.Vector) (*decomposition, error) {
	if k <= 0 {
		return nil, fmt.Errorf("seg: invalid k=%d", k)
	}
	if err := vec.CheckWeights(weights, s.db.cfg.Dim); err != nil {
		return nil, fmt.Errorf("seg: %w", err)
	}
	// Dedup, resolve vectors, and sort ascending by global ID: the sorted
	// order is the canonical clustering input order, invariant under
	// segmentation and under the rebuild relabeling.
	seenEx := make(map[int]bool, len(examples))
	var ids []int
	for _, id := range examples {
		if seenEx[id] {
			continue
		}
		seenEx[id] = true
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, errors.New("seg: no example images")
	}
	sort.Ints(ids)
	pts := make([]vec.Vector, len(ids))
	for i, id := range ids {
		v, ok := s.VectorOf(id)
		if !ok {
			return nil, fmt.Errorf("seg: example image %d is unknown or deleted", id)
		}
		pts[i] = v
	}

	// Decompose: ceil(sqrt(n)) clusters, capped by n and by k (the
	// monolithic path likewise keeps at most k groups).
	kGroups := int(math.Ceil(math.Sqrt(float64(len(pts)))))
	if kGroups > len(pts) {
		kGroups = len(pts)
	}
	if kGroups > k {
		kGroups = k
	}
	rng := rand.New(rand.NewSource(s.db.cfg.Seed + 5))
	cl := kmeans.Cluster(pts, kGroups, kmeans.Config{}, rng)

	dc := &decomposition{members: make([][]int, cl.K), centroids: make([]vec.Vector, cl.K)}
	memberPts := make([][]vec.Vector, cl.K)
	for i, c := range cl.Assign {
		dc.members[c] = append(dc.members[c], ids[i])
		memberPts[c] = append(memberPts[c], pts[i])
	}
	// Skip empty clusters defensively (kmeans reseeds, but stay robust).
	// A group's key is its smallest member ID: the analogue of the monolithic
	// node ID in the (count desc, key asc) order. Every subquery is
	// corpus-wide, so each group's capacity is the snapshot's live count and
	// every group shares one span.
	for c, m := range dc.members {
		if len(m) > 0 {
			dc.subs = append(dc.subs, core.Subquery{Group: c, Count: len(m), Key: uint64(m[0]), Cap: s.live, Hi: 1})
		}
	}
	dc.subs = core.OrderSubqueries(dc.subs, k)
	for _, sq := range dc.subs {
		dc.centroids[sq.Group] = vec.Centroid(memberPts[sq.Group])
	}
	return dc, nil
}
