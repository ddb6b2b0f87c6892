package shard

import (
	"context"
	"errors"
	"fmt"

	"qdcbir/internal/core"
	"qdcbir/internal/vec"
)

// Searcher answers subtree-restricted k-NN searches. A local Replica is one
// Searcher; a router's scatter-gather client (fan out to every shard, merge
// with MergeNeighbors) is another. The contract both satisfy: the returned
// list is the k nearest images under the node across the WHOLE corpus the
// searcher represents, ascending by (distance, ID), with distances identical
// to the single-node engine's.
type Searcher interface {
	SearchNode(ctx context.Context, nodeID uint64, q vec.Vector, weights []float64, k int) ([]Neighbor, error)
}

// NodeSearch is one search of a batch: the K nearest images to Q under the
// topology node NodeID.
type NodeSearch struct {
	NodeID uint64
	Q      vec.Vector
	K      int
}

// BatchSearcher is a Searcher that answers several searches under one
// weighting in one call: list i answers searches[i] under SearchNode's
// contract. A router's scatter is one, sending each shard one leg per call
// rather than one per search.
type BatchSearcher interface {
	Searcher
	SearchNodes(ctx context.Context, searches []NodeSearch, weights []float64) ([][]Neighbor, error)
}

// RelPoint is one relevant image prepared for distributed finalize: its ID,
// its assigned subcluster (a leaf for stateless /v1/query-style calls; any
// node for a resumed feedback session), and its feature vector. Callers must
// pass points deduplicated and in marking order, and omit unassigned images —
// the same preconditions the single-node finalize sees.
type RelPoint struct {
	ID     int
	NodeID uint64
	Vec    vec.Vector
}

// Claim maps a neighbour to what the final round's merge needs of it (see
// core.FinalRound): its ID, its distance, and the answer image, label
// included.
func Claim(n Neighbor) (int, float64, core.AnswerImage) {
	return n.ID, n.Dist, core.AnswerImage{ID: n.ID, Score: n.Dist, Label: n.Label}
}

// FinalizeScatter runs the final localized multipoint k-NN round (§3.3/§3.4)
// against a Searcher. The grouping and the §3.3 boundary expansion are the
// single-node engine's, over the shared Topology; the rest is core.FinalRound,
// the tail every backing runs. A BatchSearcher answers each of FinalRound's
// fetches in one call; any other Searcher answers its requests one by one,
// up to parallelism at a time. Given a Searcher that honours its contract,
// the output is bit-identical to the single-node finalize over the same
// inputs.
func FinalizeScatter(ctx context.Context, topo *Topology, s Searcher, rel []RelPoint, k int, weights []float64, boundary float64, parallelism int) (*core.Answer, error) {
	if k <= 0 {
		return nil, fmt.Errorf("shard: invalid k=%d", k)
	}
	// Group the query panel by assigned subcluster, preserving marking order.
	type local struct {
		nodeIdx, searchIdx int
		ids                []int
		qpts               []vec.Vector
		centroid           vec.Vector
	}
	var locals []local
	byNode := make(map[uint64]int)
	var subs []core.Subquery
	for _, p := range rel {
		idx, ok := topo.IdxOf(p.NodeID)
		if !ok {
			return nil, fmt.Errorf("shard: relevant image %d assigned to unknown node %d", p.ID, p.NodeID)
		}
		g, ok := byNode[p.NodeID]
		if !ok {
			g = len(locals)
			byNode[p.NodeID] = g
			locals = append(locals, local{nodeIdx: idx})
			subs = append(subs, core.Subquery{Group: g, Key: p.NodeID})
		}
		locals[g].ids = append(locals[g].ids, p.ID)
		locals[g].qpts = append(locals[g].qpts, p.Vec)
		subs[g].Count++
	}
	if len(locals) == 0 {
		return nil, errors.New("shard: no relevant image lies under the current frontier")
	}
	subs = core.OrderSubqueries(subs, k)

	// Resolve each subquery's search area (§3.3) and centroid.
	res := &core.Answer{}
	for i := range subs {
		l := &locals[subs[i].Group]
		l.searchIdx = topo.ExpandForQuery(l.nodeIdx, l.qpts, boundary)
		if l.searchIdx != l.nodeIdx {
			res.Expansions++
		}
		l.centroid = vec.Centroid(l.qpts)
		subs[i].Cap = topo.Nodes[l.searchIdx].Size
		subs[i].Lo, subs[i].Hi = topo.Span(l.searchIdx)
	}

	search := func(r core.Request) NodeSearch {
		l := &locals[r.Group]
		return NodeSearch{NodeID: topo.Nodes[l.searchIdx].ID, Q: l.centroid, K: r.Want}
	}
	fetch := core.FetchEach(parallelism, func(ctx context.Context, r core.Request) ([]Neighbor, error) {
		ns := search(r)
		return s.SearchNode(ctx, ns.NodeID, ns.Q, weights, ns.K)
	})
	if bs, ok := s.(BatchSearcher); ok {
		fetch = func(ctx context.Context, reqs []core.Request) ([][]Neighbor, error) {
			searches := make([]NodeSearch, len(reqs))
			for i, r := range reqs {
				searches[i] = search(r)
			}
			return bs.SearchNodes(ctx, searches, weights)
		}
	}
	claims, err := core.FinalRound(ctx, k, subs, fetch, Claim)
	if err != nil {
		return nil, err
	}
	res.Groups = make([]core.AnswerGroup, len(claims))
	for i, c := range claims {
		l := &locals[c.Group]
		res.Groups[i] = core.AnswerGroup{
			NodeID:       topo.Nodes[l.nodeIdx].ID,
			SearchNodeID: topo.Nodes[l.searchIdx].ID,
			QueryIDs:     l.ids,
			Images:       c.Images,
			RankScore:    c.RankScore,
		}
	}
	return res, nil
}
