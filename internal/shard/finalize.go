package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"qdcbir/internal/core"
	"qdcbir/internal/par"
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

// RelPoint is one relevant image prepared for distributed finalize: its ID,
// its assigned subcluster (a leaf for stateless /v1/query-style calls; any
// node for a resumed feedback session), and its feature vector. Callers must
// pass points deduplicated and in marking order, and omit unassigned images —
// the same preconditions core.finalizeGroups sees.
type RelPoint struct {
	ID     int
	NodeID uint64
	Vec    vec.Vector
}

// ScoredImage mirrors core.ScoredImage on wire-neutral types, plus the label
// the Searcher's neighbour carried.
type ScoredImage struct {
	ID    int
	Score float64
	Label string
}

// Group mirrors core.Group: one localized subquery's results.
type Group struct {
	NodeID       uint64
	SearchNodeID uint64
	QueryIDs     []int
	Images       []ScoredImage
	RankScore    float64
}

// Expanded reports whether the §3.3 boundary test widened the search area.
func (g *Group) Expanded() bool { return g.SearchNodeID != g.NodeID }

// Result is a distributed finalize outcome: groups ordered by rank score,
// exactly as core.Result orders them.
type Result struct {
	Groups     []Group
	Expansions int
}

// FinalizeScatter runs the final localized multipoint k-NN round (§3.3/§3.4)
// against a Searcher, transcribing core.finalizeGroups step for step —
// grouping order, the (count desc, node ID asc) subquery order, floor-based
// proportional allocation with round-robin leftovers, the alloc+k request
// size, the serial first-claim merge, the top-up loop, and the stable
// rank-score sort. Given a Searcher that honours its contract, the output is
// bit-identical to the single-node finalize over the same inputs: every
// arithmetic step either operates on identical float64 values in the same
// order or is integer bookkeeping.
func FinalizeScatter(ctx context.Context, topo *Topology, s Searcher, rel []RelPoint, k int, weights []float64, boundary float64, parallelism int) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("shard: invalid k=%d", k)
	}
	// Group the query panel by assigned subcluster, preserving marking order.
	type local struct {
		nodeIdx int
		ids     []int
		qpts    []vec.Vector
	}
	byNode := make(map[uint64]*local)
	var order []uint64
	for _, p := range rel {
		idx, ok := topo.IdxOf(p.NodeID)
		if !ok {
			return nil, fmt.Errorf("shard: relevant image %d assigned to unknown node %d", p.ID, p.NodeID)
		}
		l, ok2 := byNode[p.NodeID]
		if !ok2 {
			l = &local{nodeIdx: idx}
			byNode[p.NodeID] = l
			order = append(order, p.NodeID)
		}
		l.ids = append(l.ids, p.ID)
		l.qpts = append(l.qpts, p.Vec)
	}
	if len(byNode) == 0 {
		return nil, errors.New("shard: no relevant image lies under the current frontier")
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := byNode[order[i]], byNode[order[j]]
		if len(a.ids) != len(b.ids) {
			return len(a.ids) > len(b.ids)
		}
		return order[i] < order[j]
	})
	if len(order) > k {
		order = order[:k]
	}

	// Resolve each subquery's search area (§3.3) and centroid.
	type prepared struct {
		l         *local
		searchIdx int
		centroid  vec.Vector
		cap       int
	}
	res := &Result{}
	preps := make(map[uint64]*prepared, len(order))
	for _, nodeID := range order {
		l := byNode[nodeID]
		searchIdx := topo.ExpandForQuery(l.nodeIdx, l.qpts, boundary)
		if searchIdx != l.nodeIdx {
			res.Expansions++
		}
		preps[nodeID] = &prepared{
			l:         l,
			searchIdx: searchIdx,
			centroid:  vec.Centroid(l.qpts),
			cap:       topo.Nodes[searchIdx].Size,
		}
	}

	// Proportional allocation (§3.4): the shared core arithmetic, so the
	// scatter path allocates bit-identically to the single-node finalize.
	counts := make([]int, len(order))
	caps := make([]int, len(order))
	for i, nodeID := range order {
		counts[i] = len(byNode[nodeID].ids)
		caps[i] = preps[nodeID].cap
	}
	allocs := core.ProportionalAlloc(k, counts, caps)
	alloc := make(map[uint64]int, len(order))
	for i, nodeID := range order {
		alloc[nodeID] = allocs[i]
	}

	// Scatter the subqueries (each asks for alloc+k, a prefix-consistent
	// over-request covering any overlap claimed by earlier groups), then merge
	// serially in group order.
	neighborLists := make([][]Neighbor, len(order))
	err := par.Do(ctx, len(order), parallelism, func(i int) error {
		p := preps[order[i]]
		ns, err := s.SearchNode(ctx, topo.Nodes[p.searchIdx].ID, p.centroid, weights, alloc[order[i]]+k)
		if err != nil {
			return err
		}
		neighborLists[i] = ns
		return nil
	})
	if err != nil {
		return nil, err
	}

	seen := make(map[int]bool, k)
	groups := make(map[uint64]*Group, len(order))
	for i, nodeID := range order {
		p := preps[nodeID]
		g := &Group{NodeID: nodeID, SearchNodeID: topo.Nodes[p.searchIdx].ID, QueryIDs: p.l.ids}
		for _, n := range neighborLists[i] {
			if len(g.Images) >= alloc[nodeID] {
				break
			}
			if seen[n.ID] {
				continue
			}
			seen[n.ID] = true
			g.Images = append(g.Images, ScoredImage{ID: n.ID, Score: n.Dist, Label: n.Label})
			g.RankScore += n.Dist
		}
		groups[nodeID] = g
	}
	for deficit := k - len(seen); deficit > 0; {
		progressed := false
		for _, nodeID := range order {
			if deficit <= 0 {
				break
			}
			p, g := preps[nodeID], groups[nodeID]
			if len(g.Images) >= p.cap {
				continue
			}
			want := len(g.Images) + deficit + len(seen)
			more, err := s.SearchNode(ctx, topo.Nodes[p.searchIdx].ID, p.centroid, weights, want)
			if err != nil {
				return nil, err
			}
			for _, n := range more {
				if deficit <= 0 {
					break
				}
				if seen[n.ID] {
					continue
				}
				seen[n.ID] = true
				g.Images = append(g.Images, ScoredImage{ID: n.ID, Score: n.Dist, Label: n.Label})
				g.RankScore += n.Dist
				deficit--
				progressed = true
			}
		}
		if !progressed {
			break // every search area exhausted; fewer than k images exist
		}
	}
	for _, nodeID := range order {
		res.Groups = append(res.Groups, *groups[nodeID])
	}
	sort.SliceStable(res.Groups, func(i, j int) bool { return res.Groups[i].RankScore < res.Groups[j].RankScore })
	return res, nil
}
