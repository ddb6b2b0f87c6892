package core

import (
	"context"
	"math"
	"slices"
	"sort"

	"qdcbir/internal/par"
)

// This file is the tail of the final round (§3.4), written once for every
// backing: the single-node engine (finalizeGroups), the sharded
// scatter-gather finalize (shard.FinalizeScatter) and the segmented engine's
// query-side decomposition (seg.Snapshot.QueryByExamplesCtx). A backing
// forms the groups of relevant images and resolves each subquery's search
// area; the order, the allocation, the request sizes, the first-claim merge,
// the top-up and the rank-score sort all happen here, so every backing
// answers bit-identically to the others on identical searches.

// Subquery is one localized multipoint subquery of the final round (§3.3):
// Count relevant images formed it, and its search area holds Cap images.
// Group is the backing's own index of the group; Key breaks ties between
// equal counts. [Lo, Hi) is the search area's span in an order every
// subquery of the round shares: two areas can hold a common image only if
// their spans intersect. FinalRound sets Alloc, the subquery's share of k.
type Subquery struct {
	Group  int
	Count  int
	Key    uint64
	Cap    int
	Lo, Hi int
	Alloc  int
}

// Request asks group Group's subquery for the Want nearest images of its
// search area.
type Request struct {
	Group int
	Want  int
}

// Fetch answers final-round requests. List i holds the reqs[i].Want nearest
// images of group reqs[i].Group's search area, ascending by (distance, ID),
// or all of them when the area holds fewer. FinalRound's first call carries
// one request per subquery, in final order, and may answer them
// concurrently; every later call is a single top-up request.
type Fetch[N any] func(ctx context.Context, reqs []Request) ([][]N, error)

// FetchEach is a Fetch that answers each request with search, up to
// parallelism of them at a time.
func FetchEach[N any](parallelism int, search func(ctx context.Context, r Request) ([]N, error)) Fetch[N] {
	return func(ctx context.Context, reqs []Request) ([][]N, error) {
		lists := make([][]N, len(reqs))
		err := par.Do(ctx, len(reqs), parallelism, func(i int) error {
			ns, err := search(ctx, reqs[i])
			lists[i] = ns
			return err
		})
		return lists, err
	}
}

// Claimed is what one subquery contributes to the final answer: the images
// it claimed, most similar first, and their summed distance, the §3.4
// ranking score.
type Claimed[I any] struct {
	Group     int
	Images    []I
	RankScore float64
}

// OrderSubqueries sorts subs into final order, relevant count descending and
// then Key ascending, and keeps the first k: with more subqueries than result
// slots only the k most relevant run. Keys are distinct, so the order is
// total.
func OrderSubqueries(subs []Subquery, k int) []Subquery {
	slices.SortFunc(subs, func(a, b Subquery) int {
		if a.Count != b.Count {
			return b.Count - a.Count
		}
		if a.Key < b.Key {
			return -1
		}
		if a.Key > b.Key {
			return 1
		}
		return 0
	})
	if len(subs) > k {
		subs = subs[:k]
	}
	return subs
}

// FinalRound merges the ordered subqueries' searches into k images (§3.4).
// Each subquery is allotted a share of k by ProportionalAlloc. The merge is
// serial in group order and first-claim: an image an earlier group took is
// skipped, and each group claims at most its allotment. So subquery i asks
// fetch for alloc_i plus the allotments of the earlier subqueries whose
// spans intersect its own: only those can claim images of its area, and
// they claim at most that many, so the request fills its share unless the
// area runs out. Request sizes depend only on the allocation, and a larger
// k-NN request returns a prefix-consistent superset, so the first fetch may
// run them all at once. While fewer than k images are claimed, a top-up
// pass asks each group with room in its search area for more, until k are
// claimed or every area is exhausted. claim maps a fetched neighbour to its
// ID, its distance and the image the backing reports.
//
// The claims come back in ranking-score order: ascending summed distance, a
// group whose members lie closer to its query first, ties in group order.
func FinalRound[N, I any](ctx context.Context, k int, subs []Subquery, fetch Fetch[N], claim func(N) (id int, dist float64, im I)) ([]Claimed[I], error) {
	counts := make([]int, len(subs))
	caps := make([]int, len(subs))
	for i, s := range subs {
		counts[i], caps[i] = s.Count, s.Cap
	}
	reqs := make([]Request, len(subs))
	for i, a := range ProportionalAlloc(k, counts, caps) {
		subs[i].Alloc = a
		want := a
		for _, e := range subs[:i] {
			if e.Lo < subs[i].Hi && subs[i].Lo < e.Hi {
				want += e.Alloc
			}
		}
		reqs[i] = Request{Group: subs[i].Group, Want: want}
	}
	lists, err := fetch(ctx, reqs)
	if err != nil {
		return nil, err
	}

	claims := make([]Claimed[I], len(subs))
	seen := make(map[int]bool, k)
	// take claims ns's unseen images for c until it holds limit of them,
	// reporting how many it took.
	take := func(c *Claimed[I], ns []N, limit int) int {
		took := 0
		for _, n := range ns {
			if len(c.Images) >= limit {
				break
			}
			id, d, im := claim(n)
			if seen[id] {
				continue
			}
			seen[id] = true
			c.Images = append(c.Images, im)
			c.RankScore += d
			took++
		}
		return took
	}
	for i, s := range subs {
		claims[i].Group = s.Group
		take(&claims[i], lists[i], s.Alloc)
	}
	for deficit := k - len(seen); deficit > 0; {
		progressed := false
		for i, s := range subs {
			if deficit <= 0 {
				break
			}
			c := &claims[i]
			if len(c.Images) >= s.Cap {
				continue
			}
			reqs[0] = Request{Group: s.Group, Want: len(c.Images) + deficit + len(seen)}
			more, err := fetch(ctx, reqs[:1])
			if err != nil {
				return nil, err
			}
			if n := take(c, more[0], len(c.Images)+deficit); n > 0 {
				deficit -= n
				progressed = true
			}
		}
		if !progressed {
			break // every search area exhausted; fewer than k images exist
		}
	}
	sort.SliceStable(claims, func(i, j int) bool { return claims[i].RankScore < claims[j].RankScore })
	return claims, nil
}

// ProportionalAlloc distributes k result slots across subqueries
// proportionally to their relevant-image counts (§3.4): each group gets
// floor(k·count/total) slots but at least one, capped by its search-area
// capacity; leftovers are round-robined to groups that still have capacity;
// any overshoot (minimums exceeding k) is trimmed walking the group list
// from the back. counts[i] and caps[i] describe group i in final processing
// order; the caller guarantees len(counts) ≤ k and every count ≥ 1.
// All integer bookkeeping, so the allocation is bit-identical wherever it
// runs.
func ProportionalAlloc(k int, counts, caps []int) []int {
	n := len(counts)
	alloc := make([]int, n)
	totalRel := 0
	for _, c := range counts {
		totalRel += c
	}
	assigned := 0
	for i := range alloc {
		share := int(math.Floor(float64(k) * float64(counts[i]) / float64(totalRel)))
		if share < 1 {
			share = 1
		}
		if share > caps[i] {
			share = caps[i]
		}
		alloc[i] = share
		assigned += share
	}
	for moved := true; moved && assigned < k; {
		moved = false
		for i := range alloc {
			if assigned >= k {
				break
			}
			if alloc[i] < caps[i] {
				alloc[i]++
				assigned++
				moved = true
			}
		}
	}
	for i := 0; assigned > k; i = (i + 1) % n {
		j := n - 1 - i%n
		if alloc[j] > 1 {
			alloc[j]--
			assigned--
		}
	}
	return alloc
}

// Answer is a finalize outcome on wire-neutral types, global image IDs and
// node IDs: what the sharded and segmented backings return. Its groups are
// in ranking-score order, as a Result's are.
type Answer struct {
	Groups     []AnswerGroup
	Expansions int // subqueries the §3.3 boundary test widened
}

// AnswerGroup is one localized subquery's results. The segmented backing
// anchors no subquery at a tree node, so its node IDs are zero.
type AnswerGroup struct {
	NodeID       uint64
	SearchNodeID uint64
	QueryIDs     []int
	Images       []AnswerImage
	RankScore    float64
}

// Expanded reports whether the §3.3 boundary test widened the search area.
func (g *AnswerGroup) Expanded() bool { return g.SearchNodeID != g.NodeID }

// AnswerImage is one result image: its global ID, its distance to the
// group's query centroid, and the label the owning shard attached (empty
// where there is none).
type AnswerImage struct {
	ID    int
	Score float64
	Label string
}

// IDs returns the result image IDs in group order.
func (r *Answer) IDs() []int {
	var out []int
	for _, g := range r.Groups {
		for _, im := range g.Images {
			out = append(out, im.ID)
		}
	}
	return out
}
