package qdcbir

import (
	"context"
	"fmt"

	"qdcbir/internal/core"
	"qdcbir/internal/feature"
	"qdcbir/internal/rstar"
	"qdcbir/internal/vec"
)

// Session is one relevance-feedback interaction following the paper's
// protocol: browse representative images, mark the relevant ones, repeat —
// the query silently decomposes into localized subqueries — then Finalize
// runs the localized k-NN subqueries and merges their results.
type Session struct {
	sys     *System
	inner   *core.Session
	weights vec.Vector // accumulated family multipliers, lazily initialized
}

// Candidate is one displayable representative image.
type Candidate struct {
	// ID is the image.
	ID int
	// Subconcept is the ground-truth label (synthetic corpora ship labels;
	// a real deployment would render the image instead).
	Subconcept string
}

// Candidates returns the next display of representative images, drawn from
// the current subquery frontier. Call repeatedly to browse (the prototype's
// "Random" button).
func (s *Session) Candidates() []Candidate {
	cands := s.inner.Candidates()
	out := make([]Candidate, len(cands))
	for i, c := range cands {
		out[i] = Candidate{ID: int(c.ID), Subconcept: s.sys.corpus.SubconceptOf(int(c.ID))}
	}
	return out
}

// Feedback marks previously displayed images as relevant. Each mark refines
// the query: the subquery that displayed it descends to the child cluster
// the image came from, splitting the query across clusters as needed.
func (s *Session) Feedback(relevant []int) error {
	ids := make([]rstar.ItemID, len(relevant))
	for i, id := range relevant {
		ids[i] = rstar.ItemID(id)
	}
	return s.inner.Feedback(ids)
}

// Retract removes previously marked images from the query (users change
// their minds; the prototype's interface lets them drag images back out of
// the query panel). Subqueries kept alive only by retracted marks are
// discarded.
func (s *Session) Retract(ids []int) {
	conv := make([]rstar.ItemID, len(ids))
	for i, id := range ids {
		conv[i] = rstar.ItemID(id)
	}
	s.inner.Retract(conv)
}

// WeightFamily applies a user-defined importance multiplier to one feature
// family — the paper's §6 extension ("the user may define color as the most
// important feature"). Multipliers compose across calls; the weighting
// affects the final localized k-NN scoring.
func (s *Session) WeightFamily(family FeatureFamily, multiplier float64) error {
	if multiplier < 0 {
		return fmt.Errorf("qdcbir: negative multiplier %v", multiplier)
	}
	if s.weights == nil {
		s.weights = make(vec.Vector, feature.Dim)
		for i := range s.weights {
			s.weights[i] = 1
		}
	}
	lo, hi := feature.Family(family).Range()
	for i := lo; i < hi; i++ {
		s.weights[i] *= multiplier
	}
	return s.inner.SetFeatureWeights(s.weights)
}

// FeatureFamily selects one of the three visual feature groups for
// WeightFamily.
type FeatureFamily int

// The three feature families of the 37-d vector.
const (
	FamilyColor   = FeatureFamily(feature.FamilyColor)
	FamilyTexture = FeatureFamily(feature.FamilyTexture)
	FamilyEdge    = FeatureFamily(feature.FamilyEdge)
)

// Subqueries returns the number of active localized subqueries (the frontier
// width).
func (s *Session) Subqueries() int { return len(s.inner.Frontier()) }

// Relevant returns all images marked so far.
func (s *Session) Relevant() []int {
	rel := s.inner.Relevant()
	out := make([]int, len(rel))
	for i, id := range rel {
		out[i] = int(id)
	}
	return out
}

// Group is the result of one localized subquery.
type Group struct {
	// Label names the group by the dominant subconcept of its query images
	// (the paper refers to clusters by their representative's semantics).
	Label string
	// QueryImages are the relevant marks that formed the local query.
	QueryImages []int
	// Images are the group's results, most similar first.
	Images []Scored
	// RankScore is the sum of the group's similarity scores; groups are
	// presented in ascending RankScore order (§3.4).
	RankScore float64
	// Expanded reports whether the §3.3 boundary test widened the search to
	// a parent cluster.
	Expanded bool
}

// Result is a finalized query.
type Result struct {
	Groups []Group
}

// Finalize runs the final localized multipoint k-NN subqueries and merges
// their results into k images total, allocated to subqueries proportionally
// to their relevant counts. The session accepts no further feedback.
func (s *Session) Finalize(k int) (*Result, error) {
	return s.FinalizeContext(context.Background(), k)
}

// FinalizeContext is Finalize with cancellation: the localized k-NN
// subqueries poll ctx and abort early when it is done. Only a returned result
// consumes the session; after an error the call can be retried.
func (s *Session) FinalizeContext(ctx context.Context, k int) (*Result, error) {
	res, err := s.inner.FinalizeCtx(ctx, k)
	if err != nil {
		return nil, err
	}
	out := &Result{}
	for _, g := range res.Groups {
		grp := Group{
			RankScore: g.RankScore,
			Expanded:  g.SearchNode != g.Node,
		}
		counts := map[string]int{}
		for _, id := range g.QueryIDs {
			grp.QueryImages = append(grp.QueryImages, int(id))
			counts[s.sys.corpus.SubconceptOf(int(id))]++
		}
		best, bestN := "", 0
		for sub, n := range counts {
			if n > bestN || (n == bestN && sub < best) {
				best, bestN = sub, n
			}
		}
		grp.Label = best
		for _, im := range g.Images {
			grp.Images = append(grp.Images, Scored{ID: int(im.ID), Score: im.Score})
		}
		out.Groups = append(out.Groups, grp)
	}
	return out, nil
}

// Stats reports the session's simulated I/O cost, split as the paper's
// scalability argument splits it: feedback processing (client-side, touches
// only representatives) vs the final localized k-NN (server-side).
type Stats struct {
	FeedbackReads uint64
	FinalReads    uint64
	Expansions    int
	Rounds        int
}

// Stats returns the session's accumulated statistics.
func (s *Session) Stats() Stats {
	st := s.inner.Stats()
	return Stats{
		FeedbackReads: st.FeedbackReads,
		FinalReads:    st.FinalReads,
		Expansions:    st.Expansions,
		Rounds:        st.Rounds,
	}
}

// IDs returns the result image IDs in presentation order (groups by rank,
// images by score).
func (r *Result) IDs() []int {
	var out []int
	for _, g := range r.Groups {
		for _, im := range g.Images {
			out = append(out, im.ID)
		}
	}
	return out
}

// Flat returns all result images as one list ranked by similarity score.
func (r *Result) Flat() []Scored {
	var out []Scored
	for _, g := range r.Groups {
		out = append(out, g.Images...)
	}
	// Insertion sort keeps this dependency-free; result sets are small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].Score < out[j-1].Score ||
			(out[j].Score == out[j-1].Score && out[j].ID < out[j-1].ID)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
