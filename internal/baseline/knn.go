package baseline

import (
	"context"

	"qdcbir/internal/disk"
	"qdcbir/internal/rstar"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// PlainKNN is the naive baseline: a fixed query point, no feedback learning.
// It is the k-NN model in its purest form — the technique whose single-
// neighborhood confinement motivates the whole paper (§1.1).
type PlainKNN struct {
	st    *store.FeatureStore
	query vec.Vector
}

// NewPlainKNN builds the baseline over the corpus feature store with the
// given query image as the fixed query point.
func NewPlainKNN(st *store.FeatureStore, queryImage int) *PlainKNN {
	return &PlainKNN{st: st, query: st.At(queryImage).Clone()}
}

// Name implements FeedbackRetriever.
func (p *PlainKNN) Name() string { return "kNN" }

// Search returns the top-k nearest images to the fixed query point.
func (p *PlainKNN) Search(k int) []int {
	return scanTopK(p.st, k, p.query, nil)
}

// Feedback is a no-op: plain k-NN does not learn.
func (p *PlainKNN) Feedback([]int) {}

// QPM implements Query Point Movement (§2, [7] MindReader): after each round
// the query point moves to the centroid of all relevant images and the
// distance metric is re-weighted per dimension by the inverse variance of the
// relevant set, tightening the query contour along dimensions the relevant
// images agree on.
type QPM struct {
	st       *store.FeatureStore
	query    vec.Vector
	weights  vec.Vector
	relevant []int
	relSet   map[int]bool
}

// NewQPM builds the baseline with the given initial query image.
func NewQPM(st *store.FeatureStore, queryImage int) *QPM {
	w := make(vec.Vector, st.Dim())
	for i := range w {
		w[i] = 1
	}
	return &QPM{
		st:      st,
		query:   st.At(queryImage).Clone(),
		weights: w,
		relSet:  make(map[int]bool),
	}
}

// Name implements FeedbackRetriever.
func (q *QPM) Name() string { return "QPM" }

// Search returns the top-k images under the current weighted query.
func (q *QPM) Search(k int) []int {
	return scanTopK(q.st, k, q.query, q.weights)
}

// Feedback moves the query point and re-weights the metric.
func (q *QPM) Feedback(relevant []int) {
	for _, id := range relevant {
		if id >= 0 && id < q.st.Len() && !q.relSet[id] {
			q.relSet[id] = true
			q.relevant = append(q.relevant, id)
		}
	}
	pts := gatherPoints(q.st, q.relevant)
	if len(pts) == 0 {
		return
	}
	q.query = vec.Centroid(pts)
	if len(pts) >= 2 {
		// MindReader weighting: emphasize low-variance dimensions. The eps
		// guard keeps agreed-constant dimensions finite.
		q.weights = vec.ComputeStats(pts).InverseVariance(1e-4)
		// Normalize so weight magnitudes stay comparable across rounds.
		var sum float64
		for _, w := range q.weights {
			sum += w
		}
		q.weights.ScaleInPlace(float64(len(q.weights)) / sum)
	}
}

// TreeKNN is a global k-NN retriever backed by the R*-tree with QPM-style
// feedback. The efficiency experiments use it to price "traditional relevance
// feedback processing based on a series of global k-NN computation" (§1.2)
// with honest index-assisted I/O counts rather than linear-scan costs.
type TreeKNN struct {
	tree    *rstar.Tree
	st      *store.FeatureStore
	query   vec.Vector
	weights vec.Vector
	rel     []int
	relSet  map[int]bool
	acc     disk.Accounter
}

// NewTreeKNN builds the retriever. acc may be nil to disable I/O accounting.
func NewTreeKNN(tree *rstar.Tree, st *store.FeatureStore, queryImage int, acc disk.Accounter) *TreeKNN {
	w := make(vec.Vector, st.Dim())
	for i := range w {
		w[i] = 1
	}
	return &TreeKNN{
		tree:    tree,
		st:      st,
		query:   st.At(queryImage).Clone(),
		weights: w,
		relSet:  make(map[int]bool),
		acc:     acc,
	}
}

// Name implements FeedbackRetriever.
func (t *TreeKNN) Name() string { return "TreeKNN" }

// Search runs a weighted global k-NN through the index.
func (t *TreeKNN) Search(k int) []int {
	// The error can only be the context's, and Background never cancels.
	ns, _ := t.tree.KNNOne(context.Background(), t.tree.Root(), t.weights, t.query, k, t.acc, nil)
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = int(n.ID)
	}
	return out
}

// Feedback applies the QPM update.
func (t *TreeKNN) Feedback(relevant []int) {
	for _, id := range relevant {
		if id >= 0 && id < t.st.Len() && !t.relSet[id] {
			t.relSet[id] = true
			t.rel = append(t.rel, id)
		}
	}
	pts := gatherPoints(t.st, t.rel)
	if len(pts) == 0 {
		return
	}
	t.query = vec.Centroid(pts)
	if len(pts) >= 2 {
		t.weights = vec.ComputeStats(pts).InverseVariance(1e-4)
		var sum float64
		for _, w := range t.weights {
			sum += w
		}
		t.weights.ScaleInPlace(float64(len(t.weights)) / sum)
	}
}
