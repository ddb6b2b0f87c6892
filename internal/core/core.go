// Package core implements the paper's primary contribution: the Query
// Decomposition (QD) model for relevance feedback in content-based image
// retrieval (§3).
//
// A Session tracks one user query. It starts with the representatives of the
// RFS root; every feedback round maps the images the user marked relevant to
// the child clusters they came from and splits the query into independent
// localized subqueries — a multi-path descent of the RFS hierarchy. No k-NN
// computation happens until Finalize, which runs one localized multipoint
// k-NN per final subcluster (expanding to the parent node when query images
// sit near the cluster boundary, §3.3), then merges the local results with
// allocation proportional to each subcluster's relevant count and ranks the
// groups by their summed similarity scores (§3.4).
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"sort"
	"time"

	"qdcbir/internal/disk"
	"qdcbir/internal/obs"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/vec"
)

// Config holds the engine parameters.
type Config struct {
	// BoundaryThreshold is the §3.3 ratio above which a localized query
	// expands to the parent node. The paper sets 0.4 for its 15,000-image
	// corpus.
	BoundaryThreshold float64
	// DisplayCount is how many candidate representatives one display round
	// shows (the prototype GUI shows 21, §4).
	DisplayCount int
	// Parallelism bounds the worker pool that runs the final localized
	// subqueries (<= 0 uses one worker per CPU). Results and simulated I/O
	// counts are identical at every setting: each subquery records its node
	// accesses privately and the traces are replayed into the session cache
	// in deterministic group order.
	Parallelism int
	// Observer receives telemetry (metrics and per-query trace spans) from
	// every session and query this engine runs. Nil — the default — disables
	// instrumentation entirely: the hot paths pay one nil-check and perform
	// no clock reads, no atomics, and no allocation. Results are identical
	// either way.
	Observer *obs.Observer
	// Quantized installs the SQ8 row filter on the structure's tree (see
	// rstar/quant.go), if it holds no leaf scorer yet: a popped leaf's 8-bit
	// code rows then decide which of its rows unweighted searches score
	// exactly. Results, node reads and page traces are the exact path's —
	// the filter only skips rows it proves are outside the answer. Weighted
	// searches (§6 feature importance) always use the exact path. A tree
	// over float32 rows holds the float32 scorer and takes no codes.
	Quantized bool
}

func (c Config) withDefaults() Config {
	if c.BoundaryThreshold <= 0 {
		c.BoundaryThreshold = 0.4
	}
	if c.DisplayCount <= 0 {
		c.DisplayCount = DefaultDisplayCount
	}
	return c
}

// Engine is the query processor over one RFS structure.
type Engine struct {
	rfs *rfs.Structure
	cfg Config
}

// NewEngine returns a QD engine over the structure. The tree's leaf scorer
// is fixed once installed: a tree over float32 rows holds the float32 scorer
// from construction, cfg.Quantized trains the SQ8 filter on a float64 tree
// (an archive restore installs one via AdoptQuantized first), and installing
// the scorer a tree already holds is a no-op, so engines sharing a structure
// share its scorer. The returned engine's Config reports whether the tree
// holds SQ8 codes, which is what its searches run. Like construction itself,
// installing requires exclusion against concurrent searches.
func NewEngine(s *rfs.Structure, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	tree := s.Tree()
	// Training fails on a corpus SQ8 cannot train (e.g. dimensionality past
	// its limit) and on a float32 tree, which keeps its scorer.
	if cfg.Quantized {
		_ = tree.TrainQuantized()
	}
	cfg.Quantized = tree.QuantizedScoring()
	return &Engine{rfs: s, cfg: cfg}
}

// RFS returns the engine's structure.
func (e *Engine) RFS() *rfs.Structure { return e.rfs }

// Config returns the engine configuration (with defaults applied).
func (e *Engine) Config() Config { return e.cfg }

// Candidate is one displayable representative image together with the
// frontier node it represents.
type Candidate = Shown[*rstar.Node, rstar.ItemID]

// Stats accumulates the session's simulated I/O, split the way the paper's
// scalability argument splits work: feedback processing (runs against the
// small representative set, client-side) versus the final localized k-NN
// (server-side).
type Stats struct {
	FeedbackReads uint64 // RFS node reads during display/descent
	FinalReads    uint64 // tree node reads during localized k-NN
	Expansions    int    // boundary expansions performed at Finalize
	Rounds        int    // feedback rounds processed
}

// Session is one user's relevance-feedback interaction with the engine: the
// round machine over the engine's RFS structure, finalized by the engine's
// own localized k-NN.
type Session struct {
	Machine[*rstar.Node, rstar.ItemID]
	eng *Engine
}

// NewSession starts a query session; the rng drives the random candidate
// displays.
func (e *Engine) NewSession(rng *rand.Rand) *Session {
	s := &Session{eng: e}
	s.init((*structure)(e.rfs), rng, e.cfg.DisplayCount)
	s.observe(e.cfg.Observer)
	return s
}

// RestoreSession reconstructs a session from an exported state (see
// RestoreMachine). Node IDs are resolved against this engine's structure, so
// the state must come from a replica of the same build.
func (e *Engine) RestoreSession(st *SessionState, rng *rand.Rand) (*Session, error) {
	s := &Session{eng: e}
	s.init((*structure)(e.rfs), rng, e.cfg.DisplayCount)
	if err := s.restore(st); err != nil {
		return nil, err
	}
	if err := s.SetFeatureWeights(s.weights); err != nil {
		return nil, err
	}
	s.observe(e.cfg.Observer)
	return s, nil
}

// SetFeatureWeights installs a per-dimension importance weighting (e.g.
// emphasizing the colour family) applied by the final localized k-NN — the
// user-defined feature-importance extension of §6. Pass nil to restore plain
// Euclidean scoring. Weights must be non-negative and match the corpus
// dimensionality; invalid weights are rejected.
func (s *Session) SetFeatureWeights(w vec.Vector) error {
	if err := vec.CheckWeights(w, len(s.eng.rfs.Point(0))); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if w == nil {
		s.weights = nil
		return nil
	}
	s.weights = w.Clone()
	return nil
}

// structure is the engine's RFS structure as a round machine's hierarchy.
type structure rfs.Structure

func (h *structure) rfs() *rfs.Structure { return (*rfs.Structure)(h) }

func (h *structure) Roots(dst []*rstar.Node) []*rstar.Node { return append(dst, h.rfs().Root()) }
func (h *structure) Reps(n *rstar.Node) []rstar.ItemID     { return h.rfs().Reps(n, nil) }
func (h *structure) Child(n *rstar.Node, id rstar.ItemID) (*rstar.Node, bool) {
	c := h.rfs().ChildContaining(n, id)
	return c, c != nil
}
func (h *structure) Leaf(n *rstar.Node) bool  { return n.IsLeaf() }
func (h *structure) Size(n *rstar.Node) int   { return h.rfs().SubtreeSize(n) }
func (h *structure) Key(n *rstar.Node) uint64 { return uint64(n.ID()) }
func (h *structure) Has(id rstar.ItemID) bool { return id >= 0 && int(id) < h.rfs().Len() }
func (h *structure) Node(key uint64) (*rstar.Node, bool) {
	n := h.rfs().NodeByID(disk.PageID(key))
	return n, n != nil
}

// ScoredImage is one result image with its similarity score (Euclidean
// distance to the local query centroid; smaller is more similar).
type ScoredImage struct {
	ID    rstar.ItemID
	Score float64
}

// Group is the result of one localized subquery.
type Group struct {
	// Node is the subcluster the subquery was anchored at (before boundary
	// expansion).
	Node *rstar.Node
	// SearchNode is the node actually searched after §3.3 expansion.
	SearchNode *rstar.Node
	// QueryIDs are the relevant images that formed the local multipoint
	// query.
	QueryIDs []rstar.ItemID
	// Images are the group's results, most similar first.
	Images []ScoredImage
	// RankScore is the sum of the group's similarity scores (§3.4).
	RankScore float64
}

// Result is a finalized query: per-subcluster groups ordered by RankScore.
type Result struct {
	Groups []Group
}

// Flat returns all result images in a single list ranked by individual
// similarity score — the presentation alternative §3.4 mentions.
func (r *Result) Flat() []ScoredImage {
	var out []ScoredImage
	for _, g := range r.Groups {
		out = append(out, g.Images...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score < out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// IDs returns the result image IDs in group order (groups by rank, images by
// score within each group) — the paper's grouped presentation flattened.
func (r *Result) IDs() []int {
	var out []int
	for _, g := range r.Groups {
		for _, im := range g.Images {
			out = append(out, int(im.ID))
		}
	}
	return out
}

// Finalize runs the final localized multipoint k-NN subqueries (§3.3) and
// merges their results (§3.4), returning k images in total. The session can
// still report Stats afterwards but accepts no further feedback.
func (s *Session) Finalize(k int) (*Result, error) {
	return s.FinalizeCtx(context.Background(), k)
}

// FinalizeCtx is Finalize with cancellation. A cancelled context aborts the
// localized k-NN subqueries mid-flight and no partial result is returned.
// Only a returned result consumes the session: after an error (an invalid k,
// a lapsed deadline) it is exactly as it was, so the call can be retried and
// the retry reports the reads and expansions of a first attempt.
func (s *Session) FinalizeCtx(ctx context.Context, k int) (*Result, error) {
	return Finalize(&s.Machine, k, func(relevant []rstar.ItemID, weights vec.Vector) (*Result, Stats, error) {
		var finalIO disk.Visited
		var st Stats
		res, err := finalizeGroups(ctx, s.eng, relevant, s.assign, k, weights, &finalIO, &st, s.trace)
		st.FinalReads = finalIO.Reads()
		return res, st, err
	})
}

// QueryByExamples runs the final localized query processing directly from a
// set of example (relevant) images, grouping them by their leaf subclusters —
// the server half of the paper's client/server split (§4): the client runs
// relevance feedback against its representative payload and submits only the
// final query images here. acc may be nil. The returned stats cover only this
// call.
func (e *Engine) QueryByExamples(relevant []rstar.ItemID, k int, weights vec.Vector, acc disk.Accounter) (*Result, Stats, error) {
	return e.QueryByExamplesCtx(context.Background(), relevant, k, weights, acc)
}

// QueryByExamplesCtx is QueryByExamples with cancellation: the localized
// subqueries poll ctx and abort early when it is done.
func (e *Engine) QueryByExamplesCtx(ctx context.Context, relevant []rstar.ItemID, k int, weights vec.Vector, acc disk.Accounter) (*Result, Stats, error) {
	var stats Stats
	if k <= 0 {
		return nil, stats, fmt.Errorf("core: invalid k=%d", k)
	}
	if len(relevant) == 0 {
		return nil, stats, errors.New("core: no example images given")
	}
	if err := vec.CheckWeights(weights, len(e.rfs.Point(0))); err != nil {
		return nil, stats, fmt.Errorf("core: %w", err)
	}
	assign := make(map[rstar.ItemID]*rstar.Node, len(relevant))
	var ids []rstar.ItemID
	seen := make(map[rstar.ItemID]bool, len(relevant))
	for _, id := range relevant {
		if seen[id] {
			continue
		}
		leaf := e.rfs.LeafOf(id)
		if leaf == nil {
			return nil, stats, fmt.Errorf("core: unknown image %d", id)
		}
		seen[id] = true
		assign[id] = leaf
		ids = append(ids, id)
	}
	if acc == nil {
		acc = new(disk.Visited)
	}
	var t *obs.Trace
	if o := e.cfg.Observer; o != nil {
		t = o.StartTrace("query")
		t.SetLabel(obs.TraceLabelFromContext(ctx))
	}
	before := acc.Reads()
	res, err := finalizeGroups(ctx, e, ids, assign, k, weights, acc, &stats, t)
	stats.FinalReads = acc.Reads() - before
	return res, stats, err
}

// finalizeGroups is the single-node backing of the final round, behind
// Session.Finalize and Engine.QueryByExamples: it groups the query panel by
// subcluster, resolves each subquery's search area and answers FinalRound's
// searches from the tree.
func finalizeGroups(ctx context.Context, eng *Engine, relevant []rstar.ItemID, assign map[rstar.ItemID]*rstar.Node, k int, weights vec.Vector, finalIO disk.Accounter, stats *Stats, trace *obs.Trace) (*Result, error) {
	o := eng.cfg.Observer
	var t0 time.Time
	var offsetNS int64
	var readsBefore uint64
	expBefore := stats.Expansions
	if o != nil {
		offsetNS = trace.SinceStart()
		t0 = time.Now()
		readsBefore = finalIO.Reads()
	}
	// Group the query panel by assigned subcluster: "a localized multipoint
	// query is computed for each subset of relevant images belonging to a
	// given subcluster" (§3.3).
	type local struct {
		node, search *rstar.Node
		ids          []rstar.ItemID
		centroid     vec.Vector
	}
	// The first pass numbers the groups in marking order, so the second
	// fills slices of the exact size (finalize's allocations are gated by
	// TestSessionAllocationGates).
	byNode := make(map[disk.PageID]int)
	for _, id := range relevant {
		if n := assign[id]; n != nil {
			if _, ok := byNode[n.ID()]; !ok {
				byNode[n.ID()] = len(byNode)
			}
		}
	}
	if len(byNode) == 0 {
		return nil, errors.New("core: no relevant image lies under the current frontier")
	}
	locals := make([]local, len(byNode))
	subs := make([]Subquery, len(byNode))
	for _, id := range relevant {
		n := assign[id]
		if n == nil {
			continue
		}
		g := byNode[n.ID()]
		l := &locals[g]
		l.node = n
		l.ids = append(l.ids, id)
		subs[g] = Subquery{Group: g, Count: len(l.ids), Key: uint64(n.ID())}
	}
	subs = OrderSubqueries(subs, k)

	// Resolve each subquery's search area (§3.3 boundary test: expand while
	// any local query image sits near its node's boundary), which caps how
	// many images the subquery can supply.
	for i := range subs {
		l := &locals[subs[i].Group]
		qpts := make([]vec.Vector, len(l.ids))
		for j, id := range l.ids {
			qpts[j] = eng.rfs.Point(id)
		}
		l.search = eng.rfs.ExpandForQuery(l.node, qpts, eng.cfg.BoundaryThreshold)
		if l.search != l.node {
			stats.Expansions++
		}
		l.centroid = vec.Centroid(qpts)
		subs[i].Cap = eng.rfs.SubtreeSize(l.search)
		subs[i].Lo, subs[i].Hi = l.search.Rows()
	}

	// Every fetch answers its requests on the engine's worker pool, one
	// KNNSearch per request. The first fetch's subqueries each record their
	// node accesses in a private trace; the traces are then replayed into
	// finalIO in final order, so results AND simulated I/O counts are
	// identical at every Parallelism setting. A top-up search reports
	// straight into finalIO. Per-subquery state is indexed by group: a group
	// has one subquery.
	recorders := make([]disk.Recorder, len(locals))
	var sqStats []rstar.SearchStats
	var sqDur, sqOff []int64
	if o != nil {
		sqStats = make([]rstar.SearchStats, len(locals))
		sqDur = make([]int64, len(locals))
		sqOff = make([]int64, len(locals))
	}
	var mergeStart time.Time
	var mergeOffsetNS int64
	var topupStats rstar.SearchStats
	var topupSt *rstar.SearchStats
	tree := eng.rfs.Tree()
	first := true
	each := FetchEach(eng.cfg.Parallelism, func(ctx context.Context, r Request) ([]rstar.Neighbor, error) {
		l, g := &locals[r.Group], r.Group
		if !first {
			return tree.KNNSearch(ctx, l.search, weights, rstar.Query{Q: l.centroid, K: r.Want, Acc: finalIO, Stats: topupSt})
		}
		q := rstar.Query{Q: l.centroid, K: r.Want, Acc: &recorders[g]}
		if o == nil {
			return tree.KNNSearch(ctx, l.search, weights, q)
		}
		q.Stats = &sqStats[g]
		sqOff[g] = trace.SinceStart()
		start := time.Now()
		ns, err := tree.KNNSearch(ctx, l.search, weights, q)
		sqDur[g] = time.Since(start).Nanoseconds()
		return ns, err
	})
	fetch := func(ctx context.Context, reqs []Request) ([][]rstar.Neighbor, error) {
		if !first {
			return each(ctx, reqs)
		}
		var lists [][]rstar.Neighbor
		var err error
		if o != nil {
			// Tag the subquery pool so CPU profiles attribute samples to the
			// finalize fan-out. pprof.Do costs a goroutine-label swap, so it is
			// gated on the observer like every other instrumentation point.
			pprof.Do(ctx, pprof.Labels("phase", "subquery"), func(context.Context) {
				lists, err = each(ctx, reqs)
			})
		} else {
			lists, err = each(ctx, reqs)
		}
		if err != nil {
			return nil, err
		}
		first = false
		if o != nil {
			mergeOffsetNS = trace.SinceStart()
			mergeStart = time.Now()
			topupSt = &topupStats
		}
		for _, r := range reqs {
			recorders[r.Group].Replay(finalIO)
		}
		return lists, nil
	}
	claims, err := FinalRound(ctx, k, subs, fetch, func(n rstar.Neighbor) (int, float64, ScoredImage) {
		return int(n.ID), n.Dist, ScoredImage{ID: n.ID, Score: n.Dist}
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Groups: make([]Group, len(claims))}
	for i, c := range claims {
		l := &locals[c.Group]
		res.Groups[i] = Group{Node: l.node, SearchNode: l.search, QueryIDs: l.ids, Images: c.Images, RankScore: c.RankScore}
	}
	if o != nil {
		span := obs.FinalizeSpan{
			K:               k,
			OffsetNS:        offsetNS,
			Subqueries:      len(subs),
			Expansions:      stats.Expansions - expBefore,
			PageReads:       finalIO.Reads() - readsBefore,
			HeapPops:        topupStats.HeapPops,
			RerankFallbacks: topupStats.RerankFallbacks,
			MergeOffsetNS:   mergeOffsetNS,
			MergeNS:         time.Since(mergeStart).Nanoseconds(),
			DurationNS:      time.Since(t0).Nanoseconds(),
		}
		for _, sq := range subs {
			g := sq.Group
			l, st := &locals[g], &sqStats[g]
			span.HeapPops += st.HeapPops
			span.RerankFallbacks += st.RerankFallbacks
			span.Subspans = append(span.Subspans, obs.SubquerySpan{
				Node:            uint64(l.node.ID()),
				OffsetNS:        sqOff[g],
				QueryImages:     len(l.ids),
				Allocated:       sq.Alloc,
				Expanded:        l.search != l.node,
				HeapPops:        st.HeapPops,
				NodesRead:       st.NodesRead,
				PageAccesses:    uint64(len(recorders[g].Trace())),
				Quantized:       st.CodesScanned > 0,
				CodesScanned:    st.CodesScanned,
				Reranked:        st.Reranked,
				RerankFallbacks: st.RerankFallbacks,
				DurationNS:      sqDur[g],
			})
		}
		o.FinalizeDone(trace, span)
	}
	return res, nil
}
