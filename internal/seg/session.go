package seg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"qdcbir/internal/core"
	"qdcbir/internal/rstar"
	"qdcbir/internal/vec"
)

// ErrFinalized is returned when a session is used after Finalize.
var ErrFinalized = errors.New("seg: session already finalized")

// segNode addresses one subquery anchor: a node inside one sealed
// segment's tree.
type segNode struct {
	seg  int
	node *rstar.Node
}

// Candidate is one displayed representative.
type Candidate struct {
	ID int // global image ID
}

// Session is a snapshot-pinned interactive feedback session: the browsing
// frontier, the relevant-image panel, and every query run against the
// snapshot acquired at NewSession — concurrent inserts, deletes, seals,
// and compactions are invisible for the session's whole life. Call
// Release when done (Finalize does not release; a finalized session can
// still be inspected).
//
// The frontier is per-segment: each sealed segment contributes its own
// R*-tree descent, exactly as the monolithic session descends its single
// tree. Memtable rows are not browsable — they become visible to the
// feedback loop once sealed — but corpus-wide subqueries (Finalize) always
// see them.
type Session struct {
	snap *Snapshot
	rng  *rand.Rand

	frontier  []segNode
	relSet    map[int]bool
	relevant  []int
	assign    map[int]segNode
	displayed map[int]segNode
	cursors   map[segCursorKey]*displayCursor
	weights   vec.Vector
	rounds    int
	finalized bool
	released  bool
}

type segCursorKey struct {
	seg    int
	nodeID uint64
}

type displayCursor struct {
	order []rstar.ItemID
	pos   int
}

// NewSession pins the current snapshot and starts a feedback session
// browsing every sealed segment's root.
func (db *DB) NewSession(rng *rand.Rand) *Session {
	snap := db.Acquire()
	s := &Session{
		snap:      snap,
		rng:       rng,
		relSet:    make(map[int]bool),
		displayed: make(map[int]segNode),
	}
	for i, sv := range snap.segs {
		if root := sv.seg.rfs.Root(); root != nil {
			s.frontier = append(s.frontier, segNode{seg: i, node: root})
		}
	}
	return s
}

// Snapshot returns the session's pinned snapshot.
func (s *Session) Snapshot() *Snapshot { return s.snap }

// Relevant returns the marked panel (shared; do not modify).
func (s *Session) Relevant() []int { return s.relevant }

// Rounds returns the number of feedback rounds processed.
func (s *Session) Rounds() int { return s.rounds }

// Subqueries returns the current frontier size — the number of localized
// (segment, node) neighborhoods the next display draws from.
func (s *Session) Subqueries() int { return len(s.frontier) }

// Release drops the snapshot pin. Idempotent.
func (s *Session) Release() {
	if !s.released {
		s.released = true
		s.snap.Release()
	}
}

// SetFeatureWeights installs the §6 per-dimension weighting used by
// Finalize; nil restores plain Euclidean scoring.
func (s *Session) SetFeatureWeights(w vec.Vector) error {
	if err := vec.CheckWeights(w, s.snap.db.cfg.Dim); err != nil {
		return fmt.Errorf("seg: %w", err)
	}
	if w == nil {
		s.weights = nil
		return nil
	}
	s.weights = w.Clone()
	return nil
}

// Candidates draws up to limit representatives across the frontier,
// sampling each (segment, node) pool proportionally to its live
// representative count — the multi-segment analogue of the monolithic
// proportional browse. Tombstoned images never appear.
func (s *Session) Candidates(limit int) []Candidate {
	if limit <= 0 || s.finalized {
		return nil
	}
	type pool struct {
		sn   segNode
		reps []rstar.ItemID // local IDs, tombstones filtered
	}
	var pools []pool
	total := 0
	for _, sn := range s.frontier {
		sv := s.snap.segs[sn.seg]
		raw := sv.seg.rfs.Reps(sn.node, nil)
		var reps []rstar.ItemID
		for _, id := range raw {
			if !sv.tomb.Get(int(id)) {
				reps = append(reps, id)
			}
		}
		if len(reps) == 0 {
			continue
		}
		pools = append(pools, pool{sn: sn, reps: reps})
		total += len(reps)
	}
	if total == 0 {
		return nil
	}
	var out []Candidate
	record := func(sn segNode, local rstar.ItemID) {
		gid := s.snap.segs[sn.seg].seg.ids[int(local)]
		out = append(out, Candidate{ID: gid})
		s.displayed[gid] = sn
	}
	if total <= limit {
		for _, p := range pools {
			for _, id := range p.reps {
				record(p.sn, id)
			}
		}
		return out
	}
	remaining := limit
	for i, p := range pools {
		share := int(math.Round(float64(limit) * float64(len(p.reps)) / float64(total)))
		if share < 1 {
			share = 1
		}
		if i == len(pools)-1 {
			share = remaining
		}
		if share > len(p.reps) {
			share = len(p.reps)
		}
		if share > remaining {
			share = remaining
		}
		for _, id := range s.take(p.sn, p.reps, share) {
			record(p.sn, id)
		}
		remaining -= share
		if remaining <= 0 {
			break
		}
	}
	return out
}

// take pages through one pool's representatives in a shuffled order
// without repetition, reshuffling once exhausted (see the monolithic
// displayCursor).
func (s *Session) take(sn segNode, reps []rstar.ItemID, n int) []rstar.ItemID {
	if s.cursors == nil {
		s.cursors = make(map[segCursorKey]*displayCursor)
	}
	key := segCursorKey{seg: sn.seg, nodeID: uint64(sn.node.ID())}
	cur, ok := s.cursors[key]
	if !ok || len(cur.order) != len(reps) {
		cur = &displayCursor{order: append([]rstar.ItemID(nil), reps...)}
		s.rng.Shuffle(len(cur.order), func(i, j int) { cur.order[i], cur.order[j] = cur.order[j], cur.order[i] })
		s.cursors[key] = cur
	}
	out := make([]rstar.ItemID, 0, n)
	for len(out) < n {
		if cur.pos >= len(cur.order) {
			s.rng.Shuffle(len(cur.order), func(i, j int) { cur.order[i], cur.order[j] = cur.order[j], cur.order[i] })
			cur.pos = 0
		}
		out = append(out, cur.order[cur.pos])
		cur.pos++
		if len(out) >= len(cur.order) {
			break
		}
	}
	return out
}

// Feedback processes one round of relevance feedback. Marked images must
// have been displayed; each one's subquery descends one level toward its
// leaf within its own segment's tree (§3.2), and the frontier becomes the
// distinct (segment, subcluster) set currently assigned.
func (s *Session) Feedback(marked []int) error {
	if s.finalized {
		return ErrFinalized
	}
	if s.assign == nil {
		s.assign = make(map[int]segNode)
	}
	s.rounds++
	for _, gid := range marked {
		sn, ok := s.displayed[gid]
		if !ok {
			return fmt.Errorf("seg: image %d was not displayed", gid)
		}
		if !s.relSet[gid] {
			s.relSet[gid] = true
			s.relevant = append(s.relevant, gid)
		}
		sv := s.snap.segs[sn.seg]
		local := rstar.ItemID(sv.seg.localOf(gid))
		child := sv.seg.rfs.ChildContaining(sn.node, local)
		if child == nil {
			child = sn.node
		}
		if cur, ok := s.assign[gid]; !ok || (sn.seg == cur.seg && sv.seg.rfs.SubtreeSize(child) < sv.seg.rfs.SubtreeSize(cur.node)) {
			s.assign[gid] = segNode{seg: sn.seg, node: child}
		}
	}
	for _, gid := range s.relevant {
		sn := s.assign[gid]
		if sn.node == nil || sn.node.IsLeaf() {
			continue
		}
		sv := s.snap.segs[sn.seg]
		local := rstar.ItemID(sv.seg.localOf(gid))
		if child := sv.seg.rfs.ChildContaining(sn.node, local); child != nil {
			s.assign[gid] = segNode{seg: sn.seg, node: child}
		}
	}
	s.rebuildFrontier()
	return nil
}

func (s *Session) rebuildFrontier() {
	if len(s.assign) == 0 {
		s.frontier = s.frontier[:0]
		for i, sv := range s.snap.segs {
			if root := sv.seg.rfs.Root(); root != nil {
				s.frontier = append(s.frontier, segNode{seg: i, node: root})
			}
		}
		return
	}
	type key struct {
		seg    int
		nodeID uint64
	}
	next := make(map[key]segNode, len(s.assign))
	for _, sn := range s.assign {
		next[key{sn.seg, uint64(sn.node.ID())}] = sn
	}
	s.frontier = s.frontier[:0]
	for _, sn := range next {
		s.frontier = append(s.frontier, sn)
	}
	sort.Slice(s.frontier, func(i, j int) bool {
		if s.frontier[i].seg != s.frontier[j].seg {
			return s.frontier[i].seg < s.frontier[j].seg
		}
		return s.frontier[i].node.ID() < s.frontier[j].node.ID()
	})
}

// SessionState is the wire-portable slice of a dynamic session: everything
// Finalize needs (the relevant panel and feature weights) plus the round
// count. Snapshot pins and per-segment frontier nodes are process-local —
// segment identity changes under sealing and compaction — so a restored
// session re-pins the restoring process's CURRENT snapshot and resumes
// browsing from the segment roots; the finalize answer is preserved exactly
// because FinalizeCtx derives everything from the panel and weights.
type SessionState struct {
	Relevant []int     `json:"relevant,omitempty"`
	Weights  []float64 `json:"weights,omitempty"`
	Rounds   int       `json:"rounds"`
}

// ExportState snapshots the session for transport. The session remains
// usable; the state shares nothing with it.
func (s *Session) ExportState() *SessionState {
	st := &SessionState{
		Relevant: append([]int(nil), s.relevant...),
		Rounds:   s.rounds,
	}
	if s.weights != nil {
		st.Weights = append([]float64(nil), s.weights...)
	}
	return st
}

// RestoreSession resumes an exported session over the current snapshot.
// Every relevant image must be live in that snapshot (an image inserted
// after the export is fine; a tombstoned one is not).
func (db *DB) RestoreSession(st *SessionState, rng *rand.Rand) (*Session, error) {
	s := db.NewSession(rng)
	if st.Weights != nil {
		if err := s.SetFeatureWeights(vec.Vector(st.Weights)); err != nil {
			s.Release()
			return nil, err
		}
	}
	for _, gid := range st.Relevant {
		if _, ok := s.snap.VectorOf(gid); !ok {
			s.Release()
			return nil, fmt.Errorf("seg: relevant image %d is not live in the current snapshot", gid)
		}
		if !s.relSet[gid] {
			s.relSet[gid] = true
			s.relevant = append(s.relevant, gid)
		}
	}
	s.rounds = st.Rounds
	return s, nil
}

// FinalizeCtx runs the final corpus-wide decomposition round over the
// pinned snapshot (QueryByExamplesCtx) with the session's panel and
// weights. The session stops accepting feedback afterwards but stays
// pinned until Release.
func (s *Session) FinalizeCtx(ctx context.Context, k int) (*core.Answer, error) {
	if s.finalized {
		return nil, ErrFinalized
	}
	if len(s.relevant) == 0 {
		return nil, errors.New("seg: no relevant images marked")
	}
	res, err := s.snap.QueryByExamplesCtx(ctx, s.relevant, k, s.weights)
	if err != nil {
		return nil, err
	}
	s.finalized = true
	return res, nil
}
