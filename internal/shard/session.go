package shard

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"qdcbir/internal/core"
)

// ErrFinalized mirrors core.ErrFinalized for shard-hosted sessions.
var ErrFinalized = errors.New("shard: session already finalized")

// Session is a feedback session hosted on a shard replica. It runs the §3.2
// display/descent protocol over the full single-node topology — candidate
// pools, proportional display allocation, per-mark child descent, frontier
// maintenance — transcribed step for step from core.Session, so a shard
// session with the same seed shows the same candidates and reaches the same
// panel state as the single-node engine would. What a shard session cannot do
// alone is Finalize: the final localized k-NN needs every shard's rows, so
// the session exports its state (core.SessionState, the shared wire format)
// and a router runs FinalizeScatter over the fleet.
type Session struct {
	topo         *Topology
	rng          *rand.Rand
	displayCount int

	frontier  []int // topology node indices, sorted by node ID
	relevant  []int // marking order
	relSet    map[int]bool
	assign    map[int]int // image -> assigned node index
	displayed map[int]int // image -> displaying frontier node index
	cursors   map[uint64]*shardCursor
	weights   []float64

	rounds    int
	finalized bool
	// Simulated feedback I/O, mirroring core's session-lifetime page cache:
	// one read per distinct node touched.
	pages map[uint64]bool
	reads uint64
	// Counters carried over from a restored state's earlier life.
	baseFeedbackReads uint64
	baseFinalReads    uint64
	baseExpansions    int
}

// NewSession starts a session over the topology. displayCount <= 0 uses the
// archive's configured value at the server layer; here it must be positive.
func NewSession(topo *Topology, rng *rand.Rand, displayCount int) *Session {
	return &Session{
		topo:         topo,
		rng:          rng,
		displayCount: displayCount,
		frontier:     []int{topo.Root()},
		relSet:       make(map[int]bool),
		pages:        make(map[uint64]bool),
	}
}

func (s *Session) access(nodeID uint64) {
	if !s.pages[nodeID] {
		s.pages[nodeID] = true
		s.reads++
	}
}

// Relevant returns the images marked relevant so far (shared; do not modify).
func (s *Session) Relevant() []int { return s.relevant }

// Subqueries returns the number of active localized subqueries.
func (s *Session) Subqueries() int { return len(s.frontier) }

// Rounds returns the feedback rounds processed.
func (s *Session) Rounds() int { return s.rounds }

// Finalized reports whether the session's state has been consumed by a
// distributed finalize.
func (s *Session) Finalized() bool { return s.finalized }

// Candidates draws up to displayCount representatives across the frontier,
// transcribing core.Session.Candidates: proportional pool shares
// (math.Round, minimum one, remainder to the last pool) and a shuffled
// without-replacement cursor per node. Equal seeds yield the display
// sequence the single-node session shows.
func (s *Session) Candidates() []int {
	limit := s.displayCount
	type pool struct {
		node int
		reps []int
	}
	var pools []pool
	total := 0
	for _, n := range s.frontier {
		s.access(s.topo.Nodes[n].ID)
		reps := s.topo.Nodes[n].Reps
		if len(reps) == 0 {
			continue
		}
		pools = append(pools, pool{node: n, reps: reps})
		total += len(reps)
	}
	if total == 0 {
		return nil
	}
	if s.displayed == nil {
		s.displayed = make(map[int]int)
	}
	type out struct {
		id   int
		node int
	}
	var outs []out
	if total <= limit {
		for _, p := range pools {
			for _, id := range p.reps {
				outs = append(outs, out{id: id, node: p.node})
			}
		}
	} else {
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
			for _, id := range s.take(s.topo.Nodes[p.node].ID, p.reps, share) {
				outs = append(outs, out{id: id, node: p.node})
			}
			remaining -= share
			if remaining <= 0 {
				break
			}
		}
	}
	ids := make([]int, len(outs))
	for i, o := range outs {
		s.displayed[o.id] = o.node
		ids[i] = o.id
	}
	return ids
}

type shardCursor struct {
	order []int
	pos   int
}

func (s *Session) take(nodeID uint64, reps []int, n int) []int {
	if s.cursors == nil {
		s.cursors = make(map[uint64]*shardCursor)
	}
	cur, ok := s.cursors[nodeID]
	if !ok || len(cur.order) != len(reps) {
		cur = &shardCursor{order: append([]int(nil), reps...)}
		s.rng.Shuffle(len(cur.order), func(i, j int) { cur.order[i], cur.order[j] = cur.order[j], cur.order[i] })
		s.cursors[nodeID] = cur
	}
	out := make([]int, 0, n)
	for len(out) < n {
		if cur.pos >= len(cur.order) {
			s.rng.Shuffle(len(cur.order), func(i, j int) { cur.order[i], cur.order[j] = cur.order[j], cur.order[i] })
			cur.pos = 0
		}
		out = append(out, cur.order[cur.pos])
		cur.pos++
		if len(out) >= len(cur.order) {
			break // pool smaller than the request: one full pass is enough
		}
	}
	return out
}

// Feedback processes one round of relevance feedback, transcribing
// core.Session.Feedback: new marks join the panel at the displaying node's
// child containing them (with the deeper-assignment regression guard), then
// the whole panel descends one level toward each image's leaf.
func (s *Session) Feedback(marked []int) error {
	if s.finalized {
		return ErrFinalized
	}
	s.rounds++
	if s.assign == nil {
		s.assign = make(map[int]int)
	}
	for _, id := range marked {
		node, ok := s.displayed[id]
		if !ok {
			return fmt.Errorf("shard: image %d was not displayed", id)
		}
		if !s.relSet[id] {
			s.relSet[id] = true
			s.relevant = append(s.relevant, id)
		}
		s.access(s.topo.Nodes[node].ID)
		child := s.topo.ChildContaining(node, id)
		if child < 0 {
			child = node // displaying node is a leaf: maximally localized
		}
		if cur, ok := s.assign[id]; !ok || s.topo.Nodes[child].Size < s.topo.Nodes[cur].Size {
			s.assign[id] = child
		}
	}
	for _, id := range s.relevant {
		n, ok := s.assign[id]
		if !ok || s.topo.Nodes[n].Leaf {
			continue
		}
		s.access(s.topo.Nodes[n].ID)
		if child := s.topo.ChildContaining(n, id); child >= 0 {
			s.assign[id] = child
		}
	}
	s.rebuildFrontier()
	return nil
}

// Retract removes previously marked images, transcribing core.Session.Retract.
func (s *Session) Retract(ids []int) {
	if s.finalized {
		return
	}
	drop := make(map[int]bool, len(ids))
	for _, id := range ids {
		if s.relSet[id] {
			drop[id] = true
			delete(s.relSet, id)
			delete(s.assign, id)
		}
	}
	if len(drop) == 0 {
		return
	}
	kept := s.relevant[:0]
	for _, id := range s.relevant {
		if !drop[id] {
			kept = append(kept, id)
		}
	}
	s.relevant = kept
	s.rebuildFrontier()
}

func (s *Session) rebuildFrontier() {
	if len(s.assign) == 0 {
		s.frontier = []int{s.topo.Root()}
		return
	}
	next := make(map[int]bool, len(s.assign))
	for _, n := range s.assign {
		next[n] = true
	}
	s.frontier = s.frontier[:0]
	for n := range next {
		s.frontier = append(s.frontier, n)
	}
	sort.Slice(s.frontier, func(i, j int) bool { return s.topo.Nodes[s.frontier[i]].ID < s.topo.Nodes[s.frontier[j]].ID })
}

// ExportState snapshots the session in the shared wire format. The state is
// interchangeable with a single-node core.Session export: restoring it into
// either implementation reproduces the same panel, and a distributed finalize
// over it matches the single-node finalize bit for bit.
func (s *Session) ExportState() *core.SessionState {
	st := &core.SessionState{
		Version:       core.SessionStateVersion,
		Relevant:      append([]int(nil), s.relevant...),
		Rounds:        s.rounds,
		Expansions:    s.baseExpansions,
		FeedbackReads: s.baseFeedbackReads + s.reads,
		FinalReads:    s.baseFinalReads,
		Finalized:     s.finalized,
	}
	if len(s.assign) > 0 {
		st.Assign = make(map[int]uint64, len(s.assign))
		for id, n := range s.assign {
			st.Assign[id] = s.topo.Nodes[n].ID
		}
	}
	if len(s.displayed) > 0 {
		st.Displayed = make(map[int]uint64, len(s.displayed))
		for id, n := range s.displayed {
			st.Displayed[id] = s.topo.Nodes[n].ID
		}
	}
	if s.weights != nil {
		st.Weights = append([]float64(nil), s.weights...)
	}
	return st
}

// RestoreSession reconstructs a shard-hosted session from an exported state.
// Node IDs resolve against the topology, so the state must come from the
// same fleet (or the single-node build the fleet was sliced from).
func RestoreSession(topo *Topology, st *core.SessionState, rng *rand.Rand, displayCount int) (*Session, error) {
	if st == nil {
		return nil, fmt.Errorf("shard: nil session state")
	}
	if st.Version != core.SessionStateVersion {
		return nil, fmt.Errorf("shard: session state version %d unsupported (want %d)", st.Version, core.SessionStateVersion)
	}
	s := NewSession(topo, rng, displayCount)
	s.rounds = st.Rounds
	s.finalized = st.Finalized
	s.baseFeedbackReads = st.FeedbackReads
	s.baseFinalReads = st.FinalReads
	s.baseExpansions = st.Expansions
	for _, id := range st.Relevant {
		if s.relSet[id] {
			return nil, fmt.Errorf("shard: session state repeats relevant image %d", id)
		}
		s.relSet[id] = true
		s.relevant = append(s.relevant, id)
	}
	if len(st.Assign) > 0 {
		s.assign = make(map[int]int, len(st.Assign))
		for id, nodeID := range st.Assign {
			if !s.relSet[id] {
				return nil, fmt.Errorf("shard: session state assigns unmarked image %d", id)
			}
			idx, ok := topo.IdxOf(nodeID)
			if !ok {
				return nil, fmt.Errorf("shard: session state image %d assigned to unknown node %d", id, nodeID)
			}
			s.assign[id] = idx
		}
	}
	if len(st.Displayed) > 0 {
		s.displayed = make(map[int]int, len(st.Displayed))
		for id, nodeID := range st.Displayed {
			idx, ok := topo.IdxOf(nodeID)
			if !ok {
				return nil, fmt.Errorf("shard: session state displays image %d from unknown node %d", id, nodeID)
			}
			s.displayed[id] = idx
		}
	}
	if st.Weights != nil {
		s.weights = append([]float64(nil), st.Weights...)
	}
	s.rebuildFrontier()
	return s, nil
}
