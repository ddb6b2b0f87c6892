package core

import (
	"fmt"
	"math/rand"

	"qdcbir/internal/disk"
	"qdcbir/internal/rstar"
)

// SessionStateVersion is the wire-format version ExportState writes.
const SessionStateVersion = 1

// SessionState is the wire-serializable form of a feedback session: the query
// panel (relevant images in marking order and each one's assigned subcluster,
// by node page ID), display bookkeeping, optional feature weights, and the
// accumulated cost counters. It captures everything Finalize's result depends
// on — finalizeGroups reads only (relevant order, assignments, weights) — so
// a session exported here and restored anywhere (the same process, another
// replica of the same corpus, or a router planning a distributed finalize)
// finalizes bit-identically to the original.
//
// What it deliberately does NOT capture: the display RNG's internal position
// and the shuffled display cursors. A restored session redraws candidates
// from a fresh generator, so the browsing stream after a restore is
// deterministic given (state, seed) but not a continuation of the original
// stream. Rankings are unaffected — no RNG feeds Finalize.
//
// The struct round-trips through encoding/json without loss: Go marshals
// float64 values at shortest-exact precision and integer map keys as decimal
// strings, both of which decode back to identical bits.
type SessionState struct {
	Version  int   `json:"version"`
	Relevant []int `json:"relevant,omitempty"` // marking order
	// Assign maps each relevant image to its subcluster's node page ID.
	Assign map[int]uint64 `json:"assign,omitempty"`
	// Displayed maps each currently displayed image to the frontier node that
	// displayed it (Feedback only accepts displayed images).
	Displayed     map[int]uint64 `json:"displayed,omitempty"`
	Weights       []float64      `json:"weights,omitempty"`
	Rounds        int            `json:"rounds"`
	Expansions    int            `json:"expansions"`
	FeedbackReads uint64         `json:"feedback_reads"`
	FinalReads    uint64         `json:"final_reads"`
	Finalized     bool           `json:"finalized,omitempty"`
}

// ExportState snapshots the session for transport. The session remains
// usable; the snapshot shares nothing with it.
func (s *Session) ExportState() *SessionState {
	st := &SessionState{
		Version:    SessionStateVersion,
		Relevant:   append([]int(nil), idsToInts(s.relevant)...),
		Rounds:     s.stats.Rounds,
		Expansions: s.stats.Expansions,
		Finalized:  s.finalized,
	}
	full := s.Stats()
	st.FeedbackReads = full.FeedbackReads
	st.FinalReads = full.FinalReads
	if len(s.assign) > 0 {
		st.Assign = make(map[int]uint64, len(s.assign))
		for id, n := range s.assign {
			st.Assign[int(id)] = uint64(n.ID())
		}
	}
	if len(s.displayed) > 0 {
		st.Displayed = make(map[int]uint64, len(s.displayed))
		for id, n := range s.displayed {
			st.Displayed[int(id)] = uint64(n.ID())
		}
	}
	if s.weights != nil {
		st.Weights = append([]float64(nil), s.weights...)
	}
	return st
}

// RestoreSession reconstructs a session from an exported state. The rng
// drives candidate displays from the restore point on; pass the same seed to
// make post-restore browsing reproducible. Node IDs are resolved against this
// engine's structure, so the state must come from a replica of the same
// build — unknown images or node IDs are rejected.
func (e *Engine) RestoreSession(st *SessionState, rng *rand.Rand) (*Session, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil session state")
	}
	if st.Version != SessionStateVersion {
		return nil, fmt.Errorf("core: session state version %d unsupported (want %d)", st.Version, SessionStateVersion)
	}
	s := &Session{
		eng:       e,
		rng:       rng,
		relSet:    make(map[rstar.ItemID]bool),
		finalized: st.Finalized,
		stats: Stats{
			FeedbackReads: st.FeedbackReads,
			FinalReads:    st.FinalReads,
			Expansions:    st.Expansions,
			Rounds:        st.Rounds,
		},
	}
	n := e.rfs.Len()
	for _, id := range st.Relevant {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("core: session state image %d outside corpus of %d", id, n)
		}
		iid := rstar.ItemID(id)
		if s.relSet[iid] {
			return nil, fmt.Errorf("core: session state repeats relevant image %d", id)
		}
		s.relSet[iid] = true
		s.relevant = append(s.relevant, iid)
	}
	if len(st.Assign) > 0 {
		s.assign = make(map[rstar.ItemID]*rstar.Node, len(st.Assign))
		for id, nodeID := range st.Assign {
			if !s.relSet[rstar.ItemID(id)] {
				return nil, fmt.Errorf("core: session state assigns unmarked image %d", id)
			}
			node := e.rfs.NodeByID(disk.PageID(nodeID))
			if node == nil {
				return nil, fmt.Errorf("core: session state image %d assigned to unknown node %d", id, nodeID)
			}
			s.assign[rstar.ItemID(id)] = node
		}
	}
	if len(st.Displayed) > 0 {
		s.displayed = make(map[rstar.ItemID]*rstar.Node, len(st.Displayed))
		for id, nodeID := range st.Displayed {
			node := e.rfs.NodeByID(disk.PageID(nodeID))
			if node == nil {
				return nil, fmt.Errorf("core: session state displays image %d from unknown node %d", id, nodeID)
			}
			s.displayed[rstar.ItemID(id)] = node
		}
	}
	if st.Weights != nil {
		if err := s.SetFeatureWeights(st.Weights); err != nil {
			return nil, err
		}
	}
	s.rebuildFrontier()
	if o := e.cfg.Observer; o != nil {
		o.SessionStarted()
		s.trace = o.StartTrace("session")
	}
	return s, nil
}

func idsToInts(ids []rstar.ItemID) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}
