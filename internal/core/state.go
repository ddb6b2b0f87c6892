package core

import (
	"fmt"
	"math/rand"
)

// SessionStateVersion is the wire-format version ExportState writes.
const SessionStateVersion = 1

// SessionState is the wire-serializable form of a feedback session, the same
// for every backing of the round machine: the query panel (relevant images in
// marking order and each one's assigned subcluster, by page key), the last
// display, optional feature weights, and the accumulated cost counters. It
// captures everything a final round depends on — the panel, its assignments
// and the weights — so a session exported here and restored anywhere (the
// same process, another replica of the same corpus, or a router planning a
// distributed finalize) finalizes bit-identically to the original.
//
// What it deliberately does NOT capture: the display RNG's internal position
// and the shuffled display cursors. A restored session redraws candidates
// from a fresh generator, so the browsing stream after a restore is
// deterministic given (state, seed) but not a continuation of the original
// stream. Rankings are unaffected — no RNG feeds the final round.
//
// The struct round-trips through encoding/json without loss: Go marshals
// float64 values at shortest-exact precision and integer map keys as decimal
// strings, both of which decode back to identical bits.
type SessionState struct {
	Version  int   `json:"version"`
	Relevant []int `json:"relevant,omitempty"` // marking order
	// Assign maps each relevant image to its subcluster's page key.
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

// ExportState snapshots the machine for transport. The machine remains
// usable; the snapshot shares nothing with it.
func (m *Machine[N, ID]) ExportState() *SessionState {
	full := m.Stats()
	st := &SessionState{
		Version:       SessionStateVersion,
		Relevant:      make([]int, len(m.relevant)),
		Rounds:        full.Rounds,
		Expansions:    full.Expansions,
		FeedbackReads: full.FeedbackReads,
		FinalReads:    full.FinalReads,
		Finalized:     m.finalized,
	}
	for i, id := range m.relevant {
		st.Relevant[i] = int(id)
	}
	st.Assign = m.keys(m.assign)
	st.Displayed = m.keys(m.displayed)
	if m.weights != nil {
		st.Weights = append([]float64(nil), m.weights...)
	}
	return st
}

func (m *Machine[N, ID]) keys(nodes map[ID]N) map[int]uint64 {
	if len(nodes) == 0 {
		return nil
	}
	out := make(map[int]uint64, len(nodes))
	for id, n := range nodes {
		out[int(id)] = m.h.Key(n)
	}
	return out
}

// RestoreMachine reconstructs a round machine from an exported state. The
// rng drives candidate displays from the restore point on; pass the same seed
// to make post-restore browsing reproducible. Page keys resolve against h, so
// the state must come from a replica of the same build: unknown images or
// keys are rejected.
func RestoreMachine[N comparable, ID Image](h Hierarchy[N, ID], st *SessionState, rng *rand.Rand, display int) (*Machine[N, ID], error) {
	m := new(Machine[N, ID])
	m.init(h, rng, display)
	if err := m.restore(st); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Machine[N, ID]) restore(st *SessionState) error {
	if st == nil {
		return fmt.Errorf("core: nil session state")
	}
	if st.Version != SessionStateVersion {
		return fmt.Errorf("core: session state version %d unsupported (want %d)", st.Version, SessionStateVersion)
	}
	m.finalized = st.Finalized
	m.stats = Stats{
		FeedbackReads: st.FeedbackReads,
		FinalReads:    st.FinalReads,
		Expansions:    st.Expansions,
		Rounds:        st.Rounds,
	}
	for _, id := range st.Relevant {
		iid := ID(id)
		if !m.h.Has(iid) {
			return fmt.Errorf("core: session state image %d is not in the corpus", id)
		}
		if m.relSet[iid] {
			return fmt.Errorf("core: session state repeats relevant image %d", id)
		}
		m.relSet[iid] = true
		m.relevant = append(m.relevant, iid)
	}
	var err error
	if m.assign, err = m.nodes(st.Assign, "assigned to"); err != nil {
		return err
	}
	for id := range m.assign {
		if !m.relSet[id] {
			return fmt.Errorf("core: session state assigns unmarked image %d", id)
		}
	}
	if m.displayed, err = m.nodes(st.Displayed, "displayed from"); err != nil {
		return err
	}
	if st.Weights != nil {
		m.weights = append([]float64(nil), st.Weights...)
	}
	m.rebuildFrontier()
	return nil
}

func (m *Machine[N, ID]) nodes(keys map[int]uint64, what string) (map[ID]N, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	out := make(map[ID]N, len(keys))
	for id, key := range keys {
		n, ok := m.h.Node(key)
		if !ok {
			return nil, fmt.Errorf("core: session state image %d %s unknown node %d", id, what, key)
		}
		out[ID(id)] = n
	}
	return out, nil
}
