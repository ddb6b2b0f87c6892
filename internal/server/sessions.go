package server

import (
	"container/list"
	"context"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"qdcbir/internal/core"
	"qdcbir/internal/obs"
)

// DefaultMaxSessions bounds concurrent hosted sessions; the longest-idle
// session is evicted when the cap is hit, so abandoned thin clients cannot
// exhaust memory.
const DefaultMaxSessions = 1024

// Sessions is the hosted-session table: opaque handles, eviction of the
// longest-idle session at the cap, and the /v1/sessions handlers (create,
// candidates, feedback, retract, export, import, finalize, delete). qdserve
// mounts one over its engine or a dynamic corpus's snapshots; qdrouter mounts
// one over the fleet topology, whose final round scatters.
type Sessions struct {
	cfg SessionsConfig
	max int

	mu sync.Mutex
	m  map[string]*HostedSession
	// lru orders hosted sessions by last touch (front = least recently used;
	// values are session ids). Every session operation moves its entry to the
	// back, so cap-pressure eviction removes the longest-idle session rather
	// than the oldest-created one.
	lru    *list.List
	nextID uint64
}

// SessionsConfig wires a Sessions table to the hierarchy its sessions run on.
type SessionsConfig struct {
	// Start builds a session whose displays rng draws: fresh when st is nil,
	// restored from st otherwise.
	Start func(rng *rand.Rand, st *core.SessionState) (*HostedSession, error)
	// Label names displayed images.
	Label Labeler
	// Shape reports the corpus request bodies are bounded by: how many
	// images an ID list can name, and the vector dimension.
	Shape func() (images, dim int)
	// Observer counts hosted and evicted sessions (nil: not counted).
	Observer *obs.Observer
	// Admit, when set, gates each finalize; the release it returns runs
	// once the answer is computed.
	Admit func(ctx context.Context, endpoint string) (release func(), err error)
	// WriteError answers a finalize that failed (nil: writeQueryError).
	WriteError func(w http.ResponseWriter, err error)
}

// NewSessions returns an empty table capped at DefaultMaxSessions.
func NewSessions(cfg SessionsConfig) *Sessions {
	if cfg.WriteError == nil {
		cfg.WriteError = writeQueryError
	}
	return &Sessions{cfg: cfg, max: DefaultMaxSessions, m: make(map[string]*HostedSession), lru: list.New()}
}

// SetMax overrides the session cap (values < 1 keep the current cap). Call
// before serving traffic.
func (t *Sessions) SetMax(n int) {
	if n >= 1 {
		t.max = n
	}
}

// Count reports the live sessions.
func (t *Sessions) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// HostedSession is one thin-client feedback session: the round machine over
// its backing's hierarchy plus that backing's final round. Build one with
// Host.
type HostedSession struct {
	mu       sync.Mutex
	sess     roundMachine
	finalize func(ctx context.Context, k int) (any, error)
	release  func()
	seed     int64 // display RNG seed, reported by /export for reproducibility

	el *list.Element // position in Sessions.lru; guarded by Sessions.mu
}

// Host wraps a round machine and its backing's final round into a hosted
// session. finalize runs under the session's lock and returns the response
// body; release, when non-nil, drops what the backing pins and runs once,
// when the session is finalized, deleted or evicted.
func Host[N comparable, ID core.Image](m *core.Machine[N, ID], finalize func(ctx context.Context, k int) (any, error), release func()) *HostedSession {
	return &HostedSession{sess: hosted[N, ID]{m}, finalize: finalize, release: release}
}

// StartMachine starts a round machine over h: fresh when st is nil, restored
// from it otherwise. display <= 0 uses core.DefaultDisplayCount.
func StartMachine[N comparable, ID core.Image](h core.Hierarchy[N, ID], st *core.SessionState, rng *rand.Rand, display int) (*core.Machine[N, ID], error) {
	if st == nil {
		return core.NewMachine(h, rng, display), nil
	}
	return core.RestoreMachine(h, st, rng, display)
}

// roundMachine is a round machine as the HTTP handlers drive it, whatever
// backs it: image IDs travel as ints.
type roundMachine interface {
	display(label Labeler) []CandidateJSON
	feedback(marks []int) error
	retract(ids []int)
	widths() (subqueries, relevant int)
	ExportState() *core.SessionState
	Trace() *obs.Trace
}

// hosted adapts a core.Machine over any hierarchy to roundMachine.
type hosted[N comparable, ID core.Image] struct{ *core.Machine[N, ID] }

func (h hosted[N, ID]) display(label Labeler) []CandidateJSON {
	cands := h.Candidates()
	out := make([]CandidateJSON, len(cands))
	for i, c := range cands {
		out[i] = CandidateJSON{ID: int(c.ID), Label: label(int(c.ID))}
	}
	return out
}

func (h hosted[N, ID]) feedback(marks []int) error { return h.Feedback(imageIDs[ID](marks)) }
func (h hosted[N, ID]) retract(ids []int)          { h.Retract(imageIDs[ID](ids)) }
func (h hosted[N, ID]) widths() (int, int)         { return len(h.Frontier()), len(h.Relevant()) }

func imageIDs[ID core.Image](ids []int) []ID {
	out := make([]ID, len(ids))
	for i, id := range ids {
		out[i] = ID(id)
	}
	return out
}

// SessionExport is the /v1/sessions/{id}/export body: the wire-serializable
// session state plus the seed that drove its displays. POSTing it to
// /v1/sessions/import on any server over the same corpus resumes the session
// there.
type SessionExport struct {
	SessionID string             `json:"session_id,omitempty"`
	Seed      int64              `json:"seed"`
	State     *core.SessionState `json:"state"`
}

// ServeHTTP serves POST /v1/sessions, POST /v1/sessions/import and
// /v1/sessions/{id}[/{op}].
func (t *Sessions) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions"); rest {
	case "":
		t.handleCreate(w, r)
	case "/import":
		t.handleImport(w, r)
	default:
		t.handleOp(w, r, strings.TrimPrefix(rest, "/"))
	}
}

// handleCreate starts a fresh session.
func (t *Sessions) handleCreate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req struct {
		Seed int64 `json:"seed"`
	}
	if r.ContentLength > 0 && !DecodeBody(w, r, bodySlack, &req) {
		return
	}
	t.add(w, req.Seed, nil)
}

// idListBodyLimit bounds a feedback or retract body: one list of image IDs.
func (t *Sessions) idListBodyLimit() int64 {
	images, _ := t.cfg.Shape()
	return IDListBodyLimit(images)
}

// handleImport resumes an exported session here.
func (t *Sessions) handleImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req SessionExport
	if !DecodeBody(w, r, sessionStateBodyLimit(t.cfg.Shape()), &req) {
		return
	}
	if req.State == nil {
		writeError(w, http.StatusBadRequest, "missing state")
		return
	}
	t.add(w, req.Seed, req.State)
}

// add registers a session — fresh when st is nil, restored from an exported
// state otherwise — and answers its handle. seed == 0 picks a table-derived
// default.
func (t *Sessions) add(w http.ResponseWriter, seed int64, st *core.SessionState) {
	t.mu.Lock()
	t.nextID++
	id := strconv.FormatUint(t.nextID, 10)
	if seed == 0 {
		seed = int64(t.nextID) * 7919
	}
	// Evict the longest-idle sessions past the cap so abandoned clients
	// cannot exhaust memory. Evicted sessions drop what their backing pins,
	// else abandoned dynamic sessions would pin old epochs forever.
	var evicted []*HostedSession
	for len(t.m) >= t.max && t.lru.Len() > 0 {
		front := t.lru.Front()
		t.lru.Remove(front)
		eid := front.Value.(string)
		evicted = append(evicted, t.m[eid])
		delete(t.m, eid)
		t.cfg.Observer.SessionEvicted()
	}
	t.mu.Unlock()
	for _, ev := range evicted {
		if ev.release != nil {
			ev.release()
		}
	}

	hs, err := t.cfg.Start(rand.New(rand.NewSource(seed)), st)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hs.seed = seed
	// Correlate the session's trace (an engine session's, under an
	// observer) with its API handle so /v1/traces output can be joined
	// against client logs.
	hs.sess.Trace().SetLabel("session-" + id)
	t.mu.Lock()
	hs.el = t.lru.PushBack(id)
	t.m[id] = hs
	t.mu.Unlock()
	t.cfg.Observer.SessionHosted()
	writeJSON(w, http.StatusOK, SessionResponse{SessionID: id})
}

// release drops a session (client delete or finalize), releasing what its
// backing pins.
func (t *Sessions) release(id string) {
	t.mu.Lock()
	hs, ok := t.m[id]
	if ok {
		delete(t.m, id)
		t.lru.Remove(hs.el)
	}
	t.mu.Unlock()
	if ok {
		if hs.release != nil {
			hs.release()
		}
		t.cfg.Observer.SessionReleased()
	}
}

// handleOp dispatches /v1/sessions/{id}/{op}.
func (t *Sessions) handleOp(w http.ResponseWriter, r *http.Request, rest string) {
	id, op, _ := strings.Cut(rest, "/")
	if id == "" {
		writeError(w, http.StatusNotFound, "missing session id")
		return
	}
	t.mu.Lock()
	hs := t.m[id]
	if hs != nil {
		// Touch: every operation marks the session most recently used, so
		// cap-pressure eviction targets the longest-idle session.
		t.lru.MoveToBack(hs.el)
	}
	t.mu.Unlock()
	if hs == nil {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}

	switch {
	case op == "" && r.Method == http.MethodDelete:
		t.release(id)
		writeJSON(w, http.StatusOK, struct{}{})

	case op == "candidates" && r.Method == http.MethodGet:
		hs.mu.Lock()
		out := hs.sess.display(t.cfg.Label)
		hs.mu.Unlock()
		writeJSON(w, http.StatusOK, struct {
			Candidates []CandidateJSON `json:"candidates"`
		}{out})

	case op == "feedback" && r.Method == http.MethodPost:
		var req FeedbackRequest
		if !DecodeBody(w, r, t.idListBodyLimit(), &req) {
			return
		}
		hs.mu.Lock()
		err := hs.sess.feedback(req.Relevant)
		nsub, nrel := hs.sess.widths()
		hs.mu.Unlock()
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, FeedbackResponse{Subqueries: nsub, Relevant: nrel})

	case op == "retract" && r.Method == http.MethodPost:
		var req FeedbackRequest
		if !DecodeBody(w, r, t.idListBodyLimit(), &req) {
			return
		}
		hs.mu.Lock()
		hs.sess.retract(req.Relevant)
		_, nrel := hs.sess.widths()
		hs.mu.Unlock()
		writeJSON(w, http.StatusOK, FeedbackResponse{Relevant: nrel})

	case op == "export" && r.Method == http.MethodGet:
		hs.mu.Lock()
		st := hs.sess.ExportState()
		hs.mu.Unlock()
		writeJSON(w, http.StatusOK, SessionExport{SessionID: id, Seed: hs.seed, State: st})

	case op == "finalize" && r.Method == http.MethodPost:
		var req struct {
			K int `json:"k"`
		}
		if !DecodeBody(w, r, bodySlack, &req) {
			return
		}
		if t.cfg.Admit != nil {
			release, err := t.cfg.Admit(r.Context(), "/v1/sessions/{id}/finalize")
			if err != nil {
				writeQueryError(w, err)
				return
			}
			defer release()
		}
		hs.mu.Lock()
		res, err := hs.finalize(r.Context(), req.K)
		hs.mu.Unlock()
		if err != nil {
			t.cfg.WriteError(w, err)
			return
		}
		t.release(id) // finalized sessions are done (a dynamic one drops its pin)
		writeJSON(w, http.StatusOK, res)

	default:
		writeError(w, http.StatusNotFound, "unknown operation %q", op)
	}
}
