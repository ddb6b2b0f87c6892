package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"qdcbir/internal/disk"
	"qdcbir/internal/obs"
	"qdcbir/internal/vec"
)

// DefaultDisplayCount is how many candidates one display shows when nothing
// configures it: the prototype GUI shows 21 (§4).
const DefaultDisplayCount = 21

// ErrFinalized is returned when a session is used after its final round.
var ErrFinalized = errors.New("core: session already finalized")

// Image is the element type of a hierarchy's image IDs.
type Image interface{ ~int }

// Hierarchy is what the feedback round machine reads of a representative
// hierarchy (§3.1). Every deployment backs it: the engine's RFS structure,
// a shard replica's topology table, a pinned snapshot's forest of segment
// trees, and the smart client's payload. All methods are called per node,
// never per representative.
type Hierarchy[N comparable, ID Image] interface {
	// Roots appends the nodes an empty panel browses to dst.
	Roots(dst []N) []N
	// Reps returns n's live representatives (shared; not modified).
	Reps(n N) []ID
	// Child returns n's child whose subtree holds the image, or false when n
	// is a leaf or does not hold it.
	Child(n N, id ID) (N, bool)
	// Leaf reports whether n is a leaf.
	Leaf(n N) bool
	// Size is the number of images under n.
	Size(n N) int
	// Key is n's stable page key. It orders the frontier, keys the display
	// cursors and the feedback page accounting, and names n in a
	// SessionState.
	Key(n N) uint64
	// Node resolves a page key.
	Node(key uint64) (N, bool)
	// Has reports whether a restored panel may hold the image.
	Has(id ID) bool
}

// Shown is one displayed representative and the frontier node that showed
// it.
type Shown[N any, ID Image] struct {
	ID   ID
	Node N
}

// Machine is the §3.2 feedback round machine over any Hierarchy: it draws
// candidate displays from the frontier, maps marks to the child clusters
// they came from, re-localizes the query panel one level per round, and
// exports and restores its state. It does not run the final round: each
// backing runs its own over the panel through Finalize.
type Machine[N comparable, ID Image] struct {
	h       Hierarchy[N, ID]
	rng     *rand.Rand
	display int

	frontier []N
	relevant []ID // marking order
	relSet   map[ID]bool
	// assign is the query panel: each relevant image's currently associated
	// subcluster, re-localized one level per round (§3.3 "the system records
	// each relevant image and its associated subcluster").
	assign    map[ID]N
	displayed map[ID]N // last display: rep -> frontier node
	cursors   map[uint64]*displayCursor[ID]
	weights   vec.Vector // optional §6 feature-importance weighting
	// feedbackIO is the session-lifetime page cache of the feedback rounds:
	// §5.2.2's cost model counts one read per distinct node — representatives
	// marked from the same cluster share the node access, and a node stays
	// buffered for the rest of the session.
	feedbackIO disk.Visited
	// stats.FeedbackReads and stats.FinalReads hold what feedbackIO does not
	// count: a restored session's earlier life and the final round.
	stats     Stats
	finalized bool

	// obs and trace are set for engine sessions under an Observer.
	// lastFbReads/lastFbAccesses checkpoint the feedback cache counters so
	// each round's span reports deltas, attributing the browsing I/O between
	// two rounds to the later round.
	obs            *obs.Observer
	trace          *obs.Trace
	lastFbReads    uint64
	lastFbAccesses uint64
}

// NewMachine starts a round machine browsing h's roots. The rng drives the
// random candidate displays; display <= 0 uses DefaultDisplayCount.
func NewMachine[N comparable, ID Image](h Hierarchy[N, ID], rng *rand.Rand, display int) *Machine[N, ID] {
	m := new(Machine[N, ID])
	m.init(h, rng, display)
	return m
}

func (m *Machine[N, ID]) init(h Hierarchy[N, ID], rng *rand.Rand, display int) {
	if display <= 0 {
		display = DefaultDisplayCount
	}
	m.h, m.rng, m.display = h, rng, display
	m.frontier = h.Roots(nil)
	m.relSet = make(map[ID]bool)
}

// Trace returns the session's trace span (nil without an observer).
func (m *Machine[N, ID]) Trace() *obs.Trace { return m.trace }

// Frontier returns the current subquery anchor nodes (shared; do not
// modify).
func (m *Machine[N, ID]) Frontier() []N { return m.frontier }

// Relevant returns all images marked relevant so far (shared; do not
// modify).
func (m *Machine[N, ID]) Relevant() []ID { return m.relevant }

// Stats returns the session's accumulated cost statistics.
func (m *Machine[N, ID]) Stats() Stats {
	st := m.stats
	st.FeedbackReads += m.feedbackIO.Reads()
	return st
}

func (m *Machine[N, ID]) access(n N) { m.feedbackIO.Access(disk.PageID(m.h.Key(n))) }

// Candidates draws up to the display count of representatives across the
// frontier, sampling each node proportionally to its representative count
// (so large clusters contribute more, mirroring the prototype's random
// browsing). Reading a node's representatives is one page access (§5.2.2).
// Feedback only accepts images that have been displayed.
func (m *Machine[N, ID]) Candidates() []Shown[N, ID] {
	type pool struct {
		node N
		reps []ID
	}
	pools := make([]pool, 0, len(m.frontier))
	total := 0
	for _, n := range m.frontier {
		m.access(n)
		reps := m.h.Reps(n)
		if len(reps) == 0 {
			continue
		}
		pools = append(pools, pool{node: n, reps: reps})
		total += len(reps)
	}
	if total == 0 {
		return nil
	}
	if m.displayed == nil {
		m.displayed = make(map[ID]N)
	}
	out := make([]Shown[N, ID], 0, min(total, m.display))
	if total <= m.display {
		for _, p := range pools {
			for _, id := range p.reps {
				out = append(out, Shown[N, ID]{ID: id, Node: p.node})
			}
		}
	} else {
		// Proportional allocation with at least one slot per pool, then a
		// random draw without replacement inside each pool.
		remaining := m.display
		for i, p := range pools {
			share := int(math.Round(float64(m.display) * float64(len(p.reps)) / float64(total)))
			if share < 1 {
				share = 1
			}
			if i == len(pools)-1 {
				share = remaining
			}
			share = min(share, len(p.reps), remaining)
			out = m.take(out, p.node, p.reps, share)
			remaining -= share
			if remaining <= 0 {
				break
			}
		}
	}
	for _, c := range out {
		m.displayed[c.ID] = c.Node
	}
	m.trace.AddDisplayed(len(out))
	return out
}

// displayCursor pages through one node's representatives in a shuffled order
// without repetition, reshuffling once exhausted — the effective behaviour of
// a user repeatedly pressing the GUI's "Random" button until they have seen
// the candidate pool (§4). With-replacement sampling would leave rarely-drawn
// representatives unseen no matter how long the user browses.
type displayCursor[ID Image] struct {
	order []ID
	pos   int
}

// take appends the next n representatives under node's cursor to out.
func (m *Machine[N, ID]) take(out []Shown[N, ID], node N, reps []ID, n int) []Shown[N, ID] {
	key := m.h.Key(node)
	if m.cursors == nil {
		m.cursors = make(map[uint64]*displayCursor[ID])
	}
	cur, ok := m.cursors[key]
	if !ok || len(cur.order) != len(reps) {
		cur = &displayCursor[ID]{order: append([]ID(nil), reps...)}
		m.rng.Shuffle(len(cur.order), func(i, j int) { cur.order[i], cur.order[j] = cur.order[j], cur.order[i] })
		m.cursors[key] = cur
	}
	for taken := 0; taken < n; {
		if cur.pos >= len(cur.order) {
			m.rng.Shuffle(len(cur.order), func(i, j int) { cur.order[i], cur.order[j] = cur.order[j], cur.order[i] })
			cur.pos = 0
		}
		out = append(out, Shown[N, ID]{ID: cur.order[cur.pos], Node: node})
		cur.pos++
		taken++
		if taken >= len(cur.order) {
			break // pool smaller than the request: one full pass is enough
		}
	}
	return out
}

// Feedback processes one round of user relevance feedback: the marked images
// must have appeared in a previous Candidates call. A rejected round leaves
// the session exactly as it was.
//
// The machine mirrors the prototype's ImageGrouper protocol (§4): relevant
// images persist in the query panel, and every round the system re-localizes
// each one — the subquery anchored at an image's current subcluster descends
// one level toward the image's leaf (§3.2). New marks join the panel at the
// child of the cluster that displayed them. The frontier — the set of active
// localized subqueries — is the set of distinct subclusters currently
// assigned to relevant images, so the query splits exactly when relevant
// images diverge into different clusters and discards branches in which the
// user never marked anything.
func (m *Machine[N, ID]) Feedback(marked []ID) error {
	if m.finalized {
		return ErrFinalized
	}
	for _, id := range marked {
		if _, ok := m.displayed[id]; !ok {
			return fmt.Errorf("core: image %d was not displayed", id)
		}
	}
	var t0 time.Time
	var offsetNS int64
	if m.obs != nil {
		offsetNS = m.trace.SinceStart()
		t0 = time.Now()
	}
	m.stats.Rounds++
	if m.assign == nil {
		m.assign = make(map[ID]N)
	}
	// New marks enter the panel at the displaying cluster's child containing
	// them. Determining the child reads the node's entry table — one page
	// access (§5.2.2).
	for _, id := range marked {
		node := m.displayed[id]
		if !m.relSet[id] {
			m.relSet[id] = true
			m.relevant = append(m.relevant, id)
		}
		m.access(node)
		child, ok := m.h.Child(node, id)
		if !ok {
			child = node // displaying node is a leaf: maximally localized
		}
		// A re-mark from a shallower display must not regress a deeper
		// assignment.
		if cur, ok := m.assign[id]; !ok || m.h.Size(child) < m.h.Size(cur) {
			m.assign[id] = child
		}
	}
	// Re-localize the whole panel: every relevant image's subquery descends
	// one level toward its leaf.
	for _, id := range m.relevant {
		n, ok := m.assign[id]
		if !ok || m.h.Leaf(n) {
			continue
		}
		m.access(n)
		if child, ok := m.h.Child(n, id); ok {
			m.assign[id] = child
		}
	}
	m.rebuildFrontier()
	if m.obs != nil {
		reads, accesses := m.feedbackIO.Reads(), m.feedbackIO.Accesses()
		m.obs.RoundDone(m.trace, obs.RoundSpan{
			Round:        m.stats.Rounds,
			OffsetNS:     offsetNS,
			Marked:       len(marked),
			Relevant:     len(m.relevant),
			Subqueries:   len(m.frontier),
			NodesVisited: accesses - m.lastFbAccesses,
			PageReads:    reads - m.lastFbReads,
			DurationNS:   time.Since(t0).Nanoseconds(),
		})
		m.lastFbReads, m.lastFbAccesses = reads, accesses
	}
	return nil
}

// Retract removes previously marked images from the query panel (the
// ImageGrouper interface lets users drag images back out). Subqueries kept
// alive only by retracted marks are discarded; retracting everything returns
// the session to browsing the roots.
func (m *Machine[N, ID]) Retract(ids []ID) {
	if m.finalized {
		return
	}
	dropped := false
	for _, id := range ids {
		if m.relSet[id] {
			dropped = true
			delete(m.relSet, id)
			delete(m.assign, id)
		}
	}
	if !dropped {
		return
	}
	m.relevant = slices.DeleteFunc(m.relevant, func(id ID) bool { return !m.relSet[id] })
	m.rebuildFrontier()
}

// rebuildFrontier derives the active subqueries from the panel assignments,
// ordered by page key for reproducible displays.
func (m *Machine[N, ID]) rebuildFrontier() {
	m.frontier = m.frontier[:0]
	if len(m.assign) == 0 {
		// Empty panel (nothing marked, or everything retracted): browse the
		// whole database again.
		m.frontier = m.h.Roots(m.frontier)
		return
	}
	seen := make(map[uint64]bool, len(m.assign))
	for _, n := range m.assign {
		if k := m.h.Key(n); !seen[k] {
			seen[k] = true
			m.frontier = append(m.frontier, n)
		}
	}
	slices.SortFunc(m.frontier, func(a, b N) int { return cmp.Compare(m.h.Key(a), m.h.Key(b)) })
}

// observe attaches an observer: the session counts as started and opens its
// trace span.
func (m *Machine[N, ID]) observe(o *obs.Observer) {
	if o != nil {
		o.SessionStarted()
		m.obs, m.trace = o, o.StartTrace("session")
	}
}

// Finalize runs a backing's final round over the machine's panel: run gets
// the relevant images in marking order and the feature weights, and reports
// the round's reads and expansions. Only a returned result consumes the
// machine: after an error (an invalid k, a lapsed deadline) it is exactly as
// it was, so the call can be retried.
func Finalize[N comparable, ID Image, R any](m *Machine[N, ID], k int, run func(relevant []ID, weights vec.Vector) (R, Stats, error)) (R, error) {
	var zero R
	if m.finalized {
		return zero, ErrFinalized
	}
	if k <= 0 {
		return zero, fmt.Errorf("core: invalid k=%d", k)
	}
	if len(m.relevant) == 0 {
		return zero, errors.New("core: no relevant feedback given")
	}
	if m.obs != nil {
		// Browsing I/O after the last feedback round has no round span to
		// carry it; flush it into the feedback-reads counter so the
		// observer's totals match the session's Stats.
		reads := m.feedbackIO.Reads()
		m.obs.AddFeedbackReads(reads - m.lastFbReads)
		m.lastFbReads = reads
	}
	res, final, err := run(m.relevant, m.weights)
	if err != nil {
		return zero, err
	}
	m.stats.FinalReads += final.FinalReads
	m.stats.Expansions += final.Expansions
	m.finalized = true
	return res, nil
}
