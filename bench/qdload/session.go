package main

// One scripted relevance-feedback session, played the same way against a
// hosted HTTP session and an in-process qdcbir.Session: every round is a
// fixed number of candidate fetches plus one feedback post, with the marks
// chosen by the oracle from what the fetches actually displayed.

import (
	"context"
	"fmt"
	"time"

	"qdcbir"
)

// feedbackSession is the protocol both transports implement.
type feedbackSession interface {
	candidates() ([]shown, error)
	feedback(marks []int) error
	finalize(k int) (ids []int, labels []string, err error)
	abandon() // drop a session that will not be finalized
}

// sessionShape fixes the work in one session so that a round is the same
// number of requests everywhere it is timed.
type sessionShape struct {
	rounds  int
	fetches int // candidate displays per round
	k       int
}

// played is what one finished session did and returned.
type played struct {
	opened time.Time // when the session was created (its snapshot's age)
	marks  [][]int   // per round
	ids    []int
	labels []string
}

// playSession runs one session to completion. rec may be nil (replays and
// script building time nothing). Opening the session is part of round 1: it
// is what the user waits for before the first display.
func playSession(open func() (feedbackSession, error), shape sessionShape, o *oracle, rec *recorder) (*played, error) {
	p := &played{opened: time.Now()}
	note := func(kind string, start time.Time) {
		if rec != nil {
			rec.add(kind, start)
		}
	}
	attempt := func() {
		if rec != nil {
			rec.attempted++
		}
	}
	start := p.opened
	attempt()
	sess, err := open()
	if err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	for r := 0; r < shape.rounds; r++ {
		if r > 0 {
			start = time.Now()
			attempt()
		}
		var displayed []shown
		for f := 0; f < shape.fetches; f++ {
			c, err := sess.candidates()
			if err != nil {
				sess.abandon()
				return nil, fmt.Errorf("round %d candidates: %w", r+1, err)
			}
			displayed = append(displayed, c...)
		}
		marks := o.choose(displayed)
		if err := sess.feedback(marks); err != nil {
			sess.abandon()
			return nil, fmt.Errorf("round %d feedback: %w", r+1, err)
		}
		p.marks = append(p.marks, marks)
		note(kindRound, start)
	}
	if len(o.marked) == 0 {
		// Nothing relevant was ever displayed: a real user would give up, and
		// finalize rejects an empty panel. Not an error, not an op.
		sess.abandon()
		return p, nil
	}
	start = time.Now()
	attempt()
	p.ids, p.labels, err = sess.finalize(shape.k)
	if err != nil {
		sess.abandon()
		return nil, fmt.Errorf("finalize: %w", err)
	}
	note(kindFinalize, start)
	note(kindSession, p.opened)
	return p, nil
}

// ---- HTTP transport ----

type httpSession struct {
	c     *apiClient
	id    string
	label func(id int, wire string) string
}

// openHTTPSession creates a hosted session; label maps a displayed image to
// the label the oracle judges by (nil keeps the label the server sent).
func openHTTPSession(c *apiClient, seed int64, label func(id int, wire string) string) func() (feedbackSession, error) {
	return func() (feedbackSession, error) {
		var resp sessionResponse
		if err := c.post("/v1/sessions", map[string]int64{"seed": seed}, &resp); err != nil {
			return nil, err
		}
		if label == nil {
			label = func(_ int, wire string) string { return wire }
		}
		return &httpSession{c: c, id: resp.SessionID, label: label}, nil
	}
}

func (s *httpSession) candidates() ([]shown, error) {
	var resp candidatesResponse
	if err := s.c.get("/v1/sessions/"+s.id+"/candidates", &resp); err != nil {
		return nil, err
	}
	out := make([]shown, len(resp.Candidates))
	for i, c := range resp.Candidates {
		out[i] = shown{ID: c.ID, Label: s.label(c.ID, c.Label)}
	}
	return out, nil
}

func (s *httpSession) feedback(marks []int) error {
	if marks == nil {
		marks = []int{}
	}
	return s.c.post("/v1/sessions/"+s.id+"/feedback", feedbackRequest{Relevant: marks}, nil)
}

func (s *httpSession) finalize(k int) ([]int, []string, error) {
	var resp queryResponse
	if err := s.c.post("/v1/sessions/"+s.id+"/finalize", map[string]int{"k": k}, &resp); err != nil {
		return nil, nil, err
	}
	ids, labels := resp.flat()
	for i := range labels {
		labels[i] = s.label(ids[i], labels[i])
	}
	return ids, labels, nil
}

func (s *httpSession) abandon() { _ = s.c.do("DELETE", "/v1/sessions/"+s.id, nil, nil) }

// ---- in-process transport ----

type libSession struct {
	sys  *qdcbir.System
	sess *qdcbir.Session
}

func openLibSession(sys *qdcbir.System, seed int64) func() (feedbackSession, error) {
	return func() (feedbackSession, error) {
		return &libSession{sys: sys, sess: sys.NewSession(seed)}, nil
	}
}

func (s *libSession) candidates() ([]shown, error) {
	cands := s.sess.Candidates()
	out := make([]shown, len(cands))
	for i, c := range cands {
		out[i] = shown{ID: c.ID, Label: c.Subconcept}
	}
	return out, nil
}

func (s *libSession) feedback(marks []int) error { return s.sess.Feedback(marks) }

func (s *libSession) finalize(k int) ([]int, []string, error) {
	res, err := s.sess.FinalizeContext(context.Background(), k)
	if err != nil {
		return nil, nil, err
	}
	ids := res.IDs()
	labels := make([]string, len(ids))
	for i, id := range ids {
		labels[i] = s.sys.SubconceptOf(id)
	}
	return ids, labels, nil
}

func (s *libSession) abandon() {}

// ---- scripts over the paper's queries ----

// script is one pre-played session over a paper query: the seed that drives
// its displays and the answer an in-process replay of the same seed and the
// same oracle gives. The servers must return exactly expect.
type script struct {
	query   string
	targets []string
	seed    int64
	marks   [][]int // the oracle's marks, per round
	expect  []int
	labels  []string // of expect, in order
}

// buildScripts plays `variants` sessions per paper query in process and
// keeps them as expectations. Like the corpus they are played on, the
// scripts do not change with --seed (only the order clients take them in
// does). Display seeds are searched so that the first
// round shows at least firstMarks relevant images: at paper scale four
// displays cover a tenth of the representatives, and a session that never
// sees its target says nothing about the engine.
func buildScripts(sys *qdcbir.System, variants, firstMarks int, shape sessionShape) ([]script, error) {
	rng := subRand(corpusSeed, "scripts", 0)
	var out []script
	for _, q := range sys.Queries() {
		for v := 0; v < variants; v++ {
			found := false
			for try := 0; try < 2000 && !found; try++ {
				s := rng.Int63n(1<<40) + 1
				o := newOracle(q.Targets, 0)
				p, err := playSession(openLibSession(sys, s), shape, o, nil)
				if err != nil {
					return nil, fmt.Errorf("script %q: %w", q.Name, err)
				}
				if len(p.marks[0]) < firstMarks || len(p.ids) == 0 {
					continue
				}
				out = append(out, script{query: q.Name, targets: q.Targets, seed: s, marks: p.marks, expect: p.ids, labels: p.labels})
				found = true
			}
			if !found {
				return nil, fmt.Errorf("script %q: no display seed shows the target in round 1", q.Name)
			}
		}
	}
	return out, nil
}

// scriptQuality is the quality of the scripts' expected answers. A served
// session is failed unless it returns exactly its script's answer, so this is
// the quality of what the clients were given, each script weighing the same
// however often the window got round the list.
func scriptQuality(scripts []script) *qualityMean {
	q := &qualityMean{}
	for _, sc := range scripts {
		q.add(sc.labels, newOracle(sc.targets, 0).targets)
	}
	return q
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// qualityMean averages the quality of finalized retrievals. Every set it
// is fed is fixed by corpusSeed and summed in a fixed order, so the means
// repeat bit for bit from run to run and seed to seed.
type qualityMean struct {
	precision, gtir float64
	n               int
}

func (q *qualityMean) add(labels []string, targets map[string]bool) {
	p, g := quality(labels, targets)
	q.precision += p
	q.gtir += g
	q.n++
}

// means returns (gtir, precision).
func (q *qualityMean) means() (gtir, precision float64) {
	if q.n == 0 {
		return 0, 0
	}
	return q.gtir / float64(q.n), q.precision / float64(q.n)
}
