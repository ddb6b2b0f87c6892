package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"qdcbir/internal/core"
	"qdcbir/internal/dataset"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
)

var (
	fixOnce   sync.Once
	fixEngine *core.Engine
	fixCorpus *dataset.Corpus
)

// testSystem builds one shared small system (image-mode corpus so labels are
// meaningful).
func testSystem(t *testing.T) (*core.Engine, *dataset.Corpus) {
	t.Helper()
	fixOnce.Do(func() {
		spec := dataset.SmallSpec(3, 12, 500)
		fixCorpus = dataset.Build(spec, dataset.Options{Seed: 4})
		structure := rfs.Build(fixCorpus.Vectors, rfs.BuildConfig{
			RepFraction: 0.2,
			Tree:        rstar.Config{MaxFill: 24},
			TargetFill:  20,
			Seed:        5,
		})
		fixEngine = core.NewEngine(structure, core.Config{})
	})
	if fixEngine == nil {
		t.Fatal("fixture build failed")
	}
	return fixEngine, fixCorpus
}

func newTestServer(t *testing.T) (*Server, *httptest.Server, *dataset.Corpus) {
	t.Helper()
	eng, corpus := testSystem(t)
	srv := New(eng, corpus.SubconceptOf)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, corpus
}

func postJSON(t *testing.T, url string, body interface{}, out interface{}) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestInfoEndpoint(t *testing.T) {
	_, ts, corpus := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Images != corpus.Len() {
		t.Errorf("images = %d want %d", info.Images, corpus.Len())
	}
	if info.TreeHeight < 2 || info.Representatives == 0 {
		t.Errorf("info = %+v", info)
	}
	// Wrong method rejected.
	if r, _ := http.Post(ts.URL+"/v1/info", "application/json", nil); r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/info = %d", r.StatusCode)
	}
}

func TestPayloadEndpointAndValidation(t *testing.T) {
	_, ts, corpus := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/payload")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p Payload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("payload invalid: %v", err)
	}
	if p.Images != corpus.Len() {
		t.Errorf("payload images = %d", p.Images)
	}
	// Payload is the paper's "small fraction": well under the corpus size.
	if reps := p.RepCount(); reps == 0 || reps > corpus.Len()/2 {
		t.Errorf("payload reps = %d of %d", reps, corpus.Len())
	}
	// Labels present for reps.
	if len(p.Labels) == 0 {
		t.Error("no labels in payload")
	}
}

func TestThinClientSessionFlow(t *testing.T) {
	_, ts, _ := newTestServer(t)

	var sess SessionResponse
	postJSON(t, ts.URL+"/v1/sessions", map[string]int64{"seed": 42}, &sess)
	if sess.SessionID == "" {
		t.Fatal("no session id")
	}
	base := ts.URL + "/v1/sessions/" + sess.SessionID

	// Find bird candidates across a few displays.
	targets := map[string]bool{}
	for _, q := range dataset.PaperQueries() {
		if q.Name == "Bird" {
			for _, tgt := range q.Targets {
				targets[tgt] = true
			}
		}
	}
	var marks []int
	for d := 0; d < 20 && len(marks) < 6; d++ {
		resp, err := http.Get(base + "/candidates")
		if err != nil {
			t.Fatal(err)
		}
		var cands struct {
			Candidates []CandidateJSON `json:"candidates"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&cands); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, c := range cands.Candidates {
			if targets[c.Label] && len(marks) < 6 {
				marks = append(marks, c.ID)
			}
		}
	}
	if len(marks) == 0 {
		t.Skip("no bird representatives surfaced in 20 displays")
	}
	var fb FeedbackResponse
	postJSON(t, base+"/feedback", FeedbackRequest{Relevant: marks}, &fb)
	if fb.Relevant == 0 || fb.Subqueries == 0 {
		t.Fatalf("feedback response %+v", fb)
	}

	var result QueryResponse
	postJSON(t, base+"/finalize", map[string]int{"k": 12}, &result)
	total := 0
	for _, g := range result.Groups {
		total += len(g.Images)
		for _, im := range g.Images {
			if im.Label == "" {
				t.Error("result image without label")
			}
		}
	}
	if total != 12 {
		t.Errorf("finalize returned %d images", total)
	}
	// Finalized session is gone.
	resp, _ := http.Get(base + "/candidates")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("finalized session still alive: %d", resp.StatusCode)
	}
}

func TestSessionErrorsAndDelete(t *testing.T) {
	srv, ts, _ := newTestServer(t)

	// Unknown session.
	resp, _ := http.Get(ts.URL + "/v1/sessions/99999/candidates")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session = %d", resp.StatusCode)
	}
	// Bad JSON.
	r2, _ := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{")))
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json = %d", r2.StatusCode)
	}
	// Feedback for undisplayed image.
	var sess SessionResponse
	postJSON(t, ts.URL+"/v1/sessions", nil, &sess)
	resp3 := postJSON(t, ts.URL+"/v1/sessions/"+sess.SessionID+"/feedback",
		FeedbackRequest{Relevant: []int{123456}}, nil)
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("undisplayed feedback = %d", resp3.StatusCode)
	}
	// Delete removes the session.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sess.SessionID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dr.StatusCode != http.StatusOK {
		t.Errorf("delete = %d", dr.StatusCode)
	}
	if srv.SessionCount() != 0 {
		t.Errorf("sessions remain: %d", srv.SessionCount())
	}
}

func TestStatelessQueryEndpoint(t *testing.T) {
	_, ts, corpus := newTestServer(t)
	// Example images: a few eagles and a few owls — scattered clusters.
	eagles := corpus.SubconceptIDs(dataset.Key("bird", "eagle"))
	owls := corpus.SubconceptIDs(dataset.Key("bird", "owl"))
	req := QueryRequest{Relevant: append(append([]int{}, eagles[:3]...), owls[:3]...), K: 16}
	var out QueryResponse
	postJSON(t, ts.URL+"/v1/query", req, &out)
	if len(out.Groups) < 2 {
		t.Fatalf("expected multiple groups, got %d", len(out.Groups))
	}
	var gotEagle, gotOwl bool
	total := 0
	for _, g := range out.Groups {
		for _, im := range g.Images {
			total++
			switch corpus.SubconceptOf(im.ID) {
			case dataset.Key("bird", "eagle"):
				gotEagle = true
			case dataset.Key("bird", "owl"):
				gotOwl = true
			}
		}
	}
	if total != 16 {
		t.Errorf("returned %d of 16", total)
	}
	if !gotEagle || !gotOwl {
		t.Error("stateless query missed a neighborhood")
	}
	// Errors: no examples, bad k, unknown image.
	if r := postJSON(t, ts.URL+"/v1/query", QueryRequest{K: 5}, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("empty examples = %d", r.StatusCode)
	}
	if r := postJSON(t, ts.URL+"/v1/query", QueryRequest{Relevant: eagles[:1], K: 0}, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("k=0 = %d", r.StatusCode)
	}
	if r := postJSON(t, ts.URL+"/v1/query", QueryRequest{Relevant: []int{1 << 30}, K: 5}, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown image = %d", r.StatusCode)
	}
}

func TestClientSideSessionFlow(t *testing.T) {
	_, ts, corpus := newTestServer(t)
	client, err := Dial(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if client.Images() != corpus.Len() {
		t.Errorf("client images = %d", client.Images())
	}

	targets := map[string]bool{
		dataset.Key("car", "modern-sedan"): true,
		dataset.Key("car", "antique-car"):  true,
		dataset.Key("car", "steamed-car"):  true,
	}
	sess := client.NewSession(7, 21)
	for round := 0; round < 3; round++ {
		var marks []int
		seen := map[int]bool{}
		for d := 0; d < 15 && len(marks) < 6; d++ {
			for _, c := range sess.Candidates() {
				if !seen[c.ID] && targets[client.Label(c.ID)] && len(marks) < 6 {
					seen[c.ID] = true
					marks = append(marks, c.ID)
				}
			}
		}
		if err := sess.Feedback(marks); err != nil {
			t.Fatal(err)
		}
	}
	if len(sess.Frontier()) == 0 || len(sess.Relevant()) == 0 {
		t.Fatal("client session found nothing")
	}
	ctx := context.Background()
	res, err := client.Finalize(ctx, sess, 18)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	total := 0
	for _, g := range res.Groups {
		for _, im := range g.Images {
			total++
			if targets[corpus.SubconceptOf(im.ID)] {
				covered[corpus.SubconceptOf(im.ID)] = true
			}
		}
	}
	if total != 18 {
		t.Errorf("returned %d of 18", total)
	}
	if len(covered) < 2 {
		t.Errorf("client-side QD covered only %d car subconcepts", len(covered))
	}
	// Double finalize is an error; so is feedback after finalize.
	if _, err := client.Finalize(ctx, sess, 5); err == nil {
		t.Error("second finalize accepted")
	}
	if err := sess.Feedback(nil); err == nil {
		t.Error("feedback after finalize accepted")
	}
}

func TestClientRejectsUndisplayedMark(t *testing.T) {
	_, ts, _ := newTestServer(t)
	client, err := Dial(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := client.NewSession(1, 21)
	sess.Candidates()
	if err := sess.Feedback([]int{987654}); err == nil {
		t.Error("undisplayed mark accepted")
	}
}

func TestConcurrentSessions(t *testing.T) {
	_, ts, corpus := newTestServer(t)
	subs := corpus.Subconcepts()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			target := subs[rng.Intn(len(subs))]

			var sess SessionResponse
			data, _ := json.Marshal(map[string]int64{"seed": int64(w + 1)})
			resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			json.NewDecoder(resp.Body).Decode(&sess)
			resp.Body.Close()
			base := ts.URL + "/v1/sessions/" + sess.SessionID

			var marks []int
			for d := 0; d < 12 && len(marks) < 4; d++ {
				r, err := http.Get(base + "/candidates")
				if err != nil {
					errs <- err
					return
				}
				var cands struct {
					Candidates []CandidateJSON `json:"candidates"`
				}
				json.NewDecoder(r.Body).Decode(&cands)
				r.Body.Close()
				for _, c := range cands.Candidates {
					if c.Label == target && len(marks) < 4 {
						marks = append(marks, c.ID)
					}
				}
			}
			if len(marks) == 0 {
				return // unlucky target; not an error
			}
			fb, _ := json.Marshal(FeedbackRequest{Relevant: marks})
			r2, err := http.Post(base+"/feedback", "application/json", bytes.NewReader(fb))
			if err != nil {
				errs <- err
				return
			}
			r2.Body.Close()
			fin, _ := json.Marshal(map[string]int{"k": 10})
			r3, err := http.Post(base+"/finalize", "application/json", bytes.NewReader(fin))
			if err != nil {
				errs <- err
				return
			}
			if r3.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("worker %d finalize: %d", w, r3.StatusCode)
			}
			r3.Body.Close()
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSessionCapEviction(t *testing.T) {
	eng, corpus := testSystem(t)
	srv := New(eng, corpus.SubconceptOf)
	srv.SetMaxSessions(3)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		var sess SessionResponse
		postJSON(t, ts.URL+"/v1/sessions", map[string]int64{"seed": int64(i + 1)}, &sess)
		ids = append(ids, sess.SessionID)
	}
	if got := srv.SessionCount(); got > 3 {
		t.Fatalf("cap not enforced: %d sessions", got)
	}
	// The oldest sessions are gone; the newest survives.
	resp, _ := http.Get(ts.URL + "/v1/sessions/" + ids[0] + "/candidates")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted session still alive: %d", resp.StatusCode)
	}
	resp2, _ := http.Get(ts.URL + "/v1/sessions/" + ids[4] + "/candidates")
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("newest session dead: %d", resp2.StatusCode)
	}
	// SetMaxSessions ignores nonsense.
	srv.SetMaxSessions(0)
}

func TestBuildPayloadDirect(t *testing.T) {
	eng, corpus := testSystem(t)
	p, err := BuildPayload(eng, corpus.SubconceptOf)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.RepCount() != eng.RFS().RepCount() {
		t.Errorf("payload reps %d != structure reps %d", p.RepCount(), eng.RFS().RepCount())
	}
	// Corrupt payloads are rejected.
	bad := &Payload{Root: &PayloadNode{ID: 1, Reps: []int{1}, Children: []*PayloadNode{{ID: 2, Reps: []int{2}}}}}
	if err := bad.Validate(); err == nil {
		t.Error("orphan internal rep accepted")
	}
	// A smart-client session keys its frontier, cursors and exported state
	// by node ID, so IDs must be distinct.
	twin := &Payload{Root: &PayloadNode{ID: 1, Reps: []int{2}, Children: []*PayloadNode{{ID: 1, Reps: []int{2}}}}}
	if err := twin.Validate(); err == nil {
		t.Error("repeated node id accepted")
	}
	if err := (&Payload{}).Validate(); err == nil {
		t.Error("empty payload accepted")
	}
}

// TestRejectedFeedbackLeavesSessionUnchanged: a feedback round naming an
// undisplayed image beside a displayed one answers 400 and changes nothing —
// not the panel, not the round count.
func TestRejectedFeedbackLeavesSessionUnchanged(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var sess SessionResponse
	postJSON(t, ts.URL+"/v1/sessions", map[string]int64{"seed": 3}, &sess)
	base := ts.URL + "/v1/sessions/" + sess.SessionID
	var cands struct {
		Candidates []CandidateJSON `json:"candidates"`
	}
	getJSON(t, base+"/candidates", &cands)
	if len(cands.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	var before, after SessionExport
	getJSON(t, base+"/export", &before)
	shown := cands.Candidates[0].ID
	if r := postJSON(t, base+"/feedback", FeedbackRequest{Relevant: []int{shown, 1 << 30}}, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("feedback with an undisplayed image = %d", r.StatusCode)
	}
	getJSON(t, base+"/export", &after)
	if !reflect.DeepEqual(after, before) || after.State.Rounds != 0 || len(after.State.Relevant) != 0 {
		t.Fatalf("rejected round changed the session:\n  before %+v\n  after  %+v", before.State, after.State)
	}
	var fb FeedbackResponse
	postJSON(t, base+"/feedback", FeedbackRequest{Relevant: []int{shown}}, &fb)
	if fb.Relevant != 1 {
		t.Fatalf("valid round after a rejected one: %+v", fb)
	}
}
