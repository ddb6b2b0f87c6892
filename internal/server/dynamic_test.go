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
	"strings"
	"sync"
	"testing"

	"qdcbir/internal/seg"
	"qdcbir/internal/vec"
)

// testDynStore is a minimal DynamicStore over the segmented engine — the
// same wrapping the root package's Dynamic type provides.
type testDynStore struct {
	db     *seg.DB
	mu     sync.RWMutex
	labels map[int]string
}

func (s *testDynStore) DB() *seg.DB { return s.db }

func (s *testDynStore) Insert(v vec.Vector, label string) (int, error) {
	id, err := s.db.Insert(v)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.labels[id] = label
	s.mu.Unlock()
	return id, nil
}

func (s *testDynStore) Delete(id int) error {
	if err := s.db.Delete(id); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.labels, id)
	s.mu.Unlock()
	return nil
}

func (s *testDynStore) LabelOf(id int) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.labels[id]
}

func (s *testDynStore) Compact(ctx context.Context) error { return s.db.Compact(ctx) }

func (s *testDynStore) Stats() seg.Stats { return s.db.Stats() }

func newTestDynServer(t *testing.T) (*testDynStore, *httptest.Server) {
	t.Helper()
	db, err := seg.New(seg.Config{
		Dim: 5, SealThreshold: 16, MaxSegments: 2, Seed: 3,
		NodeCapacity: 8, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := &testDynStore{db: db, labels: make(map[int]string)}
	ts := httptest.NewServer(NewDynamic(ds, nil).Handler())
	t.Cleanup(func() { ts.Close(); db.Close() })
	return ds, ts
}

// postJSON posts body and returns (status, error code). On 200 the response
// decodes into out (when non-nil); otherwise the uniform error body's code
// is returned.
func dynPost(t *testing.T, url string, body, out interface{}) (int, string) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, ""
	}
	var e errorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e.Code
}

func dynGet(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestDynamicIngestEndpoints(t *testing.T) {
	_, ts := newTestDynServer(t)
	rng := rand.New(rand.NewSource(8))

	// Insert enough rows to seal segments.
	var lastEpoch uint64
	for i := 0; i < 40; i++ {
		v := make([]float64, 5)
		for j := range v {
			v[j] = rng.Float64()
		}
		var ir InsertResponse
		if code, _ := dynPost(t, ts.URL+"/v1/images", InsertRequest{Vector: v, Label: fmt.Sprintf("img-%d", i)}, &ir); code != http.StatusOK {
			t.Fatalf("insert %d: status %d", i, code)
		}
		if ir.ID != i {
			t.Fatalf("insert %d got ID %d", i, ir.ID)
		}
		if ir.Epoch <= lastEpoch {
			t.Fatalf("insert %d: epoch %d did not advance past %d", i, ir.Epoch, lastEpoch)
		}
		lastEpoch = ir.Epoch
	}

	// GET reports the label; DELETE tombstones; GET then 404s.
	var img ImageResponse
	if code := dynGet(t, ts.URL+"/v1/images/7", &img); code != http.StatusOK {
		t.Fatalf("get image: status %d", code)
	}
	if img.Label != "img-7" {
		t.Fatalf("label %q", img.Label)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/images/7", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if code := dynGet(t, ts.URL+"/v1/images/7", nil); code != http.StatusNotFound {
		t.Fatalf("get deleted image: status %d", code)
	}

	// Info and buildinfo reflect the live segmented state.
	var info InfoResponse
	if code := dynGet(t, ts.URL+"/v1/info", &info); code != http.StatusOK || info.Images != 39 {
		t.Fatalf("info: code %d images %d", code, info.Images)
	}
	var bi BuildInfoResponse
	if code := dynGet(t, ts.URL+"/v1/buildinfo", &bi); code != http.StatusOK {
		t.Fatalf("buildinfo: %d", code)
	}
	if !bi.Dynamic || bi.Images != 39 || bi.Segments < 2 || bi.Epoch == 0 || bi.Tombstones != 1 {
		t.Fatalf("buildinfo: %+v", bi)
	}

	// Query by examples never returns the tombstoned image.
	var qr QueryResponse
	if code, _ := dynPost(t, ts.URL+"/v1/query", QueryRequest{Relevant: []int{2, 3, 11}, K: 10}, &qr); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	n := 0
	for _, g := range qr.Groups {
		for _, im := range g.Images {
			if im.ID == 7 {
				t.Fatal("query returned tombstoned image")
			}
			n++
		}
	}
	if n != 10 {
		t.Fatalf("query returned %d images", n)
	}

	// Compaction merges down to one segment without losing rows.
	var cr CompactResponse
	if code, _ := dynPost(t, ts.URL+"/v1/compact", struct{}{}, &cr); code != http.StatusOK {
		t.Fatalf("compact: status %d", code)
	}
	if cr.Segments != 1 || cr.Live != 39 || cr.Compactions == 0 {
		t.Fatalf("compact: %+v", cr)
	}
}

func TestDynamicHostedSessions(t *testing.T) {
	ds, ts := newTestDynServer(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		v := make(vec.Vector, 5)
		for j := range v {
			v[j] = rng.Float64()
		}
		if _, err := ds.Insert(v, fmt.Sprintf("img-%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	var sr SessionResponse
	if code, _ := dynPost(t, ts.URL+"/v1/sessions", map[string]int64{"seed": 11}, &sr); code != http.StatusOK {
		t.Fatalf("session create: %d", code)
	}
	base := ts.URL + "/v1/sessions/" + sr.SessionID

	var cands struct {
		Candidates []CandidateJSON `json:"candidates"`
	}
	if code := dynGet(t, base+"/candidates", &cands); code != http.StatusOK || len(cands.Candidates) == 0 {
		t.Fatalf("candidates: code %d count %d", code, len(cands.Candidates))
	}
	if cands.Candidates[0].Label == "" {
		t.Fatal("candidate label missing")
	}

	var fr FeedbackResponse
	marked := []int{cands.Candidates[0].ID, cands.Candidates[1].ID}
	if code, _ := dynPost(t, base+"/feedback", FeedbackRequest{Relevant: marked}, &fr); code != http.StatusOK {
		t.Fatalf("feedback: %d", code)
	}
	if fr.Relevant != 2 || fr.Subqueries == 0 {
		t.Fatalf("feedback: %+v", fr)
	}

	// Export carries the snapshot-independent state; import re-pins the
	// importing server's current snapshot.
	var ex SessionExport
	if code := dynGet(t, base+"/export", &ex); code != http.StatusOK || ex.State == nil {
		t.Fatalf("export: code %d, state %v", code, ex.State)
	}
	if len(ex.State.Relevant) != 2 || ex.State.Rounds != 1 {
		t.Fatalf("exported state: %+v", ex.State)
	}
	var sr2 SessionResponse
	if code, _ := dynPost(t, ts.URL+"/v1/sessions/import", ex, &sr2); code != http.StatusOK {
		t.Fatalf("import: %d", code)
	}
	// Dynamic sessions retract like every other backing: a second import
	// drops one mark, and its export shows the panel without it.
	var sr3 SessionResponse
	if code, _ := dynPost(t, ts.URL+"/v1/sessions/import", ex, &sr3); code != http.StatusOK {
		t.Fatalf("second import: %d", code)
	}
	var rr FeedbackResponse
	if code, _ := dynPost(t, ts.URL+"/v1/sessions/"+sr3.SessionID+"/retract", FeedbackRequest{Relevant: marked[:1]}, &rr); code != http.StatusOK || rr.Relevant != 1 {
		t.Fatalf("retract: code %d, %+v", code, rr)
	}
	var ex3 SessionExport
	if code := dynGet(t, ts.URL+"/v1/sessions/"+sr3.SessionID+"/export", &ex3); code != http.StatusOK || !reflect.DeepEqual(ex3.State.Relevant, marked[1:]) {
		t.Fatalf("export after retract: code %d, state %+v", code, ex3.State)
	}

	var qr QueryResponse
	if code, _ := dynPost(t, base+"/finalize", map[string]int{"k": 12}, &qr); code != http.StatusOK {
		t.Fatalf("finalize: %d", code)
	}
	n := 0
	for _, g := range qr.Groups {
		n += len(g.Images)
	}
	if n != 12 {
		t.Fatalf("finalize returned %d images", n)
	}

	// The imported session finalizes identically: same panel, same snapshot
	// contents (nothing was written in between).
	var qr2 QueryResponse
	if code, _ := dynPost(t, ts.URL+"/v1/sessions/"+sr2.SessionID+"/finalize", map[string]int{"k": 12}, &qr2); code != http.StatusOK {
		t.Fatalf("imported finalize: %d", code)
	}
	if !reflect.DeepEqual(qr, qr2) {
		t.Fatalf("imported finalize diverges:\n  orig %+v\n  imported %+v", qr, qr2)
	}

	// Importing a panel containing a tombstoned image is rejected.
	if err := ds.Delete(marked[0]); err != nil {
		t.Fatal(err)
	}
	if code, _ := dynPost(t, ts.URL+"/v1/sessions/import", ex, nil); code != http.StatusBadRequest {
		t.Fatalf("import with tombstoned relevant: %d", code)
	}
	// Finalized sessions are released (and their snapshot pin dropped).
	if code := dynGet(t, base+"/candidates", nil); code != http.StatusNotFound {
		t.Fatalf("post-finalize candidates: %d", code)
	}
	// The payload endpoint is meaningless for a mutable corpus.
	if code := dynGet(t, ts.URL+"/v1/payload", nil); code != http.StatusNotImplemented {
		t.Fatalf("payload: %d", code)
	}
}

func TestStaticServerRejectsWrites(t *testing.T) {
	eng, corpus := testSystem(t)
	srv := New(eng, corpus.SubconceptOf)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, ec := dynPost(t, ts.URL+"/v1/images", InsertRequest{Vector: []float64{1}}, nil)
	if code != http.StatusConflict {
		t.Fatalf("static insert: status %d", code)
	}
	if ec != ErrCodeReadOnly {
		t.Fatalf("static insert code %q", ec)
	}
}

// TestQueryHugeKIsBounded: k arrives from the network and no layer between
// the handler and the tree's selector may size anything by it. A query asking
// for 2^40 results answers 200 with at most the corpus, on a static server
// and on a dynamic one (sealed segments plus a memtable).
func TestQueryHugeKIsBounded(t *testing.T) {
	const hugeK = `{"relevant":[2,3,11],"k":1099511627776}`
	count := func(t *testing.T, url string, corpus int) {
		t.Helper()
		resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(hugeK))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, g := range qr.Groups {
			n += len(g.Images)
		}
		if n == 0 || n > corpus {
			t.Fatalf("%d images returned from a corpus of %d", n, corpus)
		}
	}
	t.Run("static", func(t *testing.T) {
		_, ts, corpus := newTestServer(t)
		count(t, ts.URL, corpus.Len())
	})
	t.Run("dynamic", func(t *testing.T) {
		_, ts := newTestDynServer(t)
		rng := rand.New(rand.NewSource(8))
		const rows = 40 // two sealed segments and a memtable
		for i := 0; i < rows; i++ {
			v := make([]float64, 5)
			for j := range v {
				v[j] = rng.Float64()
			}
			if code, _ := dynPost(t, ts.URL+"/v1/images", InsertRequest{Vector: v}, nil); code != http.StatusOK {
				t.Fatalf("insert %d: status %d", i, code)
			}
		}
		count(t, ts.URL, rows)
	})
}

// TestQueryRejectsNegativeWeights: a negative weight voids the weighted
// MINDIST lower bound every search prunes with, so /v1/query answers 400 for
// one, on a static server and on a dynamic one alike.
func TestQueryRejectsNegativeWeights(t *testing.T) {
	query := func(t *testing.T, url string, dim int) {
		t.Helper()
		weights := make([]float64, dim)
		for i := range weights {
			weights[i] = 1
		}
		if code, _ := dynPost(t, url+"/v1/query", QueryRequest{Relevant: []int{2, 3, 11}, K: 10, Weights: weights}, nil); code != http.StatusOK {
			t.Fatalf("non-negative weights: status %d, want 200", code)
		}
		weights[1] = -1
		if code, _ := dynPost(t, url+"/v1/query", QueryRequest{Relevant: []int{2, 3, 11}, K: 10, Weights: weights}, nil); code != http.StatusBadRequest {
			t.Fatalf("negative weight: status %d, want 400", code)
		}
	}
	t.Run("static", func(t *testing.T) {
		_, ts, corpus := newTestServer(t)
		query(t, ts.URL, len(corpus.Vectors[0]))
	})
	t.Run("dynamic", func(t *testing.T) {
		_, ts := newTestDynServer(t)
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 40; i++ {
			v := make([]float64, 5)
			for j := range v {
				v[j] = rng.Float64()
			}
			if code, _ := dynPost(t, ts.URL+"/v1/images", InsertRequest{Vector: v}, nil); code != http.StatusOK {
				t.Fatalf("insert %d: status %d", i, code)
			}
		}
		query(t, ts.URL, 5)
	})
}
