package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// refusesOversized checks that handler answers a POST to path whose body
// runs past limit with 413 body_too_large: at once, reading nothing, when the
// body declares its length, and once the limit is crossed when it does not.
func refusesOversized(t *testing.T, h http.Handler, path string, limit int64) {
	t.Helper()
	refusesDeclared(t, h, path, limit)
	// An unknown field is skipped by the decoder, so only the bound stops it.
	long := `{"pad":"` + strings.Repeat("a", int(limit)) + `"}`
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(long))
	req.ContentLength = -1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var e errorResponse
	if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Code != ErrCodeBodyTooLarge {
		t.Errorf("%s: %d undeclared bytes over a %d-byte limit: HTTP %d %s, want 413 %s",
			path, len(long), limit, rec.Code, rec.Body.Bytes(), ErrCodeBodyTooLarge)
	}
}

// refusesDeclared checks that handler answers a POST to path whose body
// declares a length past limit with 413 body_too_large, reading none of it.
func refusesDeclared(t *testing.T, h http.Handler, path string, limit int64) {
	t.Helper()
	declared := &readCounter{r: strings.NewReader(`{"k":5}`)}
	req := httptest.NewRequest(http.MethodPost, path, declared)
	req.ContentLength = limit + 1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var e errorResponse
	if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Code != ErrCodeBodyTooLarge || declared.reads != 0 {
		t.Errorf("%s: %d bytes declared over a %d-byte limit: HTTP %d %s after %d reads, want 413 %s and no read",
			path, limit+1, limit, rec.Code, rec.Body.Bytes(), declared.reads, ErrCodeBodyTooLarge)
	}
}

// TestServerBoundsRequestBodies: every JSON body a static server decodes —
// the one-shot query and each hosted-session operation — is bounded by what
// it can carry, derived from the corpus's image count and dimension.
func TestServerBoundsRequestBodies(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	h := srv.Handler()
	images, dim := srv.bodyShape()
	var created struct {
		SessionID string `json:"session_id"`
	}
	if resp := postJSON(t, ts.URL+"/v1/sessions", map[string]int64{"seed": 1}, &created); resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: HTTP %d", resp.StatusCode)
	}
	sess := "/v1/sessions/" + created.SessionID
	// Creating a session reads a body only when it declares one.
	refusesDeclared(t, h, "/v1/sessions", bodySlack)
	for path, limit := range map[string]int64{
		"/v1/query":           QueryBodyLimit(images, dim),
		"/v1/sessions/import": sessionStateBodyLimit(images, dim),
		sess + "/feedback":    IDListBodyLimit(images),
		sess + "/retract":     IDListBodyLimit(images),
		sess + "/finalize":    bodySlack,
	} {
		refusesOversized(t, h, path, limit)
	}
	// A body inside its bound still answers.
	if resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Relevant: []int{1, 2}, K: 5}, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("bounded query: HTTP %d", resp.StatusCode)
	}
}

// TestDynamicServerBoundsRequestBodies: a dynamic server bounds inserts by
// the corpus dimension and ID lists by its live image count.
func TestDynamicServerBoundsRequestBodies(t *testing.T) {
	ds, _ := newTestDynServer(t)
	srv := NewDynamic(ds, nil)
	for i := 0; i < 20; i++ {
		if _, err := ds.Insert([]float64{float64(i), 1, 2, 3, 4}, ""); err != nil {
			t.Fatal(err)
		}
	}
	images, dim := srv.bodyShape()
	if images != 20 || dim != 5 {
		t.Fatalf("dynamic body shape (%d, %d), want (20, 5)", images, dim)
	}
	refusesOversized(t, srv.Handler(), "/v1/images", VectorBodyLimit(dim))
	refusesOversized(t, srv.Handler(), "/v1/query", QueryBodyLimit(images, dim))
	b, _ := json.Marshal(InsertRequest{Vector: []float64{1, 2, 3, 4, 5}})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/images", bytes.NewReader(b)))
	if rec.Code != http.StatusOK {
		t.Errorf("bounded insert: HTTP %d %s", rec.Code, rec.Body.Bytes())
	}
}
