package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// expectDeadline503 posts a valid query and demands the structured overload
// response: 503, Retry-After, and the machine-readable error code.
func expectDeadline503(t *testing.T, url string, header http.Header) {
	t.Helper()
	data, err := json.Marshal(QueryRequest{Relevant: []int{1, 2, 3}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/query", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d (%s), want 503", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", ra)
	}
	var body struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("non-JSON error body %q: %v", raw, err)
	}
	if body.Code != ErrCodeDeadline {
		t.Fatalf("error code %q (%s), want %q", body.Code, raw, ErrCodeDeadline)
	}
	if body.Error == "" {
		t.Fatal("empty error message")
	}
}

// TestQueryDeadlineStructuredError pins the overload contract: when the
// server-side time budget expires mid-query, clients get a retryable 503 with
// Retry-After and code "deadline_exceeded" — not a dropped connection or an
// opaque 500. The router leans on this shape to fail the scatter leg over to
// a sibling replica.
func TestQueryDeadlineStructuredError(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	srv.SetQueryTimeout(time.Nanosecond)
	defer srv.SetQueryTimeout(0)
	expectDeadline503(t, ts.URL, nil)
}

// TestDeadlineHeaderTightensContext covers the propagated form: the router's
// X-Qd-Deadline-Ms header imposes a budget on a server with none of its own,
// tightens a looser configured budget, and can never widen a tighter one.
func TestDeadlineHeaderTightensContext(t *testing.T) {
	eng, corpus := testSystem(t)
	srv := New(eng, corpus.SubconceptOf)
	var deadline time.Time
	var has bool
	h := srv.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadline, has = r.Context().Deadline()
	}))
	probe := func(headerMS string) (time.Time, bool) {
		req := httptest.NewRequest(http.MethodGet, "/v1/info", nil)
		if headerMS != "" {
			req.Header.Set("X-Qd-Deadline-Ms", headerMS)
		}
		h.ServeHTTP(httptest.NewRecorder(), req)
		return deadline, has
	}

	if _, ok := probe(""); ok {
		t.Fatal("no budget configured yet the context has a deadline")
	}
	if dl, ok := probe("50"); !ok || time.Until(dl) > 50*time.Millisecond {
		t.Fatalf("header alone: deadline %v (has=%v), want within 50ms", dl, ok)
	}
	srv.SetQueryTimeout(10 * time.Millisecond)
	if dl, ok := probe("5000"); !ok || time.Until(dl) > 20*time.Millisecond {
		t.Fatalf("header must not widen the configured 10ms budget (deadline %v, has=%v)", dl, ok)
	}
	if dl, ok := probe("2"); !ok || time.Until(dl) > 5*time.Millisecond {
		t.Fatalf("header should tighten the configured budget (deadline %v, has=%v)", dl, ok)
	}
	if _, ok := probe("not-a-number"); !ok {
		t.Fatal("malformed header should fall back to the configured budget, not clear it")
	}
}

// TestFinalizeRetryAfterDeadline: the 503 a hosted finalize answers when its
// budget lapses carries Retry-After, so the retry must be answered — with the
// result and the cost figures of a session that finalized once.
func TestFinalizeRetryAfterDeadline(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	play := func() string {
		var sess SessionResponse
		postJSON(t, ts.URL+"/v1/sessions", map[string]int64{"seed": 7}, &sess)
		base := ts.URL + "/v1/sessions/" + sess.SessionID
		resp, err := http.Get(base + "/candidates")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var cands struct {
			Candidates []CandidateJSON `json:"candidates"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&cands); err != nil || len(cands.Candidates) < 3 {
			t.Fatalf("candidates: %v (%d shown)", err, len(cands.Candidates))
		}
		marks := []int{cands.Candidates[0].ID, cands.Candidates[1].ID, cands.Candidates[2].ID}
		if r := postJSON(t, base+"/feedback", FeedbackRequest{Relevant: marks}, nil); r.StatusCode != http.StatusOK {
			t.Fatalf("feedback: HTTP %d", r.StatusCode)
		}
		return base
	}
	finalize := func(base string) (int, http.Header, []byte) {
		resp, err := http.Post(base+"/finalize", "application/json", bytes.NewReader([]byte(`{"k":12}`)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, raw
	}
	clean, retried := play(), play()
	status, _, want := finalize(clean)
	if status != http.StatusOK {
		t.Fatalf("clean finalize: HTTP %d (%s)", status, want)
	}

	srv.SetQueryTimeout(time.Nanosecond)
	status, header, raw := finalize(retried)
	srv.SetQueryTimeout(0)
	if status != http.StatusServiceUnavailable || header.Get("Retry-After") == "" || !bytes.Contains(raw, []byte(ErrCodeDeadline)) {
		t.Fatalf("finalize past its budget: HTTP %d, Retry-After %q, body %s", status, header.Get("Retry-After"), raw)
	}
	status, _, got := finalize(retried)
	if status != http.StatusOK {
		t.Fatalf("retried finalize: HTTP %d (%s)", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("retried finalize differs from a first finalize:\n  retry %s\n  first %s", got, want)
	}
}
