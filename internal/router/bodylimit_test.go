package router

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qdcbir/internal/server"
)

// readCounter counts the reads a handler makes of a request body.
type readCounter struct {
	r     *strings.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestRouterBoundsRequestBodies: the router refuses a body past what its
// endpoint can carry — a k-NN query by the corpus dimension, a one-shot query
// and session feedback by the image count too — with 413 body_too_large,
// before reading any of a body that declares its length.
func TestRouterBoundsRequestBodies(t *testing.T) {
	f := fixture(t)
	cfgs := make([]ReplicaConfig, len(f.blobs))
	for i := range cfgs {
		cfgs[i] = ReplicaConfig{Shard: i, URL: startReplica(t, f.blobs[i]).URL}
	}
	rt, rts := startRouter(t, cfgs)
	var created struct {
		SessionID string `json:"session_id"`
	}
	mustJSON(t, http.MethodPost, rts.URL+"/v1/sessions", map[string]int64{"seed": 3}, &created)
	m := rt.Meta()
	for path, limit := range map[string]int64{
		"/v1/knn":   server.VectorBodyLimit(m.Dim),
		"/v1/query": server.QueryBodyLimit(m.Images, m.Dim),
		"/v1/sessions/" + created.SessionID + "/feedback": server.IDListBodyLimit(m.Images),
	} {
		body := &readCounter{r: strings.NewReader(`{"k":5}`)}
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = limit + 1
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		var e struct {
			Code string `json:"code"`
		}
		if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Code != server.ErrCodeBodyTooLarge || body.reads != 0 {
			t.Errorf("%s: %d bytes declared over a %d-byte limit: HTTP %d %s after %d reads, want 413 %s and no read",
				path, limit+1, limit, rec.Code, rec.Body.Bytes(), body.reads, server.ErrCodeBodyTooLarge)
		}
	}
	// A query as long as the bound allows, sent without a length, is
	// refused once it crosses the bound instead of decoded whole.
	long := `{"k":5,"query":[` + strings.Repeat("0.5,", int(server.VectorBodyLimit(m.Dim))/4) + `0.5]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/knn", strings.NewReader(long))
	req.ContentLength = -1
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("/v1/knn: %d undeclared bytes: HTTP %d %s, want 413", len(long), rec.Code, rec.Body.Bytes())
	}
}
