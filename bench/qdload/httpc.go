package main

// The end-to-end half speaks to the servers only through their HTTP wire
// format. The request/response shapes are declared here, by JSON field name,
// rather than imported from internal/server or internal/router: the wire
// format is the contract a later refactor must keep, the Go types are not.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

type neighbor struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

func sortNeighbors(ns []neighbor) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Dist != ns[j].Dist {
			return ns[i].Dist < ns[j].Dist
		}
		return ns[i].ID < ns[j].ID
	})
}

type knnRequest struct {
	Query []float64 `json:"query"`
	K     int       `json:"k"`
}

type knnResponse struct {
	Neighbors []neighbor `json:"neighbors"`
}

type queryRequest struct {
	Relevant []int `json:"relevant"`
	K        int   `json:"k"`
}

type scoredJSON struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
	Label string  `json:"label"`
}

type groupJSON struct {
	QueryImages []int        `json:"query_images"`
	Images      []scoredJSON `json:"images"`
}

type queryResponse struct {
	Groups []groupJSON `json:"groups"`
	Stats  struct {
		FeedbackReads uint64 `json:"feedback_reads"`
		FinalReads    uint64 `json:"final_reads"`
		Expansions    int    `json:"expansions"`
	} `json:"stats"`
}

// flat lists a finalize reply's images in presentation order.
func (r *queryResponse) flat() (ids []int, labels []string) {
	for _, g := range r.Groups {
		for _, im := range g.Images {
			ids = append(ids, im.ID)
			labels = append(labels, im.Label)
		}
	}
	return ids, labels
}

type sessionResponse struct {
	SessionID string `json:"session_id"`
}

type candidatesResponse struct {
	Candidates []struct {
		ID    int    `json:"id"`
		Label string `json:"label"`
	} `json:"candidates"`
}

type feedbackRequest struct {
	Relevant []int `json:"relevant"`
}

type insertRequest struct {
	Vector []float64 `json:"vector"`
	Label  string    `json:"label"`
}

type insertResponse struct {
	ID int `json:"id"`
}

// statusError is a non-2xx reply.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// wireBytes counts generator-side request and response body bytes
// (server.req_bytes_mean / server.resp_bytes_mean).
type wireBytes struct{ calls, req, resp atomic.Int64 }

// apiClient is one closed-loop client: one keep-alive connection, so its
// next request cannot start before the previous reply was read.
type apiClient struct {
	base  string
	hc    *http.Client
	bytes *wireBytes
}

func newAPIClient(base string, wb *wireBytes) *apiClient {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &apiClient{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, bytes: wb}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON reply into out (nil discards).
func (c *apiClient) do(method, path string, in, out interface{}) error {
	var body io.Reader
	var nreq int
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		nreq = len(raw)
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if c.bytes != nil {
		c.bytes.calls.Add(1)
		c.bytes.req.Add(int64(nreq))
		c.bytes.resp.Add(int64(len(raw)))
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		return &statusError{resp.StatusCode, string(raw)}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

func (c *apiClient) get(path string, out interface{}) error {
	return c.do(http.MethodGet, path, nil, out)
}
func (c *apiClient) post(path string, in, out interface{}) error {
	return c.do(http.MethodPost, path, in, out)
}
