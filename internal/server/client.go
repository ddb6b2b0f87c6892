package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"

	"qdcbir/internal/core"
	"qdcbir/internal/vec"
)

// Client implements the paper's client-side configuration: it downloads the
// representative payload once, runs the entire relevance-feedback loop
// locally (candidate display, marking, query decomposition descent — the
// same round machine a hosted session runs, over the payload), and contacts
// the server exactly once per query — to run the final localized k-NN
// subqueries (§4). This is the property the paper credits for the
// technique's scalability to "a very large user community".
type Client struct {
	base    string
	hc      *http.Client
	payload *Payload
	tree    core.Hierarchy[*PayloadNode, int]
}

// Dial fetches the server's payload and prepares a client. httpClient may be
// nil (http.DefaultClient).
func Dial(baseURL string, httpClient *http.Client) (*Client, error) {
	return DialContext(context.Background(), baseURL, httpClient)
}

// DialContext is Dial with cancellation of the payload download.
func DialContext(ctx context.Context, baseURL string, httpClient *http.Client) (*Client, error) {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{base: baseURL, hc: httpClient}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/payload", nil)
	if err != nil {
		return nil, fmt.Errorf("server: fetch payload: %w", err)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("server: fetch payload: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var p Payload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, fmt.Errorf("server: decode payload: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c.payload = &p
	c.tree = p.Hierarchy()
	return c, nil
}

// Images returns the size of the served database.
func (c *Client) Images() int { return c.payload.Images }

// RepCount returns the number of representatives in the local payload.
func (c *Client) RepCount() int { return c.payload.RepCount() }

// Label returns a representative's display label.
func (c *Client) Label(id int) string { return c.payload.Labels[id] }

// NewSession starts a feedback session executed entirely on the client: the
// round machine over the payload, so displays and descent need no server
// round trip. displayCount <= 0 uses core.DefaultDisplayCount.
func (c *Client) NewSession(seed int64, displayCount int) *core.Machine[*PayloadNode, int] {
	return core.NewMachine(c.tree, rand.New(rand.NewSource(seed)), displayCount)
}

// Finalize submits the session's final query images to the server — the
// session's only server round trip — and returns the merged localized k-NN
// results. The context covers the whole round trip, so a slow server-side
// query can be abandoned. Only a returned result consumes the session: after
// an error (a 503 with Retry-After, a cancelled context) the same session
// can finalize again, as a hosted one can.
func (c *Client) Finalize(ctx context.Context, sess *core.Machine[*PayloadNode, int], k int) (*QueryResponse, error) {
	return core.Finalize(sess, k, func(relevant []int, weights vec.Vector) (*QueryResponse, core.Stats, error) {
		out, err := c.query(ctx, QueryRequest{Relevant: relevant, K: k, Weights: weights})
		if err != nil {
			return nil, core.Stats{}, err
		}
		return out, core.Stats{FinalReads: out.Stats.FinalReads, Expansions: out.Stats.Expansions}, nil
	})
}

func (c *Client) query(ctx context.Context, q QueryRequest) (*QueryResponse, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("server: query: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("server: query: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("server: decode result: %w", err)
	}
	return &out, nil
}

// decodeError converts a non-200 response into an error.
func decodeError(resp *http.Response) error {
	var e errorResponse
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
}
