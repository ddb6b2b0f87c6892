package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"qdcbir/internal/core"
	"qdcbir/internal/obs"
	"qdcbir/internal/par"
	"qdcbir/internal/server"
	"qdcbir/internal/shard"
	"qdcbir/internal/vec"
)

// ---- scatter primitives ----

// scatterSearcher satisfies shard.Searcher over HTTP: one leg per shard,
// merged with shard.MergeNeighbors. Each per-shard list is that shard's
// exact local top-k ascending by (distance, ID), so the merged prefix is
// bit-identical to a single-node search (see internal/shard).
type scatterSearcher struct{ rt *Router }

func (s scatterSearcher) SearchNode(ctx context.Context, nodeID uint64, q vec.Vector, weights []float64, k int) ([]shard.Neighbor, error) {
	rt := s.rt
	rt.scatters.Inc()
	st := stitchFrom(ctx)
	fanOff := st.Since()
	fanStart := time.Now()
	lists := make([][]shard.Neighbor, len(rt.shards))
	legNS := make([]int64, len(rt.shards))
	// Every leg asks the same question: frame it once, send the bytes N times.
	frame := framedBody(server.AppendShardSearch(nil,
		&server.ShardSearchRequest{NodeID: nodeID, Query: q, Weights: weights, K: k}))
	err := par.Do(ctx, len(rt.shards), rt.parallelism, func(i int) error {
		legStart := time.Now()
		var resp server.ShardSearchResponse
		if err := rt.doShard(ctx, i, http.MethodPost, "/v1/shard/search", frame, &resp); err != nil {
			return err
		}
		ns := make([]shard.Neighbor, len(resp.Neighbors))
		for j, n := range resp.Neighbors {
			ns[j] = shard.Neighbor(n)
		}
		lists[i] = ns
		legNS[i] = time.Since(legStart).Nanoseconds()
		return nil
	})
	fanDur := time.Since(fanStart)
	rt.fanoutHist.Observe(fanDur.Seconds())
	rt.obs.Windows().Observe("router:fanout", fanDur.Seconds())
	st.Span("fan-out", fanOff, fanDur.Nanoseconds(), map[string]any{
		"node": nodeID, "k": k, "shards": len(rt.shards),
	})
	// Straggler wait: once the fastest shard answered, the merge is blocked
	// on the slowest — that gap is what replication or hedging would buy back.
	var fastest, slowest int64 = -1, -1
	for _, ns := range legNS {
		if ns == 0 {
			continue // leg failed or never ran
		}
		if fastest < 0 || ns < fastest {
			fastest = ns
		}
		if ns > slowest {
			slowest = ns
		}
	}
	if fastest >= 0 && slowest > fastest {
		wait := float64(slowest-fastest) / 1e9
		rt.stragglerHist.Observe(wait)
		rt.obs.Windows().Observe("router:straggler_wait", wait)
	}
	if err != nil {
		return nil, err
	}
	mergeOff := st.Since()
	mergeStart := time.Now()
	merged := shard.MergeNeighbors(lists, k)
	mergeDur := time.Since(mergeStart)
	rt.mergeHist.Observe(mergeDur.Seconds())
	rt.obs.Windows().Observe("router:merge", mergeDur.Seconds())
	st.Span("merge", mergeOff, mergeDur.Nanoseconds(), map[string]any{
		"lists": len(lists), "k": k,
	})
	return merged, nil
}

// pointsReply is a /v1/shard/points reply read in the shard wire's binary
// framing: vectors arrive as float64 bytes, checked against the fleet's
// dimension.
type pointsReply struct {
	dim int
	server.ShardPointsResponse
}

func (p *pointsReply) UnmarshalBinary(raw []byte) (err error) {
	p.ShardPointsResponse, err = server.DecodeShardPoints(raw, p.dim)
	return err
}

// fetchPoints resolves image IDs to their exact vectors and full-tree
// leaves, asking only each image's owning shard (ownership is the
// consistent hash, so the router can compute it locally).
func (rt *Router) fetchPoints(ctx context.Context, ids []int) (map[int]server.ShardPointJSON, error) {
	byShard := make(map[int][]int)
	for _, id := range ids {
		owner := shard.Assign(id, len(rt.shards))
		byShard[owner] = append(byShard[owner], id)
	}
	shardsList := make([]int, 0, len(byShard))
	for sh := range byShard {
		shardsList = append(shardsList, sh)
	}
	sort.Ints(shardsList)
	st := stitchFrom(ctx)
	off := st.Since()
	fetchStart := time.Now()
	results := make([]pointsReply, len(shardsList))
	for i := range results {
		results[i].dim = rt.meta.Dim
	}
	err := par.Do(ctx, len(shardsList), rt.parallelism, func(i int) error {
		sh := shardsList[i]
		return rt.doShard(ctx, sh, http.MethodPost, "/v1/shard/points",
			server.ShardPointsRequest{IDs: byShard[sh]}, &results[i])
	})
	st.Span("fetch-points", off, time.Since(fetchStart).Nanoseconds(), map[string]any{
		"ids": len(ids), "shards": len(shardsList),
	})
	if err != nil {
		return nil, err
	}
	out := make(map[int]server.ShardPointJSON, len(ids))
	for _, resp := range results {
		for _, p := range resp.Points {
			out[p.ID] = p
		}
	}
	return out, nil
}

// ---- HTTP front ----

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/knn", rt.handleKNN)
	mux.HandleFunc("/v1/query", rt.handleQuery)
	mux.HandleFunc("/v1/sessions", rt.handleSessions)
	mux.HandleFunc("/v1/sessions/", rt.handleSessionOp)
	mux.HandleFunc("/v1/stats", rt.handleStats)
	mux.HandleFunc("/v1/buildinfo", rt.handleBuildInfo)
	mux.HandleFunc("/v1/latency", rt.handleLatency)
	mux.HandleFunc("/v1/traces", rt.handleTraces)
	mux.HandleFunc("/v1/slow", rt.handleSlow)
	mux.HandleFunc("/v1/fleet/latency", rt.handleFleetLatency)
	mux.HandleFunc("/v1/fleet/stats", rt.handleFleetStats)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.reqs.Inc()
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = "rt-" + strconv.FormatUint(rt.reqSeq.Add(1), 10)
		}
		w.Header().Set("X-Request-Id", reqID)
		endpoint := r.URL.Path
		if strings.HasPrefix(endpoint, "/v1/sessions/") {
			endpoint = "/v1/sessions/{id}"
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		// Routed retrieval requests get a cross-process trace: the stitch
		// rides the context, collecting router-side spans from the scatter
		// primitives and shard child spans from the transport.
		var st *obs.Stitch
		if kind := traceKind(r); kind != "" {
			st = obs.NewStitch(rt.stitchSeq.Add(1), reqID, kind, len(rt.shards))
			r = r.WithContext(withStitch(r.Context(), st))
		}
		start := time.Now()
		mux.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		rt.obs.Windows().Observe("endpoint:"+endpoint, elapsed.Seconds())
		if sw.status >= 400 {
			rt.errs.Inc()
		}
		var traceID uint64
		var legs []obs.ShardLeg
		if st != nil {
			var ferr error
			if sw.status >= 400 {
				ferr = fmt.Errorf("HTTP %d", sw.status)
			}
			legs = st.ShardBreakdown()
			stitched := st.Finish(ferr)
			rt.stitches.Add(stitched)
			traceID = stitched.ID
		}
		if slowWorthy(endpoint) {
			rt.slow.Record(obs.SlowQuery{
				RequestID:  reqID,
				Endpoint:   endpoint,
				Status:     sw.status,
				Start:      start,
				DurationNS: elapsed.Nanoseconds(),
				TraceID:    traceID,
				Shards:     legs,
			})
		}
	})
}

type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// writeBackendError maps a downstream failure onto the router's response:
// structured backend errors pass through status, code, and message (with
// Retry-After preserved on deadline expiry); anything else — connection
// failures after exhausting every replica — is a 502.
func writeBackendError(w http.ResponseWriter, err error) {
	var be *backendError
	if errors.As(err, &be) {
		if be.Code == server.ErrCodeDeadline {
			w.Header().Set("Retry-After", "1")
		}
		writeErr(w, be.Status, be.Code, "%s", be.Message)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, server.ErrCodeDeadline, "router deadline exceeded: %v", err)
		return
	}
	if errors.Is(err, context.Canceled) {
		writeErr(w, http.StatusServiceUnavailable, server.ErrCodeCancelled, "request cancelled: %v", err)
		return
	}
	writeErr(w, http.StatusBadGateway, "shard_unavailable", "%v", err)
}

// ---- stateless retrieval ----

// KNNRequest asks for the k nearest images to a raw query point.
type KNNRequest struct {
	Query []float64 `json:"query"`
	K     int       `json:"k"`
}

// KNNResponse lists the fleet-wide top-k ascending by (distance, ID).
type KNNResponse struct {
	Neighbors []server.NeighborJSON `json:"neighbors"`
}

func (rt *Router) handleKNN(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "", "POST only")
		return
	}
	var req KNNRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "", "bad request: %v", err)
		return
	}
	if req.K <= 0 {
		writeErr(w, http.StatusBadRequest, "", "invalid k=%d", req.K)
		return
	}
	if len(req.Query) != rt.meta.Dim {
		writeErr(w, http.StatusBadRequest, "", "query dim %d != corpus dim %d", len(req.Query), rt.meta.Dim)
		return
	}
	// Identical concurrent requests share one scatter (see singleflight.go).
	ns, _, err := rt.knnSingleFlight(r.Context(), knnKey(req.Query, req.K), func() ([]shard.Neighbor, error) {
		return scatterSearcher{rt}.SearchNode(r.Context(), rt.topo.RootID(), vec.Vector(req.Query), nil, req.K)
	})
	if err != nil {
		writeBackendError(w, err)
		return
	}
	resp := KNNResponse{Neighbors: make([]server.NeighborJSON, len(ns))}
	for i, n := range ns {
		resp.Neighbors[i] = server.NeighborJSON{ID: n.ID, Dist: n.Dist}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleQuery is the stateless client-side-mode query, scattered across the
// fleet. It mirrors the single-node /v1/query contract: relevant images are
// deduplicated in order, each anchors at its storing leaf, and the finalize
// round runs the same allocation arithmetic — the response ranking is
// bit-identical to the single-node server's.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "", "POST only")
		return
	}
	var req server.QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "", "bad request: %v", err)
		return
	}
	if req.K <= 0 {
		writeErr(w, http.StatusBadRequest, "", "router: invalid k=%d", req.K)
		return
	}
	if len(req.Relevant) == 0 {
		writeErr(w, http.StatusBadRequest, "", "router: no example images given")
		return
	}
	if req.Weights != nil {
		if len(req.Weights) != rt.meta.Dim {
			writeErr(w, http.StatusBadRequest, "", "router: weight dim %d != corpus dim %d", len(req.Weights), rt.meta.Dim)
			return
		}
		for i, wt := range req.Weights {
			if wt < 0 {
				writeErr(w, http.StatusBadRequest, "", "router: negative weight at dim %d", i)
				return
			}
		}
	}
	var ids []int
	seen := make(map[int]bool, len(req.Relevant))
	for _, id := range req.Relevant {
		if id < 0 || id >= rt.meta.Images {
			writeErr(w, http.StatusBadRequest, "", "router: unknown image %d", id)
			return
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		ids = append(ids, id)
	}
	points, err := rt.fetchPoints(r.Context(), ids)
	if err != nil {
		writeBackendError(w, err)
		return
	}
	rel := make([]shard.RelPoint, 0, len(ids))
	for _, id := range ids {
		p, ok := points[id]
		if !ok {
			writeErr(w, http.StatusBadRequest, "", "router: unknown image %d", id)
			return
		}
		rel = append(rel, shard.RelPoint{ID: id, NodeID: p.Leaf, Vec: p.Vec})
	}
	st := stitchFrom(r.Context())
	off := st.Since()
	fsStart := time.Now()
	res, err := shard.FinalizeScatter(r.Context(), rt.topo, scatterSearcher{rt}, rel, req.K, req.Weights, rt.meta.Boundary, rt.parallelism)
	st.Span("finalize-scatter", off, time.Since(fsStart).Nanoseconds(), map[string]any{
		"k": req.K, "relevant": len(rel),
	})
	if err != nil {
		writeBackendError(w, err)
		return
	}
	writeResult(w, res, 0)
}

// writeResult converts a distributed finalize into the single-node
// /v1/query response shape. Result labels are the ones the owning shards
// attached to their neighbours.
func writeResult(w http.ResponseWriter, res *shard.Result, feedbackReads uint64) {
	out := server.QueryResponse{Stats: server.StatsJSON{
		FeedbackReads: feedbackReads,
		Expansions:    res.Expansions,
	}}
	for _, g := range res.Groups {
		gj := server.GroupJSON{RankScore: g.RankScore, Expanded: g.Expanded(), QueryImages: g.QueryIDs}
		for _, im := range g.Images {
			gj.Images = append(gj.Images, server.ScoredJSON(im))
		}
		out.Groups = append(out.Groups, gj)
	}
	writeJSON(w, http.StatusOK, out)
}

// ---- hosted sessions ----

// Session handles are composite: s<shard>-<replica>-<inner>, pinning the
// hosting replica. The router is stateless — any router instance (or a
// restarted one) routes the handle to the same host.
func composeSessionID(shardIdx, repIdx int, inner string) string {
	return fmt.Sprintf("s%d-%d-%s", shardIdx, repIdx, inner)
}

func (rt *Router) parseSessionID(id string) (*replica, string, error) {
	if !strings.HasPrefix(id, "s") {
		return nil, "", fmt.Errorf("malformed session id %q", id)
	}
	parts := strings.SplitN(id[1:], "-", 3)
	if len(parts) != 3 {
		return nil, "", fmt.Errorf("malformed session id %q", id)
	}
	sh, err1 := strconv.Atoi(parts[0])
	ri, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || sh < 0 || sh >= len(rt.shards) || ri < 0 || ri >= len(rt.shards[sh]) {
		return nil, "", fmt.Errorf("malformed session id %q", id)
	}
	return rt.shards[sh][ri], parts[2], nil
}

// handleSessions places a new feedback session on a replica, spreading
// sessions across the fleet round-robin and skipping dead replicas.
func (rt *Router) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "", "POST only")
		return
	}
	var body json.RawMessage
	if r.ContentLength > 0 {
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeErr(w, http.StatusBadRequest, "", "bad request: %v", err)
			return
		}
	}
	rt.placeSession(w, r, "/v1/sessions", body)
}

// placeSession POSTs the body to some live replica's path and rewraps the
// returned session id into a composite handle.
func (rt *Router) placeSession(w http.ResponseWriter, r *http.Request, path string, body interface{}) {
	n := len(rt.all)
	start := int(rt.sessSeq.Add(1)) % n
	var lastErr error
	for attempt := 0; attempt < n; attempt++ {
		rep := rt.all[(start+attempt)%n]
		if !rep.alive.Load() && attempt < n-1 {
			continue
		}
		var resp server.SessionResponse
		_, err := rt.call(r.Context(), rep, http.MethodPost, path, body, &resp)
		if err == nil {
			repIdx := 0
			for i, cand := range rt.shards[rep.shard] {
				if cand == rep {
					repIdx = i
					break
				}
			}
			writeJSON(w, http.StatusOK, server.SessionResponse{SessionID: composeSessionID(rep.shard, repIdx, resp.SessionID)})
			return
		}
		var be *backendError
		if errors.As(err, &be) && !be.retryable() {
			writeBackendError(w, err)
			return
		}
		if r.Context().Err() != nil {
			writeBackendError(w, err)
			return
		}
		rep.alive.Store(false)
		lastErr = err
	}
	writeBackendError(w, fmt.Errorf("router: no replica accepted the session: %w", lastErr))
}

// handleSessionOp proxies session operations to the hosting replica and
// runs distributed finalizes.
func (rt *Router) handleSessionOp(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	if rest == "import" {
		// Re-hosting an exported session: any replica can hold it.
		var body json.RawMessage
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeErr(w, http.StatusBadRequest, "", "bad request: %v", err)
			return
		}
		rt.placeSession(w, r, "/v1/sessions/import", body)
		return
	}
	parts := strings.SplitN(rest, "/", 2)
	rep, inner, err := rt.parseSessionID(parts[0])
	if err != nil {
		writeErr(w, http.StatusNotFound, "", "%v", err)
		return
	}
	op := ""
	if len(parts) == 2 {
		op = parts[1]
	}
	if op == "finalize" && r.Method == http.MethodPost {
		rt.finalizeSession(w, r, rep, inner)
		return
	}
	// Plain proxy: candidates, feedback, retract, export, delete. The
	// session state lives on rep, so there is no failover — if the host is
	// gone the session is lost, and the client's recourse is re-importing
	// the state it exported (410, code "session_lost").
	var body json.RawMessage
	if r.Body != nil && (r.Method == http.MethodPost || r.Method == http.MethodPut) {
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeErr(w, http.StatusBadRequest, "", "bad request: %v", err)
			return
		}
	}
	path := "/v1/sessions/" + inner
	if op != "" {
		path += "/" + op
	}
	var in interface{}
	if body != nil {
		in = body
	}
	var out json.RawMessage
	if _, err := rt.call(r.Context(), rep, r.Method, path, in, &out); err != nil {
		var be *backendError
		if errors.As(err, &be) || r.Context().Err() != nil {
			writeBackendError(w, err)
			return
		}
		rep.alive.Store(false)
		writeErr(w, http.StatusGone, "session_lost",
			"session host s%d unreachable (%v); re-import the session from an exported state", rep.shard, err)
		return
	}
	// Rewrap any session_id the downstream response carries (export).
	if op == "export" {
		var exp server.SessionExport
		if json.Unmarshal(out, &exp) == nil {
			repIdx := 0
			for i, cand := range rt.shards[rep.shard] {
				if cand == rep {
					repIdx = i
					break
				}
			}
			exp.SessionID = composeSessionID(rep.shard, repIdx, exp.SessionID)
			writeJSON(w, http.StatusOK, exp)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
}

// finalizeSession runs the distributed finalize: export the session state
// from its host, gather the panel's vectors from their owning shards,
// scatter the localized k-NN subqueries fleet-wide, and merge — the §3.3/3.4
// arithmetic runs here, bit-identical to a single-node Finalize over the
// same panel. The hosted session is released afterwards, like the
// single-node finalize path.
func (rt *Router) finalizeSession(w http.ResponseWriter, r *http.Request, rep *replica, inner string) {
	var req struct {
		K int `json:"k"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "", "bad request: %v", err)
		return
	}
	var exp server.SessionExport
	if _, err := rt.call(r.Context(), rep, http.MethodGet, "/v1/sessions/"+inner+"/export", nil, &exp); err != nil {
		var be *backendError
		if errors.As(err, &be) {
			writeBackendError(w, err)
			return
		}
		if r.Context().Err() != nil {
			writeBackendError(w, err)
			return
		}
		rep.alive.Store(false)
		writeErr(w, http.StatusGone, "session_lost",
			"session host s%d unreachable (%v); re-import the session from an exported state", rep.shard, err)
		return
	}
	st := exp.State
	if st == nil {
		writeErr(w, http.StatusBadGateway, "", "session host returned no state")
		return
	}
	res, err := rt.finalizeState(r.Context(), st, req.K)
	if err != nil {
		writeBackendError(w, err)
		return
	}
	// The single-node finalize releases the session; mirror that.
	_, _ = rt.call(r.Context(), rep, http.MethodDelete, "/v1/sessions/"+inner, nil, nil)
	writeResult(w, res, st.FeedbackReads)
}

// finalizeState scatters a finalize over an exported session state.
func (rt *Router) finalizeState(ctx context.Context, st *core.SessionState, k int) (*shard.Result, error) {
	var ids []int
	for _, id := range st.Relevant {
		if _, ok := st.Assign[id]; ok {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, &backendError{Status: http.StatusBadRequest, Message: "no relevant image lies under the current frontier"}
	}
	points, err := rt.fetchPoints(ctx, ids)
	if err != nil {
		return nil, err
	}
	rel := make([]shard.RelPoint, 0, len(ids))
	for _, id := range ids {
		p, ok := points[id]
		if !ok {
			return nil, &backendError{Status: http.StatusBadRequest, Message: fmt.Sprintf("unknown image %d in session state", id)}
		}
		rel = append(rel, shard.RelPoint{ID: id, NodeID: st.Assign[id], Vec: p.Vec})
	}
	stitch := stitchFrom(ctx)
	off := stitch.Since()
	fsStart := time.Now()
	res, err := shard.FinalizeScatter(ctx, rt.topo, scatterSearcher{rt}, rel, k, st.Weights, rt.meta.Boundary, rt.parallelism)
	stitch.Span("finalize-scatter", off, time.Since(fsStart).Nanoseconds(), map[string]any{
		"k": k, "relevant": len(rel),
	})
	return res, err
}

// ---- operations endpoints ----

// ReplicaStatus is one backend's health and traffic.
type ReplicaStatus struct {
	URL      string `json:"url"`
	Alive    bool   `json:"alive"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
}

// ShardStatus groups replica status by shard.
type ShardStatus struct {
	Shard    int             `json:"shard"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// StatsResponse is the router's /v1/stats body.
type StatsResponse struct {
	Shards    []ShardStatus `json:"shards"`
	Requests  uint64        `json:"requests"`
	Errors    uint64        `json:"errors"`
	Scatters  uint64        `json:"scatters"`
	Failovers uint64        `json:"failovers"`
	Metrics   obs.Snapshot  `json:"metrics"`
}

func (rt *Router) shardStatus() []ShardStatus {
	out := make([]ShardStatus, len(rt.shards))
	for i, reps := range rt.shards {
		ss := ShardStatus{Shard: i}
		for _, rep := range reps {
			ss.Replicas = append(ss.Replicas, ReplicaStatus{
				URL:      rep.url,
				Alive:    rep.alive.Load(),
				Requests: rep.reqs.Load(),
				Errors:   rep.errs.Load(),
			})
		}
		out[i] = ss
	}
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "", "GET only")
		return
	}
	snap := rt.obs.Registry().Snapshot()
	writeJSON(w, http.StatusOK, StatsResponse{
		Shards:    rt.shardStatus(),
		Requests:  snap.Counters["qd_router_requests_total"],
		Errors:    snap.Counters["qd_router_errors_total"],
		Scatters:  snap.Counters["qd_router_scatters_total"],
		Failovers: snap.Counters["qd_router_failovers_total"],
		Metrics:   snap,
	})
}

// BuildInfoResponse identifies the router and the fleet it fronts.
type BuildInfoResponse struct {
	GoVersion      string `json:"go_version"`
	Shards         int    `json:"shards"`
	Replicas       int    `json:"replicas"`
	Images         int    `json:"images"`
	Precision      string `json:"precision"`
	ArchiveVersion int    `json:"archive_version"`
	CorpusSig      string `json:"corpus_sig"`
}

func (rt *Router) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "", "GET only")
		return
	}
	out := BuildInfoResponse{
		Shards:         len(rt.shards),
		Replicas:       len(rt.all),
		Images:         rt.meta.Images,
		Precision:      rt.meta.Precision,
		ArchiveVersion: rt.meta.ArchiveVersion,
		CorpusSig:      fmt.Sprintf("%016x", rt.meta.CorpusSig),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		out.GoVersion = bi.GoVersion
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz reports fleet health: "ok" while every shard has at least
// one live replica, "degraded" (503) otherwise — a shard with no replicas
// cannot answer its slice, so scatter results would be wrong, not partial.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "", "GET only")
		return
	}
	status := "ok"
	code := http.StatusOK
	for _, reps := range rt.shards {
		live := 0
		for _, rep := range reps {
			if rep.alive.Load() {
				live++
			}
		}
		if live == 0 {
			status = "degraded"
			code = http.StatusServiceUnavailable
			break
		}
	}
	writeJSON(w, code, struct {
		Status string        `json:"status"`
		Shards []ShardStatus `json:"shards"`
	}{status, rt.shardStatus()})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "", "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.obs.Registry().WritePrometheus(w)
}
