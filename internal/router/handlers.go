package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
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

// scatterSearcher satisfies shard.BatchSearcher over HTTP: each call sends
// one leg per shard, a search frame carrying every search of the call, and
// merges each search's per-shard lists with shard.MergeNeighbors. Each list
// is that shard's exact local top-k ascending by (squared distance, ID), so
// the merged prefix is bit-identical to a single-node search (see
// internal/shard).
type scatterSearcher struct{ rt *Router }

// SearchNode is SearchNodes with one search: a k-NN's scatter.
func (s scatterSearcher) SearchNode(ctx context.Context, nodeID uint64, q vec.Vector, weights []float64, k int) ([]shard.Neighbor, error) {
	lists, err := s.SearchNodes(ctx, []shard.NodeSearch{{NodeID: nodeID, Q: q, K: k}}, weights)
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// SearchNodes scatters the searches MaxShardSearches at a time, one frame
// per scatter.
func (s scatterSearcher) SearchNodes(ctx context.Context, searches []shard.NodeSearch, weights []float64) ([][]shard.Neighbor, error) {
	out := make([][]shard.Neighbor, 0, len(searches))
	for len(searches) > 0 {
		n := min(len(searches), server.MaxShardSearches)
		merged, err := s.rt.scatter(ctx, searches[:n], weights)
		if err != nil {
			return nil, err
		}
		out = append(out, merged...)
		searches = searches[n:]
	}
	return out, nil
}

// scatter sends one search frame to every shard and merges the replies per
// search.
func (rt *Router) scatter(ctx context.Context, searches []shard.NodeSearch, weights []float64) ([][]shard.Neighbor, error) {
	rt.scatters.Inc()
	st := stitchFrom(ctx)
	// Every leg asks the same questions: frame them once, send the bytes N
	// times.
	f := server.ShardSearchFrame{Weights: weights, Searches: make([]server.ShardSearch, len(searches))}
	for i, sr := range searches {
		f.Searches[i] = server.ShardSearch{NodeID: sr.NodeID, K: sr.K, Query: sr.Q}
	}
	raw, err := server.AppendShardSearch(nil, &f)
	if err != nil {
		return nil, &backendError{Status: http.StatusBadRequest, Message: fmt.Sprintf("router: %v", err)}
	}
	frame := framedBody(raw)
	fanOff := st.Since()
	fanStart := time.Now()
	replies := make([]neighborsReply, len(rt.shards))
	legNS := make([]int64, len(rt.shards))
	err = par.Do(ctx, len(rt.shards), rt.parallelism, func(i int) error {
		legStart := time.Now()
		replies[i].searches = len(searches)
		if err := rt.doShard(ctx, i, http.MethodPost, "/v1/shard/search", frame, &replies[i]); err != nil {
			return err
		}
		legNS[i] = time.Since(legStart).Nanoseconds()
		return nil
	})
	fanDur := time.Since(fanStart)
	rt.fanoutHist.Observe(fanDur.Seconds())
	rt.obs.Windows().Observe("router:fanout", fanDur.Seconds())
	st.Span("fan-out", fanOff, fanDur.Nanoseconds(), map[string]any{
		"searches": len(searches), "shards": len(rt.shards),
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
	merged := make([][]shard.Neighbor, len(searches))
	lists := make([][]shard.Neighbor, len(rt.shards))
	for j, sr := range searches {
		for i := range replies {
			lists[i] = replies[i].Lists[j]
		}
		merged[j] = shard.MergeNeighbors(lists, sr.K)
	}
	mergeDur := time.Since(mergeStart)
	rt.mergeHist.Observe(mergeDur.Seconds())
	rt.obs.Windows().Observe("router:merge", mergeDur.Seconds())
	st.Span("merge", mergeOff, mergeDur.Nanoseconds(), map[string]any{
		"searches": len(searches), "lists": len(rt.shards),
	})
	return merged, nil
}

// neighborsReply is a /v1/shard/search reply read in the shard wire's binary
// framing: one list per search of the frame it answers, labels and all.
type neighborsReply struct {
	searches int
	server.ShardSearchReply
}

func (p *neighborsReply) UnmarshalBinary(raw []byte) (err error) {
	if p.ShardSearchReply, err = server.DecodeShardNeighbors(raw); err != nil {
		return err
	}
	if len(p.Lists) != p.searches {
		p.ShardSearchReply = server.ShardSearchReply{}
		return fmt.Errorf("%d neighbour lists answer a frame of %d searches", len(p.Lists), p.searches)
	}
	return nil
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
	mux.Handle("/v1/sessions", rt.sessions)
	mux.Handle("/v1/sessions/", rt.sessions)
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
	if !server.DecodeBody(w, r, server.VectorBodyLimit(rt.meta.Dim), &req) {
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
	if !server.DecodeBody(w, r, server.QueryBodyLimit(rt.meta.Images, rt.meta.Dim), &req) {
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
	if err := vec.CheckWeights(req.Weights, rt.meta.Dim); err != nil {
		writeErr(w, http.StatusBadRequest, "", "router: %v", err)
		return
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
	writeJSON(w, http.StatusOK, server.AnswerResponse(res, 0, nil))
}

// ---- hosted sessions ----

// startSession starts a feedback session at the router, on a round machine
// over the fleet topology: every representative and subtree size a round
// reads is already here, so a round makes no backend request. Displays hold
// what the archives' display count says and carry the topology's
// representative labels, as the single node's do. The final round is the
// only one that needs the corpus rows; it scatters (finalizeState).
func (rt *Router) startSession(rng *rand.Rand, st *core.SessionState) (*server.HostedSession, error) {
	m, err := server.StartMachine(rt.topo.Hierarchy(), st, rng, rt.meta.DisplayCount)
	if err != nil {
		return nil, err
	}
	return server.Host(m, func(ctx context.Context, k int) (any, error) {
		st := m.ExportState()
		res, err := rt.finalizeState(ctx, st, k)
		if err != nil {
			return nil, err
		}
		return server.AnswerResponse(res, st.FeedbackReads, nil), nil
	}, nil), nil
}

// finalizeState scatters a finalize over a session's state.
func (rt *Router) finalizeState(ctx context.Context, st *core.SessionState, k int) (*core.Answer, error) {
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

// StatsResponse is the router's /v1/stats body. Sessions counts the
// feedback sessions the router hosts; SessionsEvicted those the session cap
// evicted.
type StatsResponse struct {
	Shards          []ShardStatus `json:"shards"`
	Requests        uint64        `json:"requests"`
	Errors          uint64        `json:"errors"`
	Scatters        uint64        `json:"scatters"`
	Failovers       uint64        `json:"failovers"`
	Sessions        int           `json:"sessions"`
	SessionsEvicted uint64        `json:"sessions_evicted"`
	Metrics         obs.Snapshot  `json:"metrics"`
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
		Shards:          rt.shardStatus(),
		Requests:        snap.Counters["qd_router_requests_total"],
		Errors:          snap.Counters["qd_router_errors_total"],
		Scatters:        snap.Counters["qd_router_scatters_total"],
		Failovers:       snap.Counters["qd_router_failovers_total"],
		Sessions:        rt.sessions.Count(),
		SessionsEvicted: snap.Counters[obs.MetricSessionsEvicted],
		Metrics:         snap,
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
