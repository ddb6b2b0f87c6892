// Package server implements the paper's client/server configuration (§4):
//
//	"our software can be configured such that the RFS structure and relevance
//	feedback mechanisms may run in the user computer. In this client-server
//	configuration, the user would first identify the final query images on
//	the client machine and only then submit them to the server to initiate
//	the localized k-NN computations and final image retrieval."
//
// The Server exposes the retrieval system over HTTP/JSON in both modes:
//
//   - Thin-client mode: the server hosts feedback sessions
//     (POST /v1/sessions, .../candidates, .../feedback, .../finalize).
//   - Client-side mode: GET /v1/payload ships the representative structure —
//     the only information relevance feedback needs, a small fraction of the
//     database — and the Client type in this package runs the whole feedback
//     loop locally, touching the server once per query (POST /v1/query).
//
// All structures are read-only after construction, so any number of sessions
// may run concurrently; per-session state is independently locked.
package server

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qdcbir/internal/core"
	"qdcbir/internal/img"
	"qdcbir/internal/obs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/seg"
	"qdcbir/internal/shard"
	"qdcbir/internal/vec"
)

// Labeler maps an image ID to a human-meaningful label (ground-truth
// subconcepts in the synthetic corpus; thumbnails in a real deployment).
type Labeler func(id int) string

// DefaultMaxSessions bounds concurrent hosted sessions; the oldest idle
// session is evicted when the cap is hit, so abandoned thin clients cannot
// exhaust server memory.
const DefaultMaxSessions = 1024

// Server serves one built retrieval system.
type Server struct {
	engine      *core.Engine
	label       Labeler
	maxSessions int

	// obs is never nil: the server adopts the engine's Observer when one is
	// configured (so engine and HTTP telemetry land in one registry) and
	// otherwise creates a standalone one, keeping /metrics and /v1/stats
	// functional — they then report HTTP/session counters only.
	obs      *obs.Observer
	httpReqs *obs.Counter
	httpErrs *obs.Counter

	// slow retains the slowest requests as exemplars (GET /v1/slow); the
	// request id joins an entry to its log lines and retained trace.
	slow *obs.SlowLog

	// log receives one structured line per request, keyed by request id (nil
	// disables request logging; telemetry counters still run).
	log *slog.Logger
	// reqSeq numbers requests that arrive without an X-Request-Id header.
	reqSeq atomic.Uint64

	mu       sync.Mutex
	sessions map[string]*hostedSession
	// lru orders hosted sessions by last touch (front = least recently used;
	// values are session ids). Every session operation moves its entry to the
	// back, so cap-pressure eviction removes the longest-idle session rather
	// than the oldest-created one.
	lru    *list.List
	nextID uint64

	payload    *Payload
	payloadErr error
	payloadGen sync.Once

	images []*img.Image // optional rasters for the web UI (see webui.go)

	// shard, when set, switches the server into shard-replica mode (see
	// NewShard in shard.go): engine is nil, hosted sessions run over the
	// full-corpus topology and the scatter-gather endpoints come alive.
	shard        *shard.Replica
	displayCount int // shard/dynamic session display budget

	// dyn, when set, switches the server into dynamic mode (see NewDynamic in
	// dynamic.go): engine is nil, queries pin engine snapshots, and the
	// /v1/images write endpoints come alive.
	dyn DynamicStore

	// queryTimeout, when positive, bounds every request's context; clients may
	// tighten (never widen) it per request with the X-Qd-Deadline-Ms header.
	queryTimeout time.Duration

	// sched, when set, applies admission control to the search endpoints
	// (see SetScheduler in sched.go).
	sched *scheduler

	// Archive provenance, surfaced in /v1/buildinfo so operators (and the
	// router's fleet verification) can see what is actually loaded.
	archiveVersion   int
	archivePrecision string
	archiveQuantized bool
}

// hostedSession is one thin-client feedback session. Exactly one of sess
// (single-node mode), ssess (shard-replica mode), and dsess (dynamic mode,
// pinning one engine snapshot for its lifetime) is non-nil.
type hostedSession struct {
	mu    sync.Mutex
	sess  *core.Session
	ssess *shard.Session
	dsess *seg.Session
	seed  int64 // display RNG seed, reported by /export for reproducibility

	el *list.Element // position in Server.lru; guarded by Server.mu
}

// New creates a server over the engine. label may be nil (empty labels).
func New(engine *core.Engine, label Labeler) *Server {
	if label == nil {
		label = func(int) string { return "" }
	}
	s := newServer(label, engine.Config().Observer)
	s.engine = engine
	return s
}

// newServer holds what every mode shares: telemetry (o may be nil, for a
// standalone observer) and the hosted-session table.
func newServer(label Labeler, o *obs.Observer) *Server {
	if o == nil {
		o = obs.New(obs.NewRegistry())
	}
	return &Server{
		label:       label,
		maxSessions: DefaultMaxSessions,
		obs:         o,
		httpReqs:    o.Registry().Counter("qd_http_requests_total", "HTTP requests served."),
		httpErrs:    o.Registry().Counter("qd_http_errors_total", "HTTP responses with status >= 400."),
		slow:        obs.NewSlowLog(0),
		sessions:    make(map[string]*hostedSession),
		lru:         list.New(),
	}
}

// Observer returns the server's telemetry sink (never nil).
func (s *Server) Observer() *obs.Observer { return s.obs }

// SetLogger installs a structured request logger. Every request then emits
// one line carrying the correlation id also returned in the X-Request-Id
// response header (and attached to any trace the request opens). A nil logger
// (the default) disables request logging.
func (s *Server) SetLogger(l *slog.Logger) { s.log = l }

// SetMaxSessions overrides the hosted-session cap (values < 1 keep the
// default). Call before serving traffic.
func (s *Server) SetMaxSessions(n int) {
	if n >= 1 {
		s.maxSessions = n
	}
}

// ---- JSON wire types ----

// InfoResponse describes the served database.
type InfoResponse struct {
	Images          int `json:"images"`
	TreeHeight      int `json:"tree_height"`
	Representatives int `json:"representatives"`
}

// CandidateJSON is one displayable representative.
type CandidateJSON struct {
	ID    int    `json:"id"`
	Label string `json:"label,omitempty"`
}

// SessionResponse returns a new session handle.
type SessionResponse struct {
	SessionID string `json:"session_id"`
}

// FeedbackRequest marks images relevant (or retracts them).
type FeedbackRequest struct {
	Relevant []int `json:"relevant"`
}

// FeedbackResponse reports the decomposition state.
type FeedbackResponse struct {
	Subqueries int `json:"subqueries"`
	Relevant   int `json:"relevant"`
}

// QueryRequest is the client-side mode's single server call: the final query
// images identified during local feedback.
type QueryRequest struct {
	Relevant []int     `json:"relevant"`
	K        int       `json:"k"`
	Weights  []float64 `json:"weights,omitempty"`
}

// ScoredJSON is one result image.
type ScoredJSON struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
	Label string  `json:"label,omitempty"`
}

// GroupJSON is one localized subquery's results.
type GroupJSON struct {
	QueryImages []int        `json:"query_images"`
	Images      []ScoredJSON `json:"images"`
	RankScore   float64      `json:"rank_score"`
	Expanded    bool         `json:"expanded"`
}

// QueryResponse is a finalized retrieval.
type QueryResponse struct {
	Groups []GroupJSON `json:"groups"`
	Stats  StatsJSON   `json:"stats"`
}

// StatsJSON reports simulated I/O cost.
type StatsJSON struct {
	FeedbackReads uint64 `json:"feedback_reads"`
	FinalReads    uint64 `json:"final_reads"`
	Expansions    int    `json:"expansions"`
}

// errorResponse is the uniform error body. Code, when present, is a stable
// machine-readable discriminator (see the ErrCode* constants) so callers —
// the router above all — can tell an overloaded-but-healthy replica from a
// broken request without parsing prose.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Stable error codes carried in errorResponse.Code.
const (
	// ErrCodeDeadline marks a server-side context-deadline expiry: the work
	// was sound but the time budget ran out. The response carries Retry-After,
	// and a router should treat the replica as overloaded, not crashed.
	ErrCodeDeadline = "deadline_exceeded"
	// ErrCodeCancelled marks a client disconnect or server drain.
	ErrCodeCancelled = "cancelled"
	// ErrCodeShardFinalize rejects, on a shard replica, whatever needs the
	// whole corpus: finalize of a hosted session, /v1/query, /v1/payload.
	ErrCodeShardFinalize = "shard_finalize"
	// ErrCodeShardFrame rejects a binary shard-leg body whose header, length
	// and the corpus dimension disagree (see shardwire.go).
	ErrCodeShardFrame = "bad_shard_frame"
	// ErrCodeBodyTooLarge rejects a shard-leg body past its computed bound.
	ErrCodeBodyTooLarge = "body_too_large"
)

// StatsResponse is the /v1/stats snapshot: the live session count, headline
// counters pulled out for convenience, and the full metrics snapshot
// (including latency histograms) for programmatic consumers.
type StatsResponse struct {
	Sessions        int          `json:"sessions"`
	SessionsStarted uint64       `json:"sessions_started"`
	SessionsEvicted uint64       `json:"sessions_evicted"`
	FeedbackRounds  uint64       `json:"feedback_rounds"`
	Finalizes       uint64       `json:"finalizes"`
	KNNQueries      uint64       `json:"knn_queries"`
	FeedbackReads   uint64       `json:"feedback_page_reads"`
	FinalReads      uint64       `json:"final_page_reads"`
	Expansions      uint64       `json:"boundary_expansions"`
	HTTPRequests    uint64       `json:"http_requests"`
	HTTPErrors      uint64       `json:"http_errors"`
	Metrics         obs.Snapshot `json:"metrics"`
}

// ---- handler ----

// Handler returns the HTTP handler serving the v1 API plus the observability
// endpoints (/metrics in Prometheus text format; /v1/stats, /v1/traces,
// /v1/latency, and /v1/buildinfo as JSON; /healthz for liveness probes).
// Every request passing through the handler is counted, tagged with a
// correlation id, timed into the per-endpoint latency digests, and labeled
// for CPU profiles.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/info", s.handleInfo)
	mux.HandleFunc("/v1/payload", s.handlePayload)
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/sessions", s.handleSessions)
	mux.HandleFunc("/v1/sessions/", s.handleSessionOp)
	mux.HandleFunc("/v1/image/", s.handleImage)
	mux.HandleFunc("/v1/images", s.handleImages)
	mux.HandleFunc("/v1/images/", s.handleImageOp)
	mux.HandleFunc("/v1/compact", s.handleCompact)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/traces", s.handleTraces)
	mux.HandleFunc("/v1/latency", s.handleLatency)
	mux.HandleFunc("/v1/slow", s.handleSlow)
	mux.HandleFunc("/v1/buildinfo", s.handleBuildInfo)
	mux.HandleFunc("/v1/shard/meta", s.handleShardMeta)
	mux.HandleFunc("/v1/shard/topology", s.handleShardTopology)
	mux.HandleFunc("/v1/shard/search", s.handleShardSearch)
	mux.HandleFunc("/v1/shard/points", s.handleShardPoints)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/ui", s.handleUI)
	return s.instrument(mux)
}

// SetQueryTimeout bounds each request's context (<= 0 disables the bound).
// Clients can tighten it further per request via X-Qd-Deadline-Ms. When the
// budget expires mid-query the response is the structured 503 described at
// writeQueryError.
func (s *Server) SetQueryTimeout(d time.Duration) { s.queryTimeout = d }

// statusWriter captures the response status for the request counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// slowWorthy selects the endpoints the slow-query log tracks: the ones that
// do retrieval or write work. Monitoring endpoints are excluded — a scrape
// storm must not evict the exemplars operators came to see.
func slowWorthy(endpoint string) bool {
	switch endpoint {
	case "/healthz", "/metrics", "/ui",
		"/v1/slow", "/v1/stats", "/v1/latency", "/v1/traces",
		"/v1/buildinfo", "/v1/info", "/v1/shard/meta", "/v1/shard/topology",
		"/v1/fleet/latency", "/v1/fleet/stats":
		return false
	}
	return true
}

// endpointOf collapses a request path to its route template so per-endpoint
// telemetry (latency digests, pprof labels) does not fan out per session or
// image id.
func endpointOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/sessions/"):
		rest := strings.TrimPrefix(path, "/v1/sessions/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			return "/v1/sessions/{id}/" + rest[i+1:]
		}
		return "/v1/sessions/{id}"
	case strings.HasPrefix(path, "/v1/image/"):
		return "/v1/image/{id}"
	case strings.HasPrefix(path, "/v1/images/"):
		return "/v1/images/{id}"
	default:
		return path
	}
}

// instrument is the telemetry middleware: it counts every request and every
// error response, assigns (or propagates) the X-Request-Id correlation id,
// stamps it on the response and on any trace the request opens, times the
// request into the per-endpoint sliding-window digests, labels the handler
// goroutine for CPU profiles, and emits one structured log line.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.httpReqs.Inc()
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = "req-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
		}
		w.Header().Set("X-Request-Id", reqID)
		endpoint := endpointOf(r.URL.Path)
		ctx := obs.WithTraceLabel(r.Context(), reqID)
		// Per-request time budget: the configured cap, tightened (never
		// widened) by an X-Qd-Deadline-Ms header. The router propagates its
		// remaining deadline this way so a slow shard leg fails fast with the
		// structured 503 instead of holding the whole scatter hostage.
		budget := s.queryTimeout
		if raw := r.Header.Get("X-Qd-Deadline-Ms"); raw != "" {
			if ms, err := strconv.ParseInt(raw, 10, 64); err == nil && ms > 0 {
				if d := time.Duration(ms) * time.Millisecond; budget <= 0 || d < budget {
					budget = d
				}
			}
		}
		if budget > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, budget)
			defer cancel()
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		pprof.Do(ctx, pprof.Labels("endpoint", endpoint), func(ctx context.Context) {
			next.ServeHTTP(sw, r.WithContext(ctx))
		})
		elapsed := time.Since(start)
		s.obs.Windows().Observe("endpoint:"+endpoint, elapsed.Seconds())
		if sw.status >= 400 {
			s.httpErrs.Inc()
		}
		if slowWorthy(endpoint) {
			s.slow.Record(obs.SlowQuery{
				RequestID:  reqID,
				Endpoint:   endpoint,
				Status:     sw.status,
				Start:      start,
				DurationNS: elapsed.Nanoseconds(),
			})
		}
		if s.log != nil {
			s.log.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("request_id", reqID),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Duration("elapsed", elapsed),
			)
		}
	})
}

// handleMetrics serves the Prometheus text exposition of every registered
// metric.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.Registry().WritePrometheus(w)
}

// handleStats serves the JSON runtime-stats snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	snap := s.obs.Registry().Snapshot()
	writeJSON(w, http.StatusOK, StatsResponse{
		Sessions:        s.SessionCount(),
		SessionsStarted: snap.Counters[obs.MetricSessionsStarted],
		SessionsEvicted: snap.Counters[obs.MetricSessionsEvicted],
		FeedbackRounds:  snap.Counters[obs.MetricFeedbackRounds],
		Finalizes:       snap.Counters[obs.MetricFinalizes],
		KNNQueries:      snap.Counters[obs.MetricKNNs],
		FeedbackReads:   snap.Counters[obs.MetricFeedbackReads],
		FinalReads:      snap.Counters[obs.MetricFinalReads],
		Expansions:      snap.Counters[obs.MetricExpansions],
		HTTPRequests:    snap.Counters["qd_http_requests_total"],
		HTTPErrors:      snap.Counters["qd_http_errors_total"],
		Metrics:         snap,
	})
}

// DefaultTraceLimit is how many retained traces /v1/traces returns when the
// request does not set ?limit=N (limit=0 requests the whole ring).
const DefaultTraceLimit = 32

// handleTraces serves the retained per-query trace spans, newest first.
// Query parameters: ?limit=N caps the count (default DefaultTraceLimit,
// 0 = all), ?kind= filters by trace kind ("session" or "query"), and
// ?format=perfetto renders Chrome/Perfetto trace-event JSON instead of the
// native span form — load it at https://ui.perfetto.dev.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	limit := DefaultTraceLimit
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", raw)
			return
		}
		limit = n
	}
	kind := q.Get("kind")
	traces := s.obs.TracesFiltered(kind, limit)
	if traces == nil {
		traces = []*obs.Trace{}
	}
	switch format := q.Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, struct {
			Traces []*obs.Trace `json:"traces"`
		}{traces})
	case "perfetto":
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WritePerfetto(w, traces)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q", format)
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func writeErrorCode(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// writeQueryError distinguishes the three ways a query fails:
//
//   - Deadline expiry (the server ran out of time budget mid-search): 503
//     with Retry-After and code "deadline_exceeded" — the server is
//     overloaded, not broken, and the same request may succeed shortly.
//   - Cancellation (the client went away or the server is draining): 503
//     with code "cancelled", no Retry-After.
//   - Admission-control shed (the wait queue is full): 503 with Retry-After
//     and code "overloaded" — nothing was searched; retry elsewhere or later.
//   - Anything else is a bad query: 400.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeErrorCode(w, http.StatusServiceUnavailable, ErrCodeOverloaded, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		writeErrorCode(w, http.StatusServiceUnavailable, ErrCodeDeadline, "query deadline exceeded: %v", err)
	case errors.Is(err, context.Canceled):
		writeErrorCode(w, http.StatusServiceUnavailable, ErrCodeCancelled, "query cancelled: %v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.Info())
}

// Info describes the served corpus (the /v1/info body). A replica reports
// the corpus it is a slice of, read from the topology every replica shares,
// so a fleet looks uniform and agrees with the single node.
func (s *Server) Info() InfoResponse {
	switch {
	case s.dyn != nil:
		return InfoResponse{Images: s.dyn.Stats().Live}
	case s.shard != nil:
		t := s.shard.Topo()
		return InfoResponse{Images: s.shard.Meta().Images, TreeHeight: t.Height(), Representatives: t.RepCount()}
	}
	f := s.engine.RFS()
	return InfoResponse{Images: f.Len(), TreeHeight: f.Tree().Height(), Representatives: f.RepCount()}
}

func (s *Server) handlePayload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.dyn != nil {
		// The payload is a one-shot export of a frozen structure; a dynamic
		// corpus changes under it. Smart clients of a dynamic server use
		// hosted sessions instead.
		writeError(w, http.StatusNotImplemented, "payload not available for a dynamic corpus: use hosted sessions")
		return
	}
	if s.refuseLocal(w, "/v1/payload") {
		return
	}
	s.payloadGen.Do(func() { s.payload, s.payloadErr = BuildPayload(s.engine, s.label) })
	if s.payloadErr != nil {
		writeError(w, http.StatusInternalServerError, "payload: %v", s.payloadErr)
		return
	}
	writeJSON(w, http.StatusOK, s.payload)
}

// handleQuery is the client-side mode's single server interaction.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.refuseLocal(w, "/v1/query") {
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	release, err := s.sched.admit(r.Context(), "/v1/query")
	if err != nil {
		writeQueryError(w, err)
		return
	}
	defer release()
	if s.dyn != nil {
		res, err := s.dynQuery(r.Context(), req)
		if err != nil {
			writeQueryError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
		return
	}
	ids := make([]rstar.ItemID, len(req.Relevant))
	for i, id := range req.Relevant {
		ids[i] = rstar.ItemID(id)
	}
	var weights vec.Vector
	if req.Weights != nil {
		weights = vec.Vector(req.Weights)
	}
	// The request context cancels the localized subqueries when the client
	// disconnects or the server drains during graceful shutdown.
	res, stats, err := s.engine.QueryByExamplesCtx(r.Context(), ids, req.K, weights, nil)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.toQueryResponse(res, core.Stats{
		FinalReads: stats.FinalReads,
		Expansions: stats.Expansions,
	}))
}

func (s *Server) toQueryResponse(res *core.Result, stats core.Stats) QueryResponse {
	out := QueryResponse{Stats: StatsJSON{
		FeedbackReads: stats.FeedbackReads,
		FinalReads:    stats.FinalReads,
		Expansions:    stats.Expansions,
	}}
	for _, g := range res.Groups {
		gj := GroupJSON{RankScore: g.RankScore, Expanded: g.SearchNode != g.Node}
		for _, id := range g.QueryIDs {
			gj.QueryImages = append(gj.QueryImages, int(id))
		}
		for _, im := range g.Images {
			gj.Images = append(gj.Images, ScoredJSON{
				ID:    int(im.ID),
				Score: im.Score,
				Label: s.label(int(im.ID)),
			})
		}
		out.Groups = append(out.Groups, gj)
	}
	return out
}

// handleSessions creates thin-client sessions.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req struct {
		Seed int64 `json:"seed"`
	}
	if r.ContentLength > 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
	}
	id, err := s.addSession(req.Seed, nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, SessionResponse{SessionID: id})
}

// addSession registers a hosted session — fresh when st is nil, restored
// from an exported state otherwise — and returns its handle. seed == 0 picks
// a server-derived default.
func (s *Server) addSession(seed int64, st *core.SessionState) (string, error) {
	s.mu.Lock()
	s.nextID++
	id := strconv.FormatUint(s.nextID, 10)
	if seed == 0 {
		seed = int64(s.nextID) * 7919
	}
	// Evict the longest-idle sessions past the cap so abandoned clients
	// cannot exhaust memory. Evicted dynamic sessions must drop their
	// snapshot pins, else abandoned clients would pin old epochs forever.
	var evicted []*hostedSession
	for len(s.sessions) >= s.maxSessions && s.lru.Len() > 0 {
		front := s.lru.Front()
		s.lru.Remove(front)
		eid := front.Value.(string)
		evicted = append(evicted, s.sessions[eid])
		delete(s.sessions, eid)
		s.obs.SessionEvicted()
	}
	s.mu.Unlock()
	for _, ev := range evicted {
		if ev != nil && ev.dsess != nil {
			ev.dsess.Release()
		}
	}

	hs := &hostedSession{seed: seed}
	rng := rand.New(rand.NewSource(seed))
	var err error
	if s.dyn != nil {
		if st != nil {
			// The snapshot pin itself is not serializable; the restore re-pins
			// this server's current snapshot and carries over the panel,
			// weights, and round count — all Finalize needs.
			hs.dsess, err = s.dyn.RestoreSession(&seg.SessionState{
				Relevant: st.Relevant,
				Weights:  st.Weights,
				Rounds:   st.Rounds,
			}, seed)
		} else {
			hs.dsess = s.dyn.NewSession(seed)
		}
	} else if s.shard != nil {
		dc := s.displayCount
		if dc <= 0 {
			dc = 20
		}
		if st != nil {
			hs.ssess, err = shard.RestoreSession(s.shard.Topo(), st, rng, dc)
		} else {
			hs.ssess = shard.NewSession(s.shard.Topo(), rng, dc)
		}
	} else {
		if st != nil {
			hs.sess, err = s.engine.RestoreSession(st, rng)
		} else {
			hs.sess = s.engine.NewSession(rng)
		}
		if hs.sess != nil {
			// Correlate the session's trace with its API handle so /v1/traces
			// output can be joined against client logs.
			hs.sess.Trace().SetLabel("session-" + id)
		}
	}
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	hs.el = s.lru.PushBack(id)
	s.sessions[id] = hs
	s.mu.Unlock()
	s.obs.SessionHosted()
	return id, nil
}

// SessionExport is the /v1/sessions/{id}/export body: the wire-serializable
// session state plus the seed that drove its displays. POSTing it to any
// replica's /v1/sessions/import resumes the session there.
type SessionExport struct {
	SessionID string             `json:"session_id,omitempty"`
	Seed      int64              `json:"seed"`
	State     *core.SessionState `json:"state"`
}

// handleSessionImport restores an exported session on this replica.
func (s *Server) handleSessionImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req SessionExport
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	if req.State == nil {
		writeError(w, http.StatusBadRequest, "missing state")
		return
	}
	id, err := s.addSession(req.Seed, req.State)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, SessionResponse{SessionID: id})
}

// release drops a hosted session (client delete or finalize). A dynamic
// session's snapshot pin is released here, so compaction can reclaim the
// segments it was reading.
func (s *Server) release(id string) {
	s.mu.Lock()
	hs, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
		s.lru.Remove(hs.el)
	}
	s.mu.Unlock()
	if ok {
		if hs.dsess != nil {
			hs.dsess.Release()
		}
		s.obs.SessionReleased()
	}
}

// handleSessionOp dispatches /v1/sessions/{id}/{op}.
func (s *Server) handleSessionOp(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	if rest == "import" {
		s.handleSessionImport(w, r)
		return
	}
	parts := strings.SplitN(rest, "/", 2)
	if len(parts) == 0 || parts[0] == "" {
		writeError(w, http.StatusNotFound, "missing session id")
		return
	}
	id := parts[0]
	s.mu.Lock()
	hs := s.sessions[id]
	if hs != nil {
		// Touch: every operation marks the session most recently used, so
		// cap-pressure eviction targets the longest-idle session.
		s.lru.MoveToBack(hs.el)
	}
	s.mu.Unlock()
	if hs == nil {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	op := ""
	if len(parts) == 2 {
		op = parts[1]
	}

	switch {
	case op == "" && r.Method == http.MethodDelete:
		s.release(id)
		writeJSON(w, http.StatusOK, struct{}{})

	case op == "candidates" && r.Method == http.MethodGet:
		var out []CandidateJSON
		hs.mu.Lock()
		if hs.dsess != nil {
			cands := hs.dsess.Candidates(s.displayCount)
			out = make([]CandidateJSON, len(cands))
			for i, c := range cands {
				out[i] = CandidateJSON{ID: c.ID, Label: s.label(c.ID)}
			}
		} else if hs.ssess != nil {
			ids := hs.ssess.Candidates()
			out = make([]CandidateJSON, len(ids))
			for i, cid := range ids {
				out[i] = CandidateJSON{ID: cid, Label: s.label(cid)}
			}
		} else {
			cands := hs.sess.Candidates()
			out = make([]CandidateJSON, len(cands))
			for i, c := range cands {
				out[i] = CandidateJSON{ID: int(c.ID), Label: s.label(int(c.ID))}
			}
		}
		hs.mu.Unlock()
		writeJSON(w, http.StatusOK, struct {
			Candidates []CandidateJSON `json:"candidates"`
		}{out})

	case op == "feedback" && r.Method == http.MethodPost:
		var req FeedbackRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		var err error
		var nsub, nrel int
		hs.mu.Lock()
		if hs.dsess != nil {
			err = hs.dsess.Feedback(req.Relevant)
			nsub = hs.dsess.Subqueries()
			nrel = len(hs.dsess.Relevant())
		} else if hs.ssess != nil {
			err = hs.ssess.Feedback(req.Relevant)
			nsub = hs.ssess.Subqueries()
			nrel = len(hs.ssess.Relevant())
		} else {
			marks := make([]rstar.ItemID, len(req.Relevant))
			for i, m := range req.Relevant {
				marks[i] = rstar.ItemID(m)
			}
			err = hs.sess.Feedback(marks)
			nsub = len(hs.sess.Frontier())
			nrel = len(hs.sess.Relevant())
		}
		hs.mu.Unlock()
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, FeedbackResponse{Subqueries: nsub, Relevant: nrel})

	case op == "retract" && r.Method == http.MethodPost:
		var req FeedbackRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		var nrel int
		hs.mu.Lock()
		if hs.dsess != nil {
			hs.mu.Unlock()
			writeError(w, http.StatusNotImplemented, "dynamic sessions do not support retract")
			return
		}
		if hs.ssess != nil {
			hs.ssess.Retract(req.Relevant)
			nrel = len(hs.ssess.Relevant())
		} else {
			ids := make([]rstar.ItemID, len(req.Relevant))
			for i, m := range req.Relevant {
				ids[i] = rstar.ItemID(m)
			}
			hs.sess.Retract(ids)
			nrel = len(hs.sess.Relevant())
		}
		hs.mu.Unlock()
		writeJSON(w, http.StatusOK, FeedbackResponse{Relevant: nrel})

	case op == "export" && r.Method == http.MethodGet:
		hs.mu.Lock()
		var st *core.SessionState
		if hs.dsess != nil {
			// Dynamic sessions export the snapshot-independent slice of their
			// state; import re-pins the importing server's current snapshot.
			dst := hs.dsess.ExportState()
			st = &core.SessionState{
				Version:  core.SessionStateVersion,
				Relevant: dst.Relevant,
				Weights:  dst.Weights,
				Rounds:   dst.Rounds,
			}
		} else if hs.ssess != nil {
			st = hs.ssess.ExportState()
		} else {
			st = hs.sess.ExportState()
		}
		seed := hs.seed
		hs.mu.Unlock()
		writeJSON(w, http.StatusOK, SessionExport{SessionID: id, Seed: seed, State: st})

	case op == "finalize" && r.Method == http.MethodPost:
		var req struct {
			K int `json:"k"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		if hs.ssess != nil {
			// A shard replica holds only its slice of the corpus, so the final
			// k-NN round must scatter across the fleet — the router exports
			// this session's state and runs the distributed finalize itself.
			writeErrorCode(w, http.StatusConflict, ErrCodeShardFinalize,
				"shard-hosted sessions finalize via the router (export the state and scatter)")
			return
		}
		release, err := s.sched.admit(r.Context(), "/v1/sessions/{id}/finalize")
		if err != nil {
			writeQueryError(w, err)
			return
		}
		defer release()
		if hs.dsess != nil {
			hs.mu.Lock()
			res, err := hs.dsess.FinalizeCtx(r.Context(), req.K)
			hs.mu.Unlock()
			if err != nil {
				writeQueryError(w, err)
				return
			}
			s.release(id) // finalized sessions are done (this drops the pin)
			writeJSON(w, http.StatusOK, AnswerResponse(res, 0, s.label))
			return
		}
		hs.mu.Lock()
		res, err := hs.sess.FinalizeCtx(r.Context(), req.K)
		stats := hs.sess.Stats()
		hs.mu.Unlock()
		if err != nil {
			writeQueryError(w, err)
			return
		}
		s.release(id) // finalized sessions are done
		writeJSON(w, http.StatusOK, s.toQueryResponse(res, stats))

	default:
		writeError(w, http.StatusNotFound, "unknown operation %q", op)
	}
}

// SessionCount reports the live thin-client sessions (for monitoring/tests).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}
