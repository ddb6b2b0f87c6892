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
//     (POST /v1/sessions, .../candidates, .../feedback, .../finalize) in a
//     Sessions table, the same one qdrouter mounts over a fleet.
//   - Client-side mode: GET /v1/payload ships the representative structure —
//     the only information relevance feedback needs, a small fraction of the
//     database — and the Client type in this package runs the whole feedback
//     loop locally, touching the server once per query (POST /v1/query).
//
// All structures are read-only after construction, so any number of sessions
// may run concurrently; per-session state is independently locked.
package server

import (
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
	"qdcbir/internal/shard"
	"qdcbir/internal/vec"
)

// Labeler maps an image ID to a human-meaningful label (ground-truth
// subconcepts in the synthetic corpus; thumbnails in a real deployment).
type Labeler func(id int) string

// Server serves one built retrieval system.
type Server struct {
	engine *core.Engine
	label  Labeler

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

	sessions *Sessions

	payload    *Payload
	payloadErr error
	payloadGen sync.Once

	images []*img.Image // optional rasters for the web UI (see webui.go)

	// shard, when set, switches the server into shard-replica mode (see
	// NewShard in shard.go): engine is nil, the scatter-gather endpoints come
	// alive, and what needs the whole corpus (sessions, one-shot queries) is
	// refused in favour of the router.
	shard *shard.Replica

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
	s := &Server{
		label:    label,
		obs:      o,
		httpReqs: o.Registry().Counter("qd_http_requests_total", "HTTP requests served."),
		httpErrs: o.Registry().Counter("qd_http_errors_total", "HTTP responses with status >= 400."),
		slow:     obs.NewSlowLog(0),
	}
	s.sessions = NewSessions(SessionsConfig{
		Start:    s.newHosted,
		Label:    label,
		Shape:    s.bodyShape,
		Observer: o,
		Admit: func(ctx context.Context, endpoint string) (func(), error) {
			return s.sched.admit(ctx, endpoint)
		},
	})
	return s
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
func (s *Server) SetMaxSessions(n int) { s.sessions.SetMax(n) }

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
	// whole corpus: hosted sessions (/v1/sessions*, which the router hosts
	// over the fleet topology), /v1/query and /v1/payload.
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
	mux.HandleFunc("/v1/sessions/", s.handleSessions)
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

// bodyShape is what a request body to this server can name: the images of
// the served corpus (its live ones, when dynamic) and vectors of its
// dimension.
func (s *Server) bodyShape() (images, dim int) {
	switch {
	case s.dyn != nil:
		snap := s.dyn.DB().Acquire()
		defer snap.Release()
		return snap.Live(), s.dyn.DB().Config().Dim
	case s.shard != nil:
		m := s.shard.Meta()
		return m.Images, m.Dim
	}
	f := s.engine.RFS()
	return f.Len(), f.Tree().Dim()
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
	if !DecodeBody(w, r, QueryBodyLimit(s.bodyShape()), &req) {
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

// handleSessions serves the hosted-session table. A replica refuses it:
// routed sessions live at the router, over the fleet topology.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if s.refuseLocal(w, "/v1/sessions") {
		return
	}
	s.sessions.ServeHTTP(w, r)
}

// newHosted builds a hosted session over the mode's hierarchy — fresh when st
// is nil, restored from an exported state otherwise.
func (s *Server) newHosted(rng *rand.Rand, st *core.SessionState) (*HostedSession, error) {
	if s.dyn != nil {
		if st != nil {
			// Page keys name segment positions in the exporting snapshot, and
			// this session pins the current one: the panel keeps its images,
			// weights and counters and browses from the segment roots.
			local := *st
			local.Assign, local.Displayed = nil, nil
			st = &local
		}
		snap := s.dyn.DB().Acquire()
		m, err := StartMachine(snap.Forest(), st, rng, 0)
		if err != nil {
			snap.Release()
			return nil, err
		}
		return Host(m, func(ctx context.Context, k int) (any, error) {
			res, err := snap.FinalizeSession(ctx, m, k)
			if err != nil {
				return nil, err
			}
			return AnswerResponse(res, 0, s.label), nil
		}, snap.Release), nil
	}
	var cs *core.Session
	if st == nil {
		cs = s.engine.NewSession(rng)
	} else {
		var err error
		if cs, err = s.engine.RestoreSession(st, rng); err != nil {
			return nil, err
		}
	}
	return Host(&cs.Machine, func(ctx context.Context, k int) (any, error) {
		res, err := cs.FinalizeCtx(ctx, k)
		if err != nil {
			return nil, err
		}
		return s.toQueryResponse(res, cs.Stats()), nil
	}, nil), nil
}

// SessionCount reports the live thin-client sessions (for monitoring/tests).
func (s *Server) SessionCount() int { return s.sessions.Count() }
