// Package router implements qdrouter's scatter-gather serving tier: an HTTP
// front over a fleet of shard replicas (qdserve processes each loading one
// shard archive, see internal/shard).
//
// The router owns no corpus rows. At startup it verifies the fleet — every
// shard index covered, one corpus signature, one archive version, one row
// precision (mixed-precision fleets are refused outright: float32 rows are
// swept in float32 and float64 rows in float64, whose distance bits differ,
// so their merged rankings would match neither a pure fleet nor the
// single-node engine) — and caches
// the shared full-corpus topology from one replica. After that every query
// is a fan-out: a k-NN, or each fetch of a finalize's final round, sends one
// leg to one replica per shard, per-shard top-k lists merge by (squared
// distance, ID) into exactly the ranking the single-node engine would emit
// (see internal/shard for the argument), and
// feedback sessions live on whichever replica the router placed them,
// resumable anywhere via the exported session state.
//
// Failure handling distinguishes overload from crash: a structured 503 with
// code "deadline_exceeded" (see internal/server.ErrCodeDeadline) fails over
// to the next replica of the same shard without marking the slow one dead,
// while a connection error marks the replica dead until the health loop
// (GET /healthz) revives it.
package router

import (
	"bytes"
	"context"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qdcbir/internal/obs"
	"qdcbir/internal/server"
	"qdcbir/internal/shard"
)

// ReplicaConfig names one backend: which shard it serves and where.
type ReplicaConfig struct {
	Shard int    `json:"shard"`
	URL   string `json:"url"`
}

// Config configures a Router.
type Config struct {
	Replicas []ReplicaConfig
	// Client issues all backend requests (default: http.Client with no
	// timeout — per-attempt timeouts come from RequestTimeout — over a
	// transport whose idle pool is sized to the fleet, see fleetTransport).
	Client *http.Client
	// RequestTimeout bounds each backend attempt (default 10s).
	RequestTimeout time.Duration
	// HealthInterval paces the background health loop (default 2s).
	HealthInterval time.Duration
	// Parallelism bounds concurrent shard legs per scatter (default: number
	// of shards).
	Parallelism int
	// ScrapeInterval paces the fleet telemetry scrape loop feeding
	// /v1/fleet/latency and /v1/fleet/stats (default 5s; negative disables
	// the loop, leaving those endpoints to scrape synchronously on demand).
	ScrapeInterval time.Duration
	// Logger receives one line per fleet event (nil disables logging).
	Logger *slog.Logger
}

// replica is one backend endpoint and its health/traffic state.
type replica struct {
	shard int
	url   string
	alive atomic.Bool
	reqs  atomic.Uint64
	errs  atomic.Uint64
}

// Router is the scatter-gather front. Construct with New, verify the fleet
// with VerifyFleet, then serve Handler().
type Router struct {
	client      *http.Client
	timeout     time.Duration
	healthEvery time.Duration
	parallelism int
	log         *slog.Logger

	shards [][]*replica // indexed by shard
	all    []*replica

	topo *shard.Topology
	meta shard.Meta // canonical fleet metadata (shard-0 copy, index cleared)

	obs          *obs.Observer
	reqs         *obs.Counter
	errs         *obs.Counter
	scatters     *obs.Counter
	failover     *obs.Counter
	singleflight *obs.Counter
	sheds        *obs.Counter
	// Per-shard request/error counters, indexed by shard.
	shardReqs []*obs.Counter
	shardErrs []*obs.Counter
	// Router-local overhead histograms: what the router itself adds on top of
	// shard time — dispatching the fan-out, merging the per-shard lists, and
	// waiting for the slowest shard after the fastest answered.
	fanoutHist    *obs.Histogram
	mergeHist     *obs.Histogram
	stragglerHist *obs.Histogram

	// stitches retains completed cross-process traces (router spans + shard
	// child spans under one request id); slow retains the slowest routed
	// requests as exemplars referencing them.
	stitches  *obs.StitchRing
	slow      *obs.SlowLog
	stitchSeq atomic.Uint64

	// Fleet telemetry scrape state (see fleet.go).
	scrapeEvery time.Duration
	fleetMu     sync.Mutex
	fleet       *fleetView

	// Single-flight table for identical concurrent KNN requests (see
	// singleflight.go).
	sfMu sync.Mutex
	sf   map[string]*sfCall

	// sessions hosts routed feedback sessions (see startSession).
	sessions *server.Sessions

	rr     []atomic.Uint64 // per-shard round-robin cursor
	reqSeq atomic.Uint64
}

// New builds a router over the configured fleet. It validates only the
// config shape; call VerifyFleet before serving to validate the fleet
// itself.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: no replicas configured")
	}
	nShards := 0
	for _, rc := range cfg.Replicas {
		if rc.Shard < 0 {
			return nil, fmt.Errorf("router: negative shard index %d", rc.Shard)
		}
		if rc.URL == "" {
			return nil, fmt.Errorf("router: shard %d replica with empty URL", rc.Shard)
		}
		// Shards are 0..n-1 and each needs a replica, so an index past the
		// replica count leaves some shard without one. Refusing it here keeps
		// a typo'd index from sizing the shard tables before the check below.
		if rc.Shard >= len(cfg.Replicas) {
			return nil, fmt.Errorf("router: shard index %d needs shards 0..%d, but only %d replicas are configured", rc.Shard, rc.Shard, len(cfg.Replicas))
		}
		if rc.Shard+1 > nShards {
			nShards = rc.Shard + 1
		}
	}
	rt := &Router{
		client:      cfg.Client,
		timeout:     cfg.RequestTimeout,
		healthEvery: cfg.HealthInterval,
		parallelism: cfg.Parallelism,
		scrapeEvery: cfg.ScrapeInterval,
		log:         cfg.Logger,
		shards:      make([][]*replica, nShards),
		rr:          make([]atomic.Uint64, nShards),
		stitches:    obs.NewStitchRing(0),
		slow:        obs.NewSlowLog(0),
		sf:          make(map[string]*sfCall),
	}
	if rt.timeout <= 0 {
		rt.timeout = 10 * time.Second
	}
	if rt.healthEvery <= 0 {
		rt.healthEvery = 2 * time.Second
	}
	if rt.scrapeEvery == 0 {
		rt.scrapeEvery = 5 * time.Second
	}
	if rt.parallelism <= 0 {
		rt.parallelism = nShards
	}
	if rt.client == nil {
		rt.client = &http.Client{Transport: fleetTransport(rt.parallelism, nShards, len(cfg.Replicas))}
	}
	for _, rc := range cfg.Replicas {
		rep := &replica{shard: rc.Shard, url: strings.TrimRight(rc.URL, "/")}
		rep.alive.Store(true) // optimistic until the first health pass
		rt.shards[rc.Shard] = append(rt.shards[rc.Shard], rep)
		rt.all = append(rt.all, rep)
	}
	for i, reps := range rt.shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas (shard count inferred as %d)", i, nShards)
		}
	}
	rt.obs = obs.New(obs.NewRegistry())
	reg := rt.obs.Registry()
	rt.reqs = reg.Counter("qd_router_requests_total", "Requests served by the router.")
	rt.errs = reg.Counter("qd_router_errors_total", "Router responses with status >= 400.")
	rt.scatters = reg.Counter("qd_router_scatters_total", "Scatter-gather fan-outs executed.")
	rt.failover = reg.Counter("qd_router_failovers_total", "Per-shard retries on another replica.")
	rt.singleflight = reg.Counter("qd_router_singleflight_total",
		"KNN requests answered by joining an identical in-flight scatter instead of fanning out again.")
	rt.sheds = reg.Counter("qd_router_sheds_total",
		"Shard 503 replies (admission sheds or deadline expiries) observed during fan-out.")
	rt.fanoutHist = reg.Histogram("qd_router_fanout_seconds",
		"Wall time of one scatter fan-out: dispatch to last shard list received.", nil)
	rt.mergeHist = reg.Histogram("qd_router_merge_seconds",
		"Wall time merging per-shard top-k lists into the fleet ranking.", nil)
	rt.stragglerHist = reg.Histogram("qd_router_straggler_wait_seconds",
		"Per fan-out: slowest shard leg minus fastest — time spent waiting on the straggler.", nil)
	rt.sessions = server.NewSessions(server.SessionsConfig{
		Start:      rt.startSession,
		Label:      func(id int) string { return rt.topo.RepLabel(id) },
		Shape:      func() (int, int) { return rt.meta.Images, rt.meta.Dim },
		Observer:   rt.obs,
		WriteError: writeBackendError,
	})
	rt.shardReqs = make([]*obs.Counter, nShards)
	rt.shardErrs = make([]*obs.Counter, nShards)
	for i := range rt.shards {
		rt.shardReqs[i] = reg.Counter(
			fmt.Sprintf("qd_router_shard%d_requests_total", i),
			fmt.Sprintf("Backend requests sent to shard %d.", i))
		rt.shardErrs[i] = reg.Counter(
			fmt.Sprintf("qd_router_shard%d_errors_total", i),
			fmt.Sprintf("Backend errors from shard %d.", i))
	}
	return rt, nil
}

// fleetTransport is the default backend transport. A scatter sends each
// shard one leg, a final-round fetch included, so what a replica sees at
// once is one leg per routed request in flight; net/http's default of two
// idle connections per host closes the rest after every burst and re-dials
// them on the next. The per-host idle pool is sized to parallelism × shard
// fan-out, room for that many concurrent routed requests, and the total to
// that for every replica.
func fleetTransport(parallelism, nShards, nReplicas int) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = idleConnsPerReplica(parallelism, nShards)
	tr.MaxIdleConns = tr.MaxIdleConnsPerHost * nReplicas
	return tr
}

func idleConnsPerReplica(parallelism, nShards int) int {
	return max(parallelism*nShards, http.DefaultMaxIdleConnsPerHost)
}

// Shards returns the number of shards the fleet serves.
func (rt *Router) Shards() int { return len(rt.shards) }

// Meta returns the fleet's canonical shard metadata (valid after
// VerifyFleet; ShardIndex is meaningless at fleet scope and set to -1).
func (rt *Router) Meta() shard.Meta { return rt.meta }

// Topology returns the shared full-corpus topology (valid after VerifyFleet).
func (rt *Router) Topology() *shard.Topology { return rt.topo }

// Observer exposes the router's telemetry sink.
func (rt *Router) Observer() *obs.Observer { return rt.obs }

// ---- fleet verification ----

// buildInfoBody is the subset of qdserve's /v1/buildinfo the router checks.
type buildInfoBody struct {
	ArchiveVersion int    `json:"archive_version"`
	Precision      string `json:"precision"`
	ShardIndex     *int   `json:"shard_index"`
	ShardCount     int    `json:"shard_count"`
}

// VerifyFleet contacts every replica and refuses to serve unless the fleet
// is coherent: every replica is a shard server, shard counts agree with the
// config, every shard index is covered by the replicas claiming it, and the
// corpus signature, archive version, and row precision are uniform. A
// mixed-precision fleet is rejected here — merging float32 and float64
// distance lists would produce a ranking no single-node build emits. So is a
// replica that does not speak this router's shard wire version: the router
// sends n-search binary frames and reads binary replies, with no JSON path
// beside them.
func (rt *Router) VerifyFleet(ctx context.Context) error {
	var ref shard.Meta
	haveRef := false
	for _, rep := range rt.all {
		var smr server.ShardMetaResponse
		if _, err := rt.call(ctx, rep, http.MethodGet, "/v1/shard/meta", nil, &smr); err != nil {
			return fmt.Errorf("router: replica %s: shard meta: %w", rep.url, err)
		}
		if smr.WireVersion != server.ShardWireVersion {
			return fmt.Errorf("router: replica %s speaks shard wire version %d, this router version %d (n-search frames, squared distances); upgrade the replica",
				rep.url, smr.WireVersion, server.ShardWireVersion)
		}
		meta := smr.Meta
		var bi buildInfoBody
		if _, err := rt.call(ctx, rep, http.MethodGet, "/v1/buildinfo", nil, &bi); err != nil {
			return fmt.Errorf("router: replica %s: buildinfo: %w", rep.url, err)
		}
		if meta.ShardCount != len(rt.shards) {
			return fmt.Errorf("router: replica %s serves a %d-shard corpus, config has %d shards", rep.url, meta.ShardCount, len(rt.shards))
		}
		if meta.ShardIndex != rep.shard {
			return fmt.Errorf("router: replica %s serves shard %d, configured as shard %d", rep.url, meta.ShardIndex, rep.shard)
		}
		if bi.Precision != "" && bi.Precision != meta.Storage {
			return fmt.Errorf("router: replica %s reports precision %q in buildinfo but %q in shard meta", rep.url, bi.Precision, meta.Storage)
		}
		if !haveRef {
			ref, haveRef = meta, true
			continue
		}
		if meta.CorpusSig != ref.CorpusSig {
			return fmt.Errorf("router: replica %s corpus signature %016x != fleet %016x (mixed builds)", rep.url, meta.CorpusSig, ref.CorpusSig)
		}
		if meta.Storage != ref.Storage {
			return fmt.Errorf("router: mixed-precision fleet refused: replica %s stores %q rows, fleet stores %q", rep.url, meta.Storage, ref.Storage)
		}
		if meta.ArchiveVersion != ref.ArchiveVersion {
			return fmt.Errorf("router: replica %s archive version %d != fleet %d", rep.url, meta.ArchiveVersion, ref.ArchiveVersion)
		}
	}
	var topo shard.Topology
	if _, err := rt.call(ctx, rt.shards[0][0], http.MethodGet, "/v1/shard/topology", nil, &topo); err != nil {
		return fmt.Errorf("router: fetch topology: %w", err)
	}
	if err := topo.Index(); err != nil {
		return fmt.Errorf("router: fleet topology: %w", err)
	}
	ref.ShardIndex = -1
	ref.LocalImages = 0
	rt.meta = ref
	rt.topo = &topo
	if rt.log != nil {
		rt.log.Info("fleet verified",
			slog.Int("shards", len(rt.shards)),
			slog.Int("replicas", len(rt.all)),
			slog.Int("images", ref.Images),
			slog.String("precision", ref.Storage),
			slog.Int("archive_version", ref.ArchiveVersion),
			slog.String("corpus_sig", fmt.Sprintf("%016x", ref.CorpusSig)),
		)
	}
	return nil
}

// Start launches the background loops — health probing and fleet telemetry
// scraping; both stop when ctx is done.
func (rt *Router) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(rt.healthEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				rt.CheckHealth(ctx)
			}
		}
	}()
	if rt.scrapeEvery > 0 {
		go func() {
			t := time.NewTicker(rt.scrapeEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					rt.refreshFleet(ctx)
				}
			}
		}()
	}
}

// CheckHealth probes every replica's /healthz once and updates liveness.
func (rt *Router) CheckHealth(ctx context.Context) {
	for _, rep := range rt.all {
		cctx, cancel := context.WithTimeout(ctx, rt.timeout)
		var body struct {
			Status string `json:"status"`
		}
		_, err := rt.call(cctx, rep, http.MethodGet, "/healthz", nil, &body)
		cancel()
		ok := err == nil && body.Status == "ok"
		if was := rep.alive.Swap(ok); was != ok && rt.log != nil {
			rt.log.Info("replica health changed",
				slog.Int("shard", rep.shard), slog.String("url", rep.url), slog.Bool("alive", ok))
		}
	}
}

// ---- backend calls ----

// backendError is a structured downstream failure.
type backendError struct {
	Status  int
	Code    string
	Message string
	URL     string
}

func (e *backendError) Error() string {
	return fmt.Sprintf("%s: HTTP %d (%s): %s", e.URL, e.Status, e.Code, e.Message)
}

// retryable reports whether another replica of the same shard may succeed
// where this one failed: overload (deadline expiry) and drains fail over;
// bad requests do not.
func (e *backendError) retryable() bool {
	return e.Status == http.StatusServiceUnavailable || e.Status >= 500
}

// framedBody is a request body already in the shard wire's binary framing
// (see internal/server/shardwire.go). A scatter encodes its search frame
// once; every leg and every fail-over attempt sends the same bytes.
type framedBody []byte

// call issues one request to one replica. A nil in sends no body, a
// framedBody is sent as it is, anything else as JSON; a non-nil out decodes
// the 2xx response — an encoding.BinaryUnmarshaler asks for and reads the
// endpoint's binary framing, anything else JSON. Non-2xx responses decode
// the uniform error body into a *backendError. The remaining ctx deadline is
// propagated downstream via X-Qd-Deadline-Ms so a replica gives up (with the
// structured 503) rather than holding a doomed scatter leg open.
func (rt *Router) call(ctx context.Context, rep *replica, method, path string, in, out interface{}) (int, error) {
	cctx, cancel := context.WithTimeout(ctx, rt.timeout)
	defer cancel()
	var body io.Reader
	contentType := "application/json"
	switch in := in.(type) {
	case nil:
	case framedBody:
		body, contentType = bytes.NewReader(in), server.ShardBinaryType
	default:
		raw, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(cctx, method, rep.url+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", contentType)
	}
	framed, _ := out.(encoding.BinaryUnmarshaler)
	if framed != nil {
		req.Header.Set("Accept", server.ShardBinaryType)
	}
	if dl, ok := cctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set("X-Qd-Deadline-Ms", strconv.FormatInt(ms, 10))
	}
	// Cross-process tracing: a stitch on the context stamps the trace header
	// (the shard's opt-in to record and return its spans) and receives this
	// RPC as a span on the shard's track. st may be nil; every stitch method
	// no-ops then.
	st := stitchFrom(ctx)
	rpcName := method + " " + path
	if st != nil {
		req.Header.Set(obs.TraceHeader, st.RequestID())
		if q := strings.IndexByte(rpcName, '?'); q >= 0 {
			rpcName = rpcName[:q]
		}
	}
	rpcOff := st.Since()
	rep.reqs.Add(1)
	if rep.shard >= 0 && rep.shard < len(rt.shardReqs) {
		rt.shardReqs[rep.shard].Inc()
	}
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		rep.errs.Add(1)
		if rep.shard >= 0 && rep.shard < len(rt.shardErrs) {
			rt.shardErrs[rep.shard].Inc()
		}
		st.RPC(rep.shard, rpcName, rpcOff, st.Since()-rpcOff, nil)
		return 0, err
	}
	defer resp.Body.Close()
	rt.obs.Windows().Observe("shard:"+strconv.Itoa(rep.shard), time.Since(start).Seconds())
	if resp.StatusCode >= 400 {
		rep.errs.Add(1)
		if rep.shard >= 0 && rep.shard < len(rt.shardErrs) {
			rt.shardErrs[rep.shard].Inc()
		}
		var eb struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		st.RPC(rep.shard, rpcName, rpcOff, st.Since()-rpcOff, nil)
		return resp.StatusCode, &backendError{Status: resp.StatusCode, Code: eb.Code, Message: eb.Error, URL: rep.url + path}
	}
	if out != nil {
		if framed != nil {
			err = readFramed(resp, framed)
		} else {
			err = json.NewDecoder(resp.Body).Decode(out)
		}
		if err != nil {
			rep.errs.Add(1)
			st.RPC(rep.shard, rpcName, rpcOff, st.Since()-rpcOff, nil)
			return resp.StatusCode, fmt.Errorf("%s: decode: %w", rep.url+path, err)
		}
	}
	// The RPC span covers send through decode; a traced response carries the
	// shard's child spans, re-based into this window by the stitch.
	var remote *obs.RemoteTrace
	if traced, ok := out.(obs.RemoteTraced); ok {
		remote = traced.TraceData()
	}
	st.RPC(rep.shard, rpcName, rpcOff, st.Since()-rpcOff, remote)
	return resp.StatusCode, nil
}

// maxPresizedReply is the largest declared length readFramed trusts to size
// its buffer. A k = 50 neighbours list is ≈ 1.2 KB plus a ~100-byte span, a
// full frame's sixteen of them ≈ 21 KB, and sixteen 512-d example vectors
// ≈ 66 KB, so no legitimate reply comes near it, and a replica's header
// alone never makes the router allocate more. A longer reply is read as it
// arrives.
const maxPresizedReply = 1 << 20

// readFramed reads a binary-framed reply. VerifyFleet admitted only replicas
// that frame, so any other content type is a fault, not a mode to fall back
// from.
func readFramed(resp *http.Response, out encoding.BinaryUnmarshaler) error {
	if ct := resp.Header.Get("Content-Type"); ct != server.ShardBinaryType {
		return fmt.Errorf("reply is %q, want %q", ct, server.ShardBinaryType)
	}
	var raw []byte
	var err error
	if n := resp.ContentLength; n >= 0 && n <= maxPresizedReply {
		raw = make([]byte, n)
		_, err = io.ReadFull(resp.Body, raw)
	} else {
		raw, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return err
	}
	return out.UnmarshalBinary(raw)
}

// pick returns the shard's replicas in round-robin failover order.
func (rt *Router) pick(shardIdx int) []*replica {
	reps := rt.shards[shardIdx]
	start := int(rt.rr[shardIdx].Add(1)) % len(reps)
	out := make([]*replica, 0, len(reps))
	for i := 0; i < len(reps); i++ {
		out = append(out, reps[(start+i)%len(reps)])
	}
	return out
}

// doShard issues a request to the shard, failing over across replicas.
// Dead replicas are tried last; a connection error marks a replica dead, a
// retryable HTTP error (deadline expiry, drain, 5xx) moves on without
// changing liveness — the replica is overloaded, not gone. Non-retryable
// errors (bad request, unknown node) return immediately: every replica of
// the shard would answer the same.
func (rt *Router) doShard(ctx context.Context, shardIdx int, method, path string, in, out interface{}) error {
	ordered := rt.pick(shardIdx)
	alive := make([]*replica, 0, len(ordered))
	dead := make([]*replica, 0, len(ordered))
	for _, rep := range ordered {
		if rep.alive.Load() {
			alive = append(alive, rep)
		} else {
			dead = append(dead, rep)
		}
	}
	var lastErr error
	for i, rep := range append(alive, dead...) {
		if i > 0 {
			rt.failover.Inc()
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		_, err := rt.call(ctx, rep, method, path, in, out)
		if err == nil {
			rep.alive.Store(true)
			return nil
		}
		var be *backendError
		if errors.As(err, &be) {
			if be.Status == http.StatusServiceUnavailable {
				rt.sheds.Inc()
			}
			if !be.retryable() {
				return err
			}
			lastErr = err
			continue // overloaded or draining; liveness unchanged
		}
		if ctx.Err() != nil {
			// Our own deadline or the client's cancellation, not the
			// replica's fault.
			return err
		}
		rep.alive.Store(false)
		if rt.log != nil {
			rt.log.Warn("replica unreachable",
				slog.Int("shard", rep.shard), slog.String("url", rep.url), slog.String("error", err.Error()))
		}
		lastErr = err
	}
	return fmt.Errorf("router: shard %d unavailable: %w", shardIdx, lastErr)
}
