package main

// session_static: the paper's headline scenario. One static qdserve over a
// paper-scale float64 corpus; every client loops hosted feedback sessions
// over the eleven Table-1 queries.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"qdcbir"
)

type sessionStatic struct {
	images, categories int
	shape              sessionShape
	variants           int      // scripted sessions per paper query
	firstMarks         int      // relevant images a script's first round must show
	extraBuild         []string // more qdbuild flags (the small-scale smoke test's tree shape)

	served
	srv     *proc
	base    string
	archive string
	buildS  float64 // qdbuild wall time of the last set-up
	loadS   float64 // qdserve spawn to /healthz ok

	twin    *qdcbir.System
	scripts []script
	order   []int // the seed's shuffle of the scripts
	wb      wireBytes

	mu    sync.Mutex
	wrong int // sessions whose answer differed from the in-process replay
	seen  int
}

func newSessionStatic() *sessionStatic {
	return &sessionStatic{
		images: 15000, categories: 150,
		shape:    sessionShape{rounds: 3, fetches: 4, k: 100},
		variants: 32, firstMarks: 2,
	}
}

func (w *sessionStatic) name() string     { return "session_static" }
func (w *sessionStatic) setupReps() int   { return 7 }
func (w *sessionStatic) headline() string { return kindSession }

func (w *sessionStatic) prepare(e *env) error { return nil }

func (w *sessionStatic) setup(e *env) error {
	var err error
	if w.fl, err = newFleet(e.binDir, e.outDir); err != nil {
		return err
	}
	w.archive = filepath.Join(e.outDir, "db.gob")
	t0 := time.Now()
	if err := w.fl.run("qdbuild", "qdbuild", append([]string{"-out", w.archive, "-vectors",
		"-images", fmt.Sprint(w.images), "-categories", fmt.Sprint(w.categories),
		"-seed", fmt.Sprint(corpusSeed)}, w.extraBuild...)...); err != nil {
		return err
	}
	w.buildS = time.Since(t0).Seconds()
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	t0 = time.Now()
	// -digest-interval 0: no periodic logging loop runs inside the window.
	if w.srv, err = w.fl.start("qdserve", "qdserve", "-db", w.archive, "-addr", addr, "-digest-interval", "0"); err != nil {
		return err
	}
	w.base = "http://" + addr
	if err := w.fl.waitHealthy(w.srv, w.base, 60*time.Second); err != nil {
		return err
	}
	w.loadS = time.Since(t0).Seconds()
	return firstQueryReply(w.base, 0, 10)
}

// firstQueryReply is the "first correct reply" that ends set-up on the
// single-server workloads: a one-shot query must return k images.
func firstQueryReply(base string, example, k int) error {
	c := newAPIClient(base, nil)
	defer c.close()
	var resp queryResponse
	if err := c.post("/v1/query", queryRequest{Relevant: []int{example}, K: k}, &resp); err != nil {
		return fmt.Errorf("first reply: %w", err)
	}
	if ids, _ := resp.flat(); len(ids) != k {
		return fmt.Errorf("first reply: got %d images, want %d", len(ids), k)
	}
	return nil
}

func (w *sessionStatic) ready(e *env) error {
	var err error
	if w.twin, err = qdcbir.LoadFile(w.archive); err != nil {
		return fmt.Errorf("load twin: %w", err)
	}
	if w.scripts, err = buildScripts(w.twin, w.variants, w.firstMarks, w.shape); err != nil {
		return err
	}
	if e.corrupt {
		for i := range w.scripts {
			w.scripts[i].expect[0]++
		}
	}
	w.order = subRand(e.seed, "script-order", 0).Perm(len(w.scripts))
	return nil
}

func (w *sessionStatic) serverPIDs() []int     { return []int{w.srv.pid()} }
func (w *sessionStatic) scrapeBases() []string { return []string{w.base} }

func (w *sessionStatic) clientFuncs(e *env) []clientFunc {
	fs := make([]clientFunc, e.clients)
	for i := range fs {
		i := i
		fs[i] = func(ctx context.Context, rec *recorder) {
			c := newAPIClient(w.base, &w.wb)
			defer c.close()
			wrong, seen := 0, 0
			for n := i; ctx.Err() == nil; n += e.clients {
				if err := checkAlive(w.srv); err != nil {
					rec.fail(err)
					break
				}
				floorProbe(c, rec, n)
				sc := w.scripts[w.order[n%len(w.order)]]
				p, err := playSession(openHTTPSession(c, sc.seed, nil), w.shape, newOracle(sc.targets, 0), rec)
				if err != nil {
					rec.fail(err)
					continue
				}
				seen++
				if !sameIDs(p.ids, sc.expect) {
					wrong++
				}
			}
			w.mu.Lock()
			w.wrong += wrong
			w.seen += seen
			w.mu.Unlock()
		}
	}
	return fs
}

// floorProbe times GET /healthz on the client's own connection every 16th
// iteration: the transport floor under every served op.
func floorProbe(c *apiClient, rec *recorder, n int) {
	if n%16 != 0 {
		return
	}
	t0 := time.Now()
	if err := c.get("/healthz", nil); err == nil {
		rec.add(kindFloor, t0)
	}
}

func (w *sessionStatic) verify(e *env) (int, int, error) { return w.seen, w.wrong, nil }

func (w *sessionStatic) facts() (float64, float64, float64) {
	g, p := scriptQuality(w.scripts).means()
	return archiveRatio([]string{w.archive}, w.twin.Len(), 37, 8), g, p
}

// archiveRatio is bytes of every archive the fleet loads over the corpus's
// native vector bytes.
func archiveRatio(paths []string, rows, dim, elemBytes int) float64 {
	var total int64
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil {
			total += st.Size()
		}
	}
	return float64(total) / float64(rows*dim*elemBytes)
}

// httpOpSpans plays one hosted session on the live server with a private
// recorder and turns its round and finalize samples into the op's outermost
// spans, in user order.
func httpOpSpans(t *tracer, op int, c *apiClient, seed int64, shape sessionShape, o *oracle, label func(int, string) string) (*played, []int, error) {
	rec := &recorder{t0: t.t0}
	p, err := playSession(openHTTPSession(c, seed, label), shape, o, rec)
	if err != nil {
		return nil, nil, err
	}
	var ids []int
	for _, s := range rec.samples {
		if s.kind == kindRound || s.kind == kindFinalize {
			ids = append(ids, t.add(layerServer, "http "+s.kind, op, -1, t.t0.Add(s.end-s.lat), s.lat))
		}
	}
	return p, ids, nil
}

// layers replays the first 44 scripts of the seed's order (132 rounds, 44
// finalizes): each user op is first the HTTP round trip
// on the live server, then the same op on the engine in process, then the
// localized descents and kernel sweeps under it.
func (w *sessionStatic) layers(e *env, t *tracer, m metrics, s *scrapeDelta) error {
	probe := newSystemProbe(w.twin, t)
	c := newAPIClient(w.base, nil)
	defer c.close()
	var dec, enc meanOf
	for op := 0; op < 44 && op < len(w.order); op++ {
		sc := w.scripts[w.order[op]]
		p, spans, err := httpOpSpans(t, op, c, sc.seed, w.shape, newOracle(sc.targets, 0), nil)
		if err != nil {
			return err
		}
		if err := probe.session(op, sc.seed, p.marks, w.shape, spans); err != nil {
			return err
		}
		last := p.marks[len(p.marks)-1]
		codecSpans(t, op, spans[len(spans)-1], last, w.shape.k, p.ids, p.labels, &dec, &enc)
	}
	rng := subRand(e.seed, "trace-knn", 0)
	for op := 0; op < 100; op++ {
		ex := rng.Intn(w.twin.Len())
		d, reads := probe.descent(-1-op, offPath, probe.tree.Root(), w.twin.Corpus().Vectors[ex], 50, ex)
		probe.knnUS.add(us(d))
		probe.knnReads.add(float64(reads))
	}
	probe.report(m)
	m["server.decode_us"], m["server.encode_us"] = dec.mean(), enc.mean()
	m["store.native_bytes_per_row"] = 37 * 8
	m["rfs.build_s"] = rfsBuildSeconds(w.twin.Corpus().Vectors)
	m["persist.build_s"], m["persist.load_s"] = w.buildS, w.loadS
	m["persist.archive_mb"] = archiveRatio([]string{w.archive}, 1, 1, 1) / (1 << 20)
	servedCounters(m, s, &w.wb)
	return nil
}

// servedCounters are the S metrics every served workload reports: the
// servers' own error and shed counters and the generator-side body sizes.
func servedCounters(m metrics, s *scrapeDelta, wb *wireBytes) {
	m["server.sched_shed"] = s.delta("qd_sched_shed_total")
	m["server.http_errors"] = s.delta("qd_http_errors_total") + s.delta("qd_router_errors_total")
	if n := float64(wb.calls.Load()); n > 0 {
		m["server.req_bytes_mean"] = float64(wb.req.Load()) / n
		m["server.resp_bytes_mean"] = float64(wb.resp.Load()) / n
	}
	searches := s.delta("qd_knn_total") + s.delta("qd_subquery_fanout_sum")
	if searches > 0 {
		m["core.rerank_fallback_frac"] = s.delta("qd_knn_rerank_fallbacks_total") / searches
	}
}
