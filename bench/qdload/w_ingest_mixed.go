package main

// ingest_mixed: writes beside reads on the segmented engine. One paced
// writer inserts and deletes at a fixed rate while closed-loop readers run
// short hosted sessions and one-shot queries against the same qdserve.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"qdcbir"
)

type ingestMixed struct {
	images     int
	writesPerS int
	lag        int // bench-inserted rows kept live before the oldest is deleted
	shape      sessionShape
	k          int

	served
	srv     *proc
	base    string
	archive string
	buildS  float64 // qdbuild wall time of the last set-up
	loadS   float64 // qdserve spawn to /healthz ok

	twin    *qdcbir.System // same seed, same corpus: source of insert vectors and labels
	initial int            // live rows at boot
	pools   [][]int        // per paper query: its ground-truth images, ascending
	wb      wireBytes

	quality qualityMean // of the fixed probe queries, played once before any write

	mu        sync.Mutex
	inserted  []int             // acked inserts, in order
	deletedAt map[int]time.Time // acked deletes -> ack time
	replies   []datedReply
}

// datedReply is one read reply with the moment its world was fixed: the
// request's send time, or for a hosted session the session's creation (a
// session pins the snapshot it started on).
type datedReply struct {
	asOf time.Time
	ids  []int
}

func newIngestMixed() *ingestMixed {
	return &ingestMixed{
		images: 8000, writesPerS: 400, lag: 512,
		shape: sessionShape{rounds: 1, fetches: 4, k: 50}, k: 50,
		deletedAt: map[int]time.Time{},
	}
}

func (w *ingestMixed) name() string     { return "ingest_mixed" }
func (w *ingestMixed) setupReps() int   { return 7 }
func (w *ingestMixed) headline() string { return kindWrite }

func (w *ingestMixed) prepare(e *env) error { return nil }

func (w *ingestMixed) setup(e *env) error {
	var err error
	if w.fl, err = newFleet(e.binDir, e.outDir); err != nil {
		return err
	}
	w.archive = filepath.Join(e.outDir, "dyn.gob")
	t0 := time.Now()
	if err := w.fl.run("qdbuild", "qdbuild", "-out", w.archive, "-vectors",
		"-images", fmt.Sprint(w.images), "-quantize", "-dynamic", "-seed", fmt.Sprint(corpusSeed)); err != nil {
		return err
	}
	w.buildS = time.Since(t0).Seconds()
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	t0 = time.Now()
	if w.srv, err = w.fl.start("qdserve", "qdserve", "-db", w.archive, "-dynamic", "-addr", addr, "-digest-interval", "0"); err != nil {
		return err
	}
	w.base = "http://" + addr
	if err := w.fl.waitHealthy(w.srv, w.base, 60*time.Second); err != nil {
		return err
	}
	w.loadS = time.Since(t0).Seconds()
	return firstQueryReply(w.base, 0, 10)
}

func (w *ingestMixed) ready(e *env) error {
	// qdbuild -vectors -images N -quantize -dynamic builds exactly this.
	var err error
	w.twin, err = qdcbir.Build(qdcbir.Config{Seed: corpusSeed, VectorMode: true, Images: w.images, Quantized: true})
	if err != nil {
		return err
	}
	c := newAPIClient(w.base, nil)
	defer c.close()
	var info struct {
		Images int `json:"images"`
	}
	if err := c.get("/v1/info", &info); err != nil {
		return err
	}
	if info.Images != w.twin.Len() {
		return fmt.Errorf("server holds %d images, the twin %d: same seed must give the same corpus", info.Images, w.twin.Len())
	}
	w.initial = info.Images
	w.pools = nil
	for _, q := range w.twin.Queries() {
		truth := w.twin.GroundTruth(q)
		var pool []int
		for id := 0; id < w.twin.Len(); id++ { // ascending: map order must not leak into the stream
			if truth[id] {
				pool = append(pool, id)
			}
		}
		w.pools = append(w.pools, pool)
	}
	// The quality probe: fixed one-shot queries on the corpus as built.
	rng := subRand(corpusSeed, "quality-probe", 0)
	queries := w.twin.Queries()
	w.quality = qualityMean{}
	for i := 0; i < qualityProbes; i++ {
		qi := rng.Intn(len(queries))
		var resp queryResponse
		if err := c.post("/v1/query", queryRequest{K: w.k, Relevant: pickExamples(rng, w.pools[qi])}, &resp); err != nil {
			return fmt.Errorf("quality probe: %w", err)
		}
		_, labels := resp.flat()
		w.quality.add(labels, newOracle(queries[qi].Targets, 0).targets)
	}
	return nil
}

func (w *ingestMixed) serverPIDs() []int     { return []int{w.srv.pid()} }
func (w *ingestMixed) scrapeBases() []string { return []string{w.base} }

func (w *ingestMixed) clientFuncs(e *env) []clientFunc {
	readers := e.clients - 1
	if readers < 1 {
		readers = 1
	}
	fs := []clientFunc{w.writer(e)}
	for i := 0; i < readers; i++ {
		fs = append(fs, w.reader(e, i))
	}
	return fs
}

// writer is the paced client: op i is due at start + i/rate whatever the
// server does, its latency runs from that due time, and how late the
// generator itself sent it is recorded as "late". Ops alternate insert and
// delete-oldest once `lag` bench rows are live, so the corpus size — and
// with it the read cost — does not depend on how fast inserts are.
func (w *ingestMixed) writer(e *env) clientFunc {
	return func(ctx context.Context, rec *recorder) {
		rng := subRand(e.seed, "ingest_mixed-writer", 0)
		c := newAPIClient(w.base, &w.wb)
		defer c.close()
		period := time.Second / time.Duration(w.writesPerS)
		start := time.Now()
		var fifo []int
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * period)
			if d := time.Until(due); d > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
			} else if ctx.Err() != nil {
				return
			}
			sent := time.Now()
			rec.samples = append(rec.samples, sample{kindLate, sent.Sub(rec.t0), sent.Sub(due)})
			rec.attempted++
			if i%2 == 1 && len(fifo) > w.lag {
				id := fifo[0]
				fifo = fifo[1:]
				if err := c.do("DELETE", fmt.Sprintf("/v1/images/%d", id), nil, nil); err != nil {
					rec.fail(fmt.Errorf("delete %d: %w", id, err))
					continue
				}
				w.mu.Lock()
				w.deletedAt[id] = time.Now()
				w.mu.Unlock()
			} else {
				src := rng.Intn(w.twin.Len())
				v := append([]float64(nil), w.twin.Corpus().Vectors[src]...)
				for j := range v {
					v[j] += 0.01 * rng.NormFloat64()
				}
				var resp insertResponse
				if err := c.post("/v1/images", insertRequest{Vector: v, Label: w.twin.SubconceptOf(src)}, &resp); err != nil {
					rec.fail(fmt.Errorf("insert: %w", err))
					continue
				}
				fifo = append(fifo, resp.ID)
				w.mu.Lock()
				w.inserted = append(w.inserted, resp.ID)
				w.mu.Unlock()
			}
			rec.add(kindWrite, due)
		}
	}
}

// reader alternates a short hosted session with a one-shot query whose
// examples come from one paper query's ground truth.
func (w *ingestMixed) reader(e *env, idx int) clientFunc {
	return func(ctx context.Context, rec *recorder) {
		rng := subRand(e.seed, "ingest_mixed-reader", idx)
		c := newAPIClient(w.base, &w.wb)
		defer c.close()
		var replies []datedReply
		for n := 0; ctx.Err() == nil; n++ {
			if err := checkAlive(w.srv); err != nil {
				rec.fail(err)
				break
			}
			floorProbe(c, rec, n)
			if n%2 == 0 {
				p, err := playSession(openHTTPSession(c, rng.Int63n(1<<40)+1, nil), w.shape, newOracle(nil, 2), rec)
				if err != nil {
					rec.fail(err)
					continue
				}
				replies = append(replies, datedReply{p.opened, p.ids})
				continue
			}
			req := queryRequest{K: w.k, Relevant: pickExamples(rng, w.pools[rng.Intn(len(w.pools))])}
			var resp queryResponse
			rec.attempted++
			t0 := time.Now()
			if err := c.post("/v1/query", req, &resp); err != nil {
				rec.fail(err)
				continue
			}
			rec.add(kindFinalize, t0)
			ids, _ := resp.flat()
			replies = append(replies, datedReply{t0, ids})
		}
		w.mu.Lock()
		w.replies = append(w.replies, replies...)
		w.mu.Unlock()
	}
}

// verify is the ingest accounting: the live count adds up, every surviving
// acked insert is readable, deleted images are gone, and no read reply whose
// world was fixed after a delete's ack still shows the deleted image.
func (w *ingestMixed) verify(e *env) (int, int, error) {
	c := newAPIClient(w.base, nil)
	defer c.close()
	checked, wrong := 0, 0
	var info struct {
		Images int `json:"images"`
	}
	if err := c.get("/v1/info", &info); err != nil {
		return 0, 0, err
	}
	want := w.initial + len(w.inserted) - len(w.deletedAt)
	if e.corrupt {
		want++
	}
	checked++
	if info.Images != want {
		wrong++
	}
	for i, id := range w.inserted {
		_, deleted := w.deletedAt[id]
		if deleted && i%5 != 0 {
			continue // deleted images are sampled 1-in-5; survivors are all checked
		}
		err := c.get(fmt.Sprintf("/v1/images/%d", id), nil)
		var se *statusError
		gone := errors.As(err, &se) && se.status == 404
		checked++
		if (deleted && !gone) || (!deleted && err != nil) {
			wrong++
		}
	}
	for _, r := range w.replies {
		checked++
		for _, id := range r.ids {
			if at, ok := w.deletedAt[id]; ok && at.Before(r.asOf) {
				wrong++
				break
			}
		}
	}
	return checked, wrong, nil
}

func (w *ingestMixed) facts() (float64, float64, float64) {
	g, p := w.quality.means()
	return archiveRatio([]string{w.archive}, w.initial, 37, 8), g, p
}

// pickExamples draws the seven example images of a one-shot query from a
// paper query's ground truth (all of it, on a corpus too small to hold seven).
func pickExamples(rng *rand.Rand, pool []int) []int {
	n := 7
	if n > len(pool) {
		n = len(pool)
	}
	out := make([]int, n)
	for i, j := range rng.Perm(len(pool))[:n] {
		out[i] = pool[j]
	}
	return out
}
