package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"qdcbir"
	"qdcbir/internal/disk"
	"qdcbir/internal/obs"
	"qdcbir/internal/vec"
)

// ingest_mixed's per-layer pass: each write is the HTTP request on the live
// server, then the same write on an in-process segmented engine opened over
// the same build; one-shot queries likewise. Hosted dynamic sessions are not
// decomposed: the allow-list holds no seg session entry, so their time would
// all land on "server".
func (w *ingestMixed) layers(e *env, t *tracer, m metrics, s *scrapeDelta) error {
	ctx := context.Background()
	dyn, err := qdcbir.OpenDynamic(w.twin, qdcbir.DynamicConfig{})
	if err != nil {
		return err
	}
	defer dyn.Close()
	db := dyn.DB()
	c := newAPIClient(w.base, nil)
	defer c.close()
	rng := subRand(e.seed, "trace", 0)

	var insUS, delUS, knnUS, staticUS, finUS meanOf
	var live, liveHTTP []int
	const writes, lag = 800, 128
	for op := 0; op < writes; op++ {
		if op%2 == 1 && len(live) > lag {
			idHTTP, id := liveHTTP[0], live[0]
			liveHTTP, live = liveHTTP[1:], live[1:]
			b0, _ := t.call(layerServer, "http DELETE /v1/images/{id}", op, -1, func() {
				err = c.do("DELETE", fmt.Sprintf("/v1/images/%d", idHTTP), nil, nil)
			})
			if err != nil {
				return err
			}
			_, d := t.call(layerSeg, "seg.DB.Delete", op, b0, func() { err = db.Delete(id) })
			if err != nil {
				return err
			}
			delUS.add(us(d))
			continue
		}
		src := rng.Intn(w.twin.Len())
		v := append(vec.Vector(nil), w.twin.Corpus().Vectors[src]...)
		for j := range v {
			v[j] += 0.01 * rng.NormFloat64()
		}
		var resp insertResponse
		b0, _ := t.call(layerServer, "http POST /v1/images", op, -1, func() {
			err = c.post("/v1/images", insertRequest{Vector: v, Label: w.twin.SubconceptOf(src)}, &resp)
		})
		if err != nil {
			return err
		}
		var id int
		_, d := t.call(layerSeg, "seg.DB.Insert", op, b0, func() { id, err = db.Insert(v) })
		if err != nil {
			return err
		}
		insUS.add(us(d))
		live, liveHTTP = append(live, id), append(liveHTTP, resp.ID)
	}

	// Reads against the engine as the writes left it: sealed segments, a
	// part-filled memtable, tombstones.
	snap := db.Acquire()
	defer snap.Release()
	tree := w.twin.RFS().Tree()
	for op := writes; op < writes+100; op++ {
		q := w.twin.Corpus().Vectors[rng.Intn(w.twin.Len())]
		// Off the blocking path: qdserve has no global k-NN endpoint, so no
		// user op of this workload waits on these.
		_, d := t.call(layerSeg, "Snapshot.KNNCtx", op, offPath, func() { _, err = snap.KNNCtx(ctx, q, w.k) })
		if err != nil {
			return err
		}
		knnUS.add(us(d))
		_, d = t.call(layerRstar, "static Tree.KNN", op, offPath, func() { tree.KNN(q, w.k, &disk.Counter{}) })
		staticUS.add(us(d))
	}
	for op := writes + 100; op < writes+130; op++ {
		pool := w.pools[rng.Intn(len(w.pools))]
		req := queryRequest{K: w.k, Relevant: pickExamples(rng, pool)}
		b0, _ := t.call(layerServer, "http /v1/query", op, -1, func() { err = c.post("/v1/query", req, nil) })
		if err != nil {
			return err
		}
		_, d := t.call(layerSeg, "Snapshot.QueryByExamplesCtx", op, b0, func() {
			_, err = snap.QueryByExamplesCtx(ctx, req.Relevant, req.K, nil)
		})
		if err != nil {
			return err
		}
		finUS.add(us(d))
	}

	newKernelSweeps(37, flatten(w.twin.Corpus().Vectors), nil).report(m)
	m["seg.insert_us"], m["seg.delete_us"] = insUS.mean(), delUS.mean()
	m["seg.knn_us"], m["seg.static_knn_us"], m["seg.finalize_us"] = knnUS.mean(), staticUS.mean(), finUS.mean()
	if staticUS.mean() > 0 {
		m["seg.knn_over_static"] = knnUS.mean() / staticUS.mean()
	}
	m["seg.seals"] = s.delta("qd_seg_seals_total")
	m["seg.compactions"] = s.delta("qd_seg_compactions_total")
	m["seg.seal_ms_total"] = s.delta("qd_seg_seal_ns_total") / 1e6
	m["seg.compact_ms_total"] = s.delta("qd_seg_compact_ns_total") / 1e6
	m["seg.segments_at_end"] = s.last("qd_seg_segments")
	if rows := s.last("qd_seg_live_images") + s.last("qd_seg_tombstones"); rows > 0 {
		m["seg.tombstone_frac_at_end"] = s.last("qd_seg_tombstones") / rows
	}
	m["seg.snapshots_pinned_max"] = s.max("qd_seg_snapshots_pinned")
	m["store.native_bytes_per_row"], m["store.sq8_bytes_per_row"] = 37*8, 37
	m["rfs.build_s"] = rfsBuildSeconds(w.twin.Corpus().Vectors)
	m["persist.build_s"], m["persist.load_s"] = w.buildS, w.loadS
	m["persist.archive_mb"] = archiveRatio([]string{w.archive}, 1, 1, 1) / (1 << 20)
	servedCounters(m, s, &w.wb)
	return nil
}

// embedded_sq8's per-layer pass: a fixed op list from the seed, each op the
// root-package call, then the exact descent and the SQ8 kernel sweep under
// it; then the same list with and without an observer, and with and without
// span recording, for the two overhead figures.
func (w *embeddedSQ8) layers(e *env, t *tracer, m metrics, s *scrapeDelta) error {
	probe := newSystemProbe(w.sys, t)
	rng := subRand(e.seed, "trace", 0)
	const knnOps, sessionOps = 300, 30
	examples := make([]int, knnOps)
	for i := range examples {
		examples[i] = rng.Intn(w.sys.Len())
		probe.knn(i, examples[i], w.k)
	}
	for i := 0; i < sessionOps; i++ {
		sc := w.scripts[w.order[i%len(w.order)]]
		if err := probe.session(knnOps+i, sc.seed, sc.marks, w.shape, nil); err != nil {
			return err
		}
	}
	probe.report(m)
	m["store.native_bytes_per_row"], m["store.sq8_bytes_per_row"] = 37*8, 37
	m["rfs.build_s"] = rfsBuildSeconds(w.twin.Corpus().Vectors)

	// The library caller's k-NN on twin systems over one corpus.
	ctx := context.Background()
	knnList := func(sys *qdcbir.System) time.Duration {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			for _, ex := range examples {
				_, _ = sys.KNNContext(ctx, ex, w.k)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	sq8, f64 := knnList(w.sys), knnList(w.twin)
	m["core.knn_sq8_us"] = us(sq8) / knnOps
	m["core.knn_f64_us"] = us(f64) / knnOps
	m["core.sq8_over_f64"] = float64(sq8) / float64(f64)

	// Alternate the two systems so drift in the host's speed hits both alike.
	reg := obs.NewRegistry()
	withObs := w.sys.WithObserver(obs.New(reg))
	plain, observed := sq8, knnList(withObs)
	for rep := 0; rep < 2; rep++ {
		if d := knnList(w.sys); d < plain {
			plain = d
		}
		if d := knnList(withObs); d < observed {
			observed = d
		}
	}
	m["obs.observer_overhead_frac"] = float64(observed-plain) / float64(plain)
	snap := reg.Snapshot()
	if n := snap.Counters[obs.MetricKNNs]; n > 0 {
		m["core.rerank_fallback_frac"] = float64(snap.Counters[obs.MetricRerankFallbacks]) / float64(n)
	}

	// Span recording's own cost: the k-NN boundaries again, recorded and not.
	traced := func(off bool) time.Duration {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			tt := &tracer{t0: time.Now(), off: off}
			t0 := time.Now()
			for i, ex := range examples {
				tt.call(layerCore, "System.KNNContext", i, -1, func() { _, _ = w.sys.KNNContext(ctx, ex, w.k) })
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	on, off := traced(false), traced(true)
	m["trace.overhead_frac"] = float64(on-off) / float64(off)

	// persist: what a library user pays to save and reload this system.
	path := filepath.Join(e.outDir, "embedded.gob")
	if err := w.sys.SaveFile(path); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := qdcbir.LoadFile(path); err != nil {
		return err
	}
	m["persist.load_s"] = time.Since(t0).Seconds()
	m["persist.build_s"] = w.buildS
	m["persist.archive_mb"] = archiveRatio([]string{path}, 1, 1, 1) / (1 << 20)
	return nil
}
