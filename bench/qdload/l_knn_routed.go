package main

// knn_routed's per-layer pass: each op is the router round trip, then the
// three shard legs over HTTP as the router sends them, then the same search
// on in-process replicas opened from the same shard archives, then the
// float32 kernel sweep of each shard's rows.

import (
	"context"
	"encoding/json"
	"fmt"

	"qdcbir"
	"qdcbir/internal/router"
	"qdcbir/internal/server"
	"qdcbir/internal/shard"
	"qdcbir/internal/vec"
)

// The shard-search leg's wire shape (POST /v1/shard/search).
type shardSearchRequest struct {
	NodeID uint64    `json:"node_id"`
	Query  []float64 `json:"query"`
	K      int       `json:"k"`
}

// localSearcher is shard.Searcher over in-process replicas: every shard's
// local top-k, merged — what the router's scatter does without the network.
type localSearcher struct{ reps []*shard.Replica }

func (s localSearcher) SearchNode(ctx context.Context, nodeID uint64, q vec.Vector, weights []float64, k int) ([]shard.Neighbor, error) {
	lists := make([][]shard.Neighbor, len(s.reps))
	for i, r := range s.reps {
		ns, err := r.SearchNode(ctx, nodeID, q, weights, k)
		if err != nil {
			return nil, err
		}
		lists[i] = ns
	}
	return shard.MergeNeighbors(lists, k), nil
}

func (w *knnRouted) layers(e *env, t *tracer, m metrics, s *scrapeDelta) error {
	ctx := context.Background()
	reps := make([]*shard.Replica, w.shards)
	legs := make([]*apiClient, w.shards)
	for i, a := range w.archives {
		rep, _, err := qdcbir.OpenShardFile(a)
		if err != nil {
			return fmt.Errorf("open %s: %w", a, err)
		}
		reps[i] = rep
		legs[i] = newAPIClient(w.bases[i], nil)
		defer legs[i].close()
	}
	topo := reps[0].Topo()
	rootID := topo.RootID()
	sweeps := newKernelSweeps(w.dim, nil, w.corpus.data)
	c := newAPIClient(w.router, nil)
	defer c.close()
	rng := subRand(e.seed, "trace", 0)

	var searchUS, mergeUS, scatterUS, dec, enc meanOf
	const knnOps, queryOps = 60, 15
	for op := 0; op < knnOps; op++ {
		req := *w.nextOfKind(rng, true).KNN
		var resp knnResponse
		var err error
		b0, _ := t.call(layerRouter, "http /v1/knn", op, -1, func() { err = c.post("/v1/knn", req, &resp) })
		if err != nil {
			return err
		}
		// The legs run one after another here; in the fleet they overlap and
		// the slowest sets the reply time, so only that one is on the path.
		legSpan := make([]int, w.shards)
		slow, slowDur := 0, 0.0
		for i := range legs {
			id, d := t.call(layerServer, fmt.Sprintf("http /v1/shard/search s%d", i), op, offPath, func() {
				err = legs[i].post("/v1/shard/search", shardSearchRequest{NodeID: rootID, Query: req.Query, K: req.K}, nil)
			})
			if err != nil {
				return err
			}
			legSpan[i] = id
			if us(d) > slowDur {
				slow, slowDur = i, us(d)
			}
		}
		t.spans[legSpan[slow]].parent = b0
		lists := make([][]shard.Neighbor, w.shards)
		for i, r := range reps {
			id, d := t.call(layerShard, "Replica.SearchNode", op, legSpan[i], func() {
				lists[i], err = r.SearchNode(ctx, rootID, req.Query, nil, req.K)
			})
			if err != nil {
				return err
			}
			searchUS.add(us(d))
			t.call(layerVec, "vec sweep f32", op, id, func() { sweeps.sweep("f32", 0, r.Meta().LocalImages) })
		}
		_, d := t.call(layerShard, "MergeNeighbors", op, b0, func() { shard.MergeNeighbors(lists, req.K) })
		mergeUS.add(us(d))

		// The router's own codec on this op's real bodies.
		raw, _ := json.Marshal(req)
		_, d = t.call(layerRouter, "json decode KNNRequest", op, b0, func() {
			var r router.KNNRequest
			_ = json.Unmarshal(raw, &r)
		})
		dec.add(us(d))
		out := router.KNNResponse{Neighbors: make([]server.NeighborJSON, len(resp.Neighbors))}
		for i, n := range resp.Neighbors {
			out.Neighbors[i] = server.NeighborJSON{ID: n.ID, Dist: n.Dist}
		}
		_, d = t.call(layerRouter, "json encode KNNResponse", op, b0, func() { _, _ = json.Marshal(out) })
		enc.add(us(d))
	}
	for op := knnOps; op < knnOps+queryOps; op++ {
		req := *w.nextOfKind(rng, false).Query
		var err error
		b0, _ := t.call(layerRouter, "http /v1/query", op, -1, func() { err = c.post("/v1/query", req, nil) })
		if err != nil {
			return err
		}
		rel := make([]shard.RelPoint, 0, len(req.Relevant))
		for _, id := range req.Relevant {
			for _, r := range reps {
				if p, ok := r.PointInfo(id); ok {
					rel = append(rel, shard.RelPoint{ID: id, NodeID: p.Leaf, Vec: p.Vec})
				}
			}
		}
		_, d := t.call(layerShard, "FinalizeScatter", op, b0, func() {
			_, err = shard.FinalizeScatter(ctx, topo, localSearcher{reps}, rel, req.K, nil, reps[0].Meta().Boundary, 1)
		})
		if err != nil {
			return err
		}
		scatterUS.add(us(d))
	}

	sweeps.report(m)
	m["shard.search_us"], m["shard.merge_us"], m["shard.finalize_scatter_us"] = searchUS.mean(), mergeUS.mean(), scatterUS.mean()
	m["server.decode_us"], m["server.encode_us"] = dec.mean(), enc.mean()
	m["store.native_bytes_per_row"] = float64(w.dim * 4)
	// rfs.Build at 512-d is most of qdbuild's wall time; a fixed 2,000-row
	// prefix keeps the probe inside the run's budget.
	n := 2000
	if n > w.rows {
		n = w.rows
	}
	prefix := make([]vec.Vector, n)
	for i := range prefix {
		prefix[i] = sweeps.f64[i*w.dim : (i+1)*w.dim]
	}
	m["rfs.build_s"] = rfsBuildSeconds(prefix)

	histMeanMS := func(name string) float64 {
		if n := s.delta(name + "_count"); n > 0 {
			return 1e3 * s.delta(name+"_sum") / n
		}
		return 0
	}
	m["router.fanout_ms_mean"] = histMeanMS("qd_router_fanout_seconds")
	m["router.merge_ms_mean"] = histMeanMS("qd_router_merge_seconds")
	m["router.straggler_wait_ms_mean"] = histMeanMS("qd_router_straggler_wait_seconds")
	if s.ops > 0 {
		m["router.scatters_per_op"] = s.delta("qd_router_scatters_total") / s.ops
	}
	m["router.singleflight_hits"] = s.delta("qd_router_singleflight_total")
	m["router.failovers"] = s.delta("qd_router_failovers_total")
	m["router.sheds"] = s.delta("qd_router_sheds_total")
	m["persist.build_s"], m["persist.load_s"] = w.buildS, w.loadS
	m["persist.archive_mb"] = archiveRatio(w.archives, 1, 1, 1) / (1 << 20)
	servedCounters(m, s, &w.wb)
	return nil
}
