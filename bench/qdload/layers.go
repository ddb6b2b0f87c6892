package main

// The in-process half of the per-layer pass, shared by the workloads. It
// reaches below the root package only through the short allow-list
// bench/README.md names (vec kernels, rstar.Tree.KNN/KNNFrom, rfs.Build and
// RandomReps, core.Session and Engine.QueryByExamplesCtx, seg.DB and
// Snapshot, shard.Replica, MergeNeighbors and FinalizeScatter) plus
// encoding/json over the servers' own wire types. Everything else is
// measured from outside: HTTP round trips and /metrics deltas.

import (
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"time"

	"qdcbir"
	"qdcbir/internal/core"
	"qdcbir/internal/disk"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/server"
	"qdcbir/internal/vec"
)

// Layer names are the repository's module names.
const (
	layerServer = "server"
	layerRouter = "router"
	layerShard  = "shard"
	layerSeg    = "seg"
	layerCore   = "core"
	layerRFS    = "rfs"
	layerRstar  = "rstar"
	layerVec    = "vec"
)

var allLayers = []string{layerServer, layerRouter, layerShard, layerSeg, layerCore, layerRFS, layerRstar, layerVec}

// offPath marks a span that is recorded for the trace but is not on the
// blocking path of its op (the faster legs of a parallel scatter).
const offPath = -2

const sweepBlockRows = 100 // the engine sweeps leaf by leaf; a leaf holds up to 100 rows

// kernelSweeps holds a workload's own rows in every precision a kernel
// reads, so each vec.*_ns_per_row is a sweep of that workload's data.
type kernelSweeps struct {
	dim  int
	rows int
	f64  []float64
	f32  []float32
	u8   []uint8
	outD []float64
	outF []float32
	outI []int32
	qD   []float64
	qF   []float32
	qU   []uint8
}

func newKernelSweeps(dim int, f64 []float64, f32 []float32) *kernelSweeps {
	k := &kernelSweeps{dim: dim}
	if f64 != nil {
		k.rows = len(f64) / dim
		k.f64 = f64
		k.f32 = make([]float32, len(f64))
		for i, v := range f64 {
			k.f32[i] = float32(v)
		}
	} else {
		k.rows = len(f32) / dim
		k.f32 = f32
		k.f64 = make([]float64, len(f32))
		for i, v := range f32 {
			k.f64[i] = float64(v)
		}
	}
	// Kernel time does not depend on the code values; any 8-bit image of the
	// rows will do.
	k.u8 = make([]uint8, len(k.f32))
	for i, v := range k.f32 {
		k.u8[i] = uint8(int(v*64) & 0xff)
	}
	k.outD, k.outF, k.outI = make([]float64, sweepBlockRows), make([]float32, sweepBlockRows), make([]int32, sweepBlockRows)
	k.qD, k.qF, k.qU = k.f64[:dim], k.f32[:dim], k.u8[:dim]
	return k
}

// sweep runs one precision's kernel over `rows` rows starting at row `from`
// (wrapping), leaf-sized block by block.
func (k *kernelSweeps) sweep(prec string, from, rows int) {
	for done := 0; done < rows; {
		lo := (from + done) % k.rows
		n := sweepBlockRows
		if n > rows-done {
			n = rows - done
		}
		if lo+n > k.rows {
			n = k.rows - lo
		}
		switch prec {
		case "f64":
			vec.SquaredDistsTo(k.qD, k.f64[lo*k.dim:(lo+n)*k.dim], k.outD[:n])
		case "f32":
			vec.SquaredDistsTo32(k.qF, k.f32[lo*k.dim:(lo+n)*k.dim], k.outF[:n])
		case "sq8":
			vec.Uint8SquaredDistsTo(k.qU, k.u8[lo*k.dim:(lo+n)*k.dim], k.outI[:n])
		}
		done += n
	}
}

// nsPerRow is the full-sweep rate of one precision: the best of several
// sweeps over all of the workload's rows.
func (k *kernelSweeps) nsPerRow(prec string) float64 {
	best := time.Duration(1 << 62)
	deadline := time.Now().Add(150 * time.Millisecond)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		t0 := time.Now()
		k.sweep(prec, 0, k.rows)
		if d := time.Since(t0); d < best {
			best = d
		}
		if rep >= 50 {
			break
		}
	}
	return float64(best) / float64(k.rows)
}

func (k *kernelSweeps) report(m metrics) {
	m["vec.f64_ns_per_row"] = k.nsPerRow("f64")
	m["vec.f32_ns_per_row"] = k.nsPerRow("f32")
	m["vec.sq8_ns_per_row"] = k.nsPerRow("sq8")
}

func flatten(vs []vec.Vector) []float64 {
	if len(vs) == 0 {
		return nil
	}
	out := make([]float64, 0, len(vs)*len(vs[0]))
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

// rowCounter is a disk.Accounter that also counts the rows held by the leaf
// pages a descent touched: those are the rows its kernel calls scored.
type rowCounter struct {
	s           *rfs.Structure
	reads, rows uint64
}

func (c *rowCounter) Access(p disk.PageID) bool {
	c.reads++
	if n := c.s.NodeByID(p); n != nil && n.IsLeaf() {
		c.rows += uint64(n.Len())
	}
	return false
}
func (c *rowCounter) Reads() uint64    { return c.reads }
func (c *rowCounter) Accesses() uint64 { return c.reads }
func (c *rowCounter) Reset()           { c.reads, c.rows = 0, 0 }

// meanOf accumulates a mean.
type meanOf struct {
	sum float64
	n   int
}

func (t *meanOf) add(v float64) { t.sum += v; t.n++ }
func (t *meanOf) mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// systemProbe measures the static engine's layers on one System.
type systemProbe struct {
	sys    *qdcbir.System
	str    *rfs.Structure
	tree   *rstar.Tree
	sweeps *kernelSweeps
	t      *tracer

	roundUS, finalizeUS, repsUS          meanOf
	localKNNUS, localReads               meanOf
	knnUS, knnReads, libKNNUS            meanOf
	subqueries, finalReads, fbReads, exp meanOf
	allocs, kb, finalReadsInRounds       meanOf
}

func newSystemProbe(sys *qdcbir.System, t *tracer) *systemProbe {
	p := &systemProbe{sys: sys, str: sys.RFS(), tree: sys.RFS().Tree(), t: t}
	p.sweeps = newKernelSweeps(p.tree.Dim(), flatten(sys.Corpus().Vectors), nil)
	return p
}

// descent runs one exact best-first search below node as a child span of
// parent, and under it the kernel sweep of as many rows as the leaves it
// read hold. Tree.KNN and KNNFrom score in float64 whatever precision the
// system's own scans use (they are the only descents on the allow-list), so
// the sweep under them is the float64 kernel: a child span has to be work
// its parent span really did.
func (p *systemProbe) descent(op, parent int, node *rstar.Node, q vec.Vector, k int, from int) (time.Duration, uint64) {
	lc := &rowCounter{s: p.str}
	id, d := p.t.call(layerRstar, "rstar knn", op, parent, func() {
		if node == p.tree.Root() {
			p.tree.KNN(q, k, lc)
		} else {
			p.tree.KNNFrom(node, q, k, lc)
		}
	})
	p.t.call(layerVec, "vec sweep f64", op, id, func() { p.sweeps.sweep("f64", from, int(lc.rows)) })
	return d, lc.reads
}

// knn measures one global k-NN the way the library user calls it, then the
// exact descent and the sweep under it.
func (p *systemProbe) knn(op, example, k int) {
	id, d := p.t.call(layerCore, "System.KNNContext", op, -1, func() {
		_, _ = p.sys.KNNContext(context.Background(), example, k)
	})
	p.libKNNUS.add(us(d))
	d, reads := p.descent(op, id, p.tree.Root(), p.sys.Corpus().Vectors[example], k, example)
	p.knnUS.add(us(d))
	p.knnReads.add(float64(reads))
}

// session replays one scripted session on the engine: each round and the
// finalize are boundaries; RandomReps and the localized descents nest under
// them. parents, when given, are the HTTP spans of the same user ops.
func (p *systemProbe) session(op int, seed int64, marks [][]int, shape sessionShape, parents []int) error {
	parent := func(i int) int {
		if parents == nil {
			return -1
		}
		return parents[i]
	}
	sess := p.sys.Engine().NewSession(rand.New(rand.NewSource(seed)))
	repRng := rand.New(rand.NewSource(seed))
	for r, roundMarks := range marks {
		var err error
		ids := make([]rstar.ItemID, len(roundMarks))
		for i, m := range roundMarks {
			ids[i] = rstar.ItemID(m)
		}
		id, d := p.t.call(layerCore, "core round", op, parent(r), func() {
			for f := 0; f < shape.fetches; f++ {
				sess.Candidates()
			}
			err = sess.Feedback(ids)
		})
		if err != nil {
			return err
		}
		p.roundUS.add(us(d))
		for f := 0; f < shape.fetches; f++ {
			_, d := p.t.call(layerRFS, "rfs RandomReps", op, id, func() {
				p.str.RandomReps(p.tree.Root(), 21, repRng, &disk.Counter{})
			})
			p.repsUS.add(us(d))
		}
	}
	// The paper's cost claim (§3.2): feedback touches representatives only.
	// Whatever the final k-NN accounter has been charged by now is a
	// fidelity regression.
	p.finalReadsInRounds.add(float64(sess.Stats().FinalReads))
	var res *core.Result
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id, d := p.t.call(layerCore, "core finalize", op, parent(len(marks)), func() {
		res, err = sess.FinalizeCtx(context.Background(), shape.k)
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	p.finalizeUS.add(us(d))
	p.allocs.add(float64(after.Mallocs - before.Mallocs))
	p.kb.add(float64(after.TotalAlloc-before.TotalAlloc) / 1024)
	st := sess.Stats()
	p.subqueries.add(float64(len(res.Groups)))
	p.finalReads.add(float64(st.FinalReads))
	p.exp.add(float64(st.Expansions))
	if st.Rounds > 0 {
		p.fbReads.add(float64(st.FeedbackReads) / float64(st.Rounds))
	}
	for _, g := range res.Groups {
		q := make(vec.Vector, p.tree.Dim())
		for _, qid := range g.QueryIDs {
			for j, x := range p.str.Point(qid) {
				q[j] += x / float64(len(g.QueryIDs))
			}
		}
		d, reads := p.descent(op, id, g.SearchNode, q, len(g.Images), int(g.QueryIDs[0]))
		p.localKNNUS.add(us(d))
		p.localReads.add(float64(reads))
	}
	return nil
}

func (p *systemProbe) report(m metrics) {
	p.sweeps.report(m)
	m["rstar.knn_us"] = p.knnUS.mean()
	m["rstar.node_reads_per_knn"] = p.knnReads.mean()
	m["rstar.local_knn_us"] = p.localKNNUS.mean()
	m["rstar.node_reads_per_local_knn"] = p.localReads.mean()
	m["rfs.reps_us"] = p.repsUS.mean()
	m["core.round_us"] = p.roundUS.mean()
	m["core.finalize_us"] = p.finalizeUS.mean()
	m["core.finalize_allocs_per_op"] = p.allocs.mean()
	m["core.finalize_kb_per_op"] = p.kb.mean()
	m["core.subqueries_per_finalize"] = p.subqueries.mean()
	m["core.final_reads_per_finalize"] = p.finalReads.mean()
	m["core.feedback_reads_per_round"] = p.fbReads.mean()
	m["core.expansions_per_finalize"] = p.exp.mean()
	m["core.knn_reads_in_rounds"] = p.finalReadsInRounds.mean()
}

// rfsBuildSeconds times rfs.Build over the given rows with the paper's
// settings (capacity 100, 5 % representatives).
func rfsBuildSeconds(points []vec.Vector) float64 {
	t0 := time.Now()
	rfs.Build(points, rfs.BuildConfig{RepFraction: 0.05, Tree: rstar.Config{MaxFill: 100}, TargetFill: 93, Seed: corpusSeed + 2})
	return time.Since(t0).Seconds()
}

// codecSpans times encoding/json over the server's own wire types on one
// op's real bodies, as children of the op's HTTP span.
func codecSpans(t *tracer, op, parent int, relevant []int, k int, ids []int, labels []string, dec, enc *meanOf) {
	reqBody, _ := json.Marshal(server.QueryRequest{Relevant: relevant, K: k})
	resp := server.QueryResponse{Groups: []server.GroupJSON{{QueryImages: relevant}}}
	for i, id := range ids {
		resp.Groups[0].Images = append(resp.Groups[0].Images, server.ScoredJSON{ID: id, Score: float64(i) + 0.123456789, Label: labels[i]})
	}
	_, d := t.call(layerServer, "json decode QueryRequest", op, parent, func() {
		var req server.QueryRequest
		_ = json.Unmarshal(reqBody, &req)
	})
	dec.add(us(d))
	_, d = t.call(layerServer, "json encode QueryResponse", op, parent, func() { _, _ = json.Marshal(resp) })
	enc.add(us(d))
}

// finishLayers turns the recorded spans into each layer's self time as a
// share of the traced op time, and their sum (1 when every chain of
// boundaries fits inside its op, more by the share it overshoots). It fills
// in every per-layer metric the pass did not produce with zero: "this layer
// did no work on this workload" is itself a reported result.
func finishLayers(t *tracer, m metrics, defs []metricDef) {
	byLayer, total := t.selfTimes()
	var sum float64
	for _, l := range allLayers {
		share := 0.0
		if total > 0 {
			share = float64(byLayer[l]) / float64(total)
		}
		m["self."+l+"_frac"] = share
		sum += share
	}
	m["trace.self_sum_frac"] = sum
	m["trace.spans"] = float64(len(t.spans))
	m["trace.op_time_ms"] = float64(total) / 1e6
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
}
