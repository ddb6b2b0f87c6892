package main

// knn_routed: embedding-scale scatter-gather. A seeded float32 corpus is
// imported, sliced into three shard archives, served by three qdserve
// replicas and fronted by qdrouter. Mostly global k-NN; some one-shot
// decomposed queries and a few routed feedback sessions.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"time"
)

type knnRouted struct {
	rows, dim, clusters, shards int
	sigma, querySigma           float64
	k                           int
	shape                       sessionShape
	knnShare, queryShare        float64 // the rest are routed sessions

	corpus *clusterCorpus
	fvecs  string

	served
	servers  []*proc // shard replicas then the router
	bases    []string
	router   string
	archives []string
	buildS   float64 // qdbuild wall time of the last set-up
	loadS    float64 // first qdserve spawn to the router's /healthz ok

	wb wireBytes

	quality qualityMean // of the fixed probe queries, played once after set-up

	mu      sync.Mutex
	sampled []knnSample
	wrong   int // malformed finalize replies seen by clients
	seen    int
}

// knnSample is one k-NN reply kept for the after-window brute-force check.
type knnSample struct {
	query []float64
	reply []neighbor
}

func newKNNRouted() *knnRouted {
	return &knnRouted{
		rows: 20000, dim: 512, clusters: 200, shards: 3,
		sigma: 0.3, querySigma: 0.05, k: 50,
		shape:    sessionShape{rounds: 2, fetches: 4, k: 50},
		knnShare: 0.80, queryShare: 0.12,
	}
}

func (w *knnRouted) name() string     { return "knn_routed" }
func (w *knnRouted) setupReps() int   { return 2 }
func (w *knnRouted) headline() string { return kindKNN }

func clusterName(c int) string { return fmt.Sprintf("c%03d", c) }

func (w *knnRouted) clusterLabel(id int) string { return clusterName(int(w.corpus.cluster[id])) }

func (w *knnRouted) prepare(e *env) error {
	w.corpus = genClusterCorpus(corpusSeed, w.rows, w.dim, w.clusters, w.sigma)
	w.fvecs = filepath.Join(e.outDir, "corpus.fvecs")
	return w.corpus.writeFvecs(w.fvecs)
}

func (w *knnRouted) setup(e *env) error {
	var err error
	if w.fl, err = newFleet(e.binDir, e.outDir); err != nil {
		return err
	}
	db := filepath.Join(e.outDir, "db.gob")
	t0 := time.Now()
	if err := w.fl.run("qdbuild", "qdbuild", "-out", db, "-import", w.fvecs, "-f32",
		"-shards", fmt.Sprint(w.shards), "-seed", fmt.Sprint(corpusSeed)); err != nil {
		return err
	}
	w.buildS = time.Since(t0).Seconds()
	t0 = time.Now()
	w.servers, w.bases, w.archives = nil, nil, nil
	routerArgs := []string{"-wait", "60s", "-scrape-interval", "-1s"}
	for i := 0; i < w.shards; i++ {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		arch := filepath.Join(e.outDir, fmt.Sprintf("db.shard%d.gob", i))
		p, err := w.fl.start(fmt.Sprintf("shard%d", i), "qdserve", "-db", arch, "-addr", addr, "-digest-interval", "0")
		if err != nil {
			return err
		}
		w.servers = append(w.servers, p)
		w.bases = append(w.bases, "http://"+addr)
		w.archives = append(w.archives, arch)
		routerArgs = append(routerArgs, "-replica", fmt.Sprintf("%d=http://%s", i, addr))
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	rp, err := w.fl.start("qdrouter", "qdrouter", append([]string{"-addr", addr}, routerArgs...)...)
	if err != nil {
		return err
	}
	w.router = "http://" + addr
	for i, p := range w.servers {
		if err := w.fl.waitHealthy(p, w.bases[i], 60*time.Second); err != nil {
			return err
		}
	}
	if err := w.fl.waitHealthy(rp, w.router, 60*time.Second); err != nil {
		return err
	}
	w.loadS = time.Since(t0).Seconds()
	w.servers = append(w.servers, rp)
	w.bases = append(w.bases, w.router)

	// First correct reply: row 0 is its own nearest neighbour at distance 0.
	c := newAPIClient(w.router, nil)
	defer c.close()
	q := make([]float64, w.dim)
	for j, v := range w.corpus.row(0) {
		q[j] = float64(v)
	}
	var resp knnResponse
	if err := c.post("/v1/knn", knnRequest{Query: q, K: 1}, &resp); err != nil {
		return fmt.Errorf("first reply: %w", err)
	}
	if len(resp.Neighbors) != 1 || resp.Neighbors[0].ID != 0 || resp.Neighbors[0].Dist != 0 {
		return fmt.Errorf("first reply: row 0 is not its own nearest neighbour: %+v", resp.Neighbors)
	}
	return nil
}

// ready plays the quality probe: a fixed list of one-shot queries (drawn
// from corpusSeed, not --seed) scored against their clusters, so the quality
// figures are a property of the code under test alone.
func (w *knnRouted) ready(e *env) error {
	c := newAPIClient(w.router, nil)
	defer c.close()
	rng := subRand(corpusSeed, "quality-probe", 0)
	w.quality = qualityMean{}
	for i := 0; i < qualityProbes; i++ {
		op := w.nextOfKind(rng, false)
		var resp queryResponse
		if err := c.post("/v1/query", op.Query, &resp); err != nil {
			return fmt.Errorf("quality probe: %w", err)
		}
		ids, _ := resp.flat()
		labels := make([]string, len(ids))
		for j, id := range ids {
			labels[j] = w.clusterLabel(id)
		}
		w.quality.add(labels, op.Targets)
	}
	return nil
}

// qualityProbes is how many fixed one-shot queries the workloads without
// scripted sessions score for quality_gtir and quality_precision.
const qualityProbes = 40

func (w *knnRouted) serverPIDs() []int {
	pids := make([]int, len(w.servers))
	for i, p := range w.servers {
		pids[i] = p.pid()
	}
	return pids
}
func (w *knnRouted) scrapeBases() []string { return w.bases }

// routedOp is one entry of a client's request stream: exactly one of the
// three kinds, fully determined by the client's seeded stream.
type routedOp struct {
	KNN         *knnRequest     `json:"knn,omitempty"`
	Query       *queryRequest   `json:"query,omitempty"`
	Targets     map[string]bool `json:"targets,omitempty"` // the query's clusters, for quality
	SessionSeed int64           `json:"session_seed,omitempty"`
}

// nextOp draws the next op of a client stream: mostly global k-NN from a
// noisy corpus row, some one-shot decomposed queries (seven examples spread
// over two or three clusters), a few routed feedback sessions.
func (w *knnRouted) nextOp(rng *rand.Rand) routedOp {
	switch u := rng.Float64(); {
	case u < w.knnShare:
		return routedOp{KNN: &knnRequest{Query: w.corpus.noisyRow(rng, rng.Intn(w.rows), w.querySigma), K: w.k}}
	case u < w.knnShare+w.queryShare:
		clusters := rng.Perm(w.clusters)[:2+rng.Intn(2)]
		targets := map[string]bool{}
		for _, c := range clusters {
			targets[clusterName(c)] = true
		}
		return routedOp{Query: &queryRequest{Relevant: w.corpus.examplesFromClusters(rng, clusters, 7), K: w.k}, Targets: targets}
	default:
		return routedOp{SessionSeed: rng.Int63n(1<<40) + 1}
	}
}

// nextOfKind draws ops until one of the wanted kind comes up (the traced
// pass wants a fixed count of each).
func (w *knnRouted) nextOfKind(rng *rand.Rand, knn bool) routedOp {
	for {
		if op := w.nextOp(rng); (knn && op.KNN != nil) || (!knn && op.Query != nil) {
			return op
		}
	}
}

func (w *knnRouted) clientFuncs(e *env) []clientFunc {
	fs := make([]clientFunc, e.clients)
	for i := range fs {
		i := i
		fs[i] = func(ctx context.Context, rec *recorder) {
			rng := subRand(e.seed, "knn_routed-client", i)
			c := newAPIClient(w.router, &w.wb)
			defer c.close()
			var sampled []knnSample
			wrong, seen, knns := 0, 0, 0
			label := func(id int, _ string) string { return w.clusterLabel(id) }
			for n := 0; ctx.Err() == nil; n++ {
				if err := checkAlive(w.servers...); err != nil {
					rec.fail(err)
					break
				}
				floorProbe(c, rec, n)
				switch op := w.nextOp(rng); {
				case op.KNN != nil:
					var resp knnResponse
					rec.attempted++
					t0 := time.Now()
					if err := c.post("/v1/knn", op.KNN, &resp); err != nil {
						rec.fail(err)
						continue
					}
					rec.add(kindKNN, t0)
					if knns++; knns%50 == 1 { // the first, then every fiftieth
						sampled = append(sampled, knnSample{op.KNN.Query, resp.Neighbors})
					}
				case op.Query != nil:
					var resp queryResponse
					rec.attempted++
					t0 := time.Now()
					if err := c.post("/v1/query", op.Query, &resp); err != nil {
						rec.fail(err)
						continue
					}
					rec.add(kindFinalize, t0)
					ids, _ := resp.flat()
					seen++
					if !wellFormed(ids, w.k, w.rows) {
						wrong++
					}
				default:
					p, err := playSession(openHTTPSession(c, op.SessionSeed, label), w.shape, newOracle(nil, 2), rec)
					if err != nil {
						rec.fail(err)
						continue
					}
					seen++
					if !wellFormed(p.ids, w.shape.k, w.rows) {
						wrong++
					}
				}
			}
			w.mu.Lock()
			w.sampled = append(w.sampled, sampled...)
			w.wrong += wrong
			w.seen += seen
			w.mu.Unlock()
		}
	}
	return fs
}

// wellFormed is the cheap check every finalize reply gets: exactly k
// distinct in-range images.
func wellFormed(ids []int, k, rows int) bool {
	if len(ids) != k {
		return false
	}
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 || id >= rows || seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

// verify checks the sampled k-NN replies against the harness's own scan of
// the vectors it generated: same IDs (up to ties at the float32 resolution
// the servers score at), ascending order, and distances that agree.
func (w *knnRouted) verify(e *env) (int, int, error) {
	checked, wrong := w.seen, w.wrong
	for i, s := range w.sampled {
		want := w.corpus.bruteKNN(s.query, w.k)
		if e.corrupt && i == 0 {
			want[0].ID = -1
		}
		checked++
		if !knnAgrees(s.reply, want, func(id int) float64 { return w.corpus.dist(s.query, id) }) {
			wrong++
		}
	}
	return checked, wrong, nil
}

// knnAgrees compares a reply with the reference top-k. The servers score in
// float32, the reference in float64, so an image within tol of the k-th
// reference distance may legitimately replace another such image.
func knnAgrees(got, want []neighbor, exact func(id int) float64) bool {
	const tol = 1e-4 // float32 accumulation over 512 dimensions
	if len(got) != len(want) {
		return false
	}
	kth := want[len(want)-1].Dist
	inWant := make(map[int]bool, len(want))
	for _, n := range want {
		inWant[n.ID] = true
	}
	seen := make(map[int]bool, len(got))
	for i, n := range got {
		if n.ID < 0 || seen[n.ID] {
			return false
		}
		seen[n.ID] = true
		d := exact(n.ID)
		if math.Abs(n.Dist-d) > tol*math.Max(d, 1) {
			return false
		}
		if !inWant[n.ID] && d > kth*(1+tol) {
			return false
		}
		if i > 0 && n.Dist < got[i-1].Dist {
			return false
		}
	}
	for _, n := range want {
		if !seen[n.ID] && n.Dist < kth*(1-tol) {
			return false
		}
	}
	return true
}

func (w *knnRouted) facts() (float64, float64, float64) {
	g, p := w.quality.means()
	return archiveRatio(w.archives, w.rows, w.dim, 4), g, p
}
