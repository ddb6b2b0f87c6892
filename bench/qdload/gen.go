package main

// Seeded input generation. Everything the programs under test receive — the
// embedding file, the request bodies, the session seeds, the write stream —
// is a pure function of -seed, so two runs with one seed send identical
// bytes and two seeds send different ones (gen_test.go pins both).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
)

// corpusSeed builds every workload's corpus. The corpora do not change with
// --seed, only what is sent to the systems built over them does: request
// streams, display seeds, example picks, the write stream. A new corpus is a
// new tree with its own node shapes and expansion behaviour — a different
// system with different finalize and round costs — and the benchmark's runs
// must stay comparable across seeds.
const corpusSeed = 1

// subRand derives an independent stream from the run seed: every generator
// (corpus, each client, the writer, the trace pass) owns one, so adding a
// client or reordering goroutines never shifts another stream's draws.
func subRand(seed int64, stream string, idx int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, idx)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// clusterCorpus is the knn_routed corpus: rows drawn from isotropic Gaussian
// clusters, stored as float32 exactly as the .fvecs file carries them. The
// cluster of a row is its ground-truth label (the file itself has none).
type clusterCorpus struct {
	n, dim, clusters int
	data             []float32 // row-major n x dim
	cluster          []int32   // per row
}

func genClusterCorpus(seed int64, n, dim, clusters int, sigma float64) *clusterCorpus {
	rng := subRand(seed, "cluster-corpus", 0)
	centers := make([]float32, clusters*dim)
	for i := range centers {
		centers[i] = float32(rng.NormFloat64())
	}
	c := &clusterCorpus{n: n, dim: dim, clusters: clusters,
		data: make([]float32, n*dim), cluster: make([]int32, n)}
	for r := 0; r < n; r++ {
		k := rng.Intn(clusters)
		c.cluster[r] = int32(k)
		row, ctr := c.data[r*dim:(r+1)*dim], centers[k*dim:(k+1)*dim]
		for j := range row {
			row[j] = ctr[j] + float32(sigma*rng.NormFloat64())
		}
	}
	return c
}

func (c *clusterCorpus) row(i int) []float32 { return c.data[i*c.dim : (i+1)*c.dim] }

// writeFvecs writes the corpus in the raw little-endian .fvecs layout qdbuild
// -import reads: per row an int32 dimension followed by dim float32 values.
func (c *clusterCorpus) writeFvecs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	rec := make([]byte, 4+4*c.dim)
	binary.LittleEndian.PutUint32(rec, uint32(c.dim))
	for r := 0; r < c.n; r++ {
		for j, v := range c.row(r) {
			binary.LittleEndian.PutUint32(rec[4+4*j:], math.Float32bits(v))
		}
		if _, err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// noisyRow returns corpus row i plus Gaussian noise, rounded to float32 so
// the float32 servers and the float64 checker score the very same point.
func (c *clusterCorpus) noisyRow(rng *rand.Rand, i int, sigma float64) []float64 {
	q := make([]float64, c.dim)
	for j, v := range c.row(i) {
		q[j] = float64(v + float32(sigma*rng.NormFloat64()))
	}
	return q
}

// dist is the exact float64 Euclidean distance from q to row id, the
// quantity the servers report as "dist".
func (c *clusterCorpus) dist(q []float64, id int) float64 {
	var s float64
	for j, v := range c.row(id) {
		d := q[j] - float64(v)
		s += d * d
	}
	return math.Sqrt(s)
}

// bruteKNN is the harness's own reference scan: the exact distance from q to
// every row, k smallest ascending by (distance, id).
func (c *clusterCorpus) bruteKNN(q []float64, k int) []neighbor {
	all := make([]neighbor, c.n)
	for r := range all {
		all[r] = neighbor{ID: r, Dist: c.dist(q, r)}
	}
	sortNeighbors(all)
	return all[:k]
}

// examplesFromClusters picks n distinct example rows spread over the given
// clusters (round-robin), the one-shot /v1/query a smart client would send
// after local feedback over 2-3 scattered clusters.
func (c *clusterCorpus) examplesFromClusters(rng *rand.Rand, clusters []int, n int) []int {
	seen := map[int]bool{}
	var out []int
	for len(out) < n {
		want := int32(clusters[len(out)%len(clusters)])
		for {
			r := rng.Intn(c.n)
			if c.cluster[r] == want && !seen[r] {
				seen[r] = true
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// ---- the feedback user ----

// oracle is the simulated user: it judges only images actually displayed to
// it (by the label the reply carried), marks at most maxMarks per round, and
// never re-marks. With no fixed intent (targets == nil) it adopts one from
// the first display — "whatever caught the eye first" — which guarantees a
// non-empty panel on corpora where a scripted intent would rarely be shown.
type oracle struct {
	targets  map[string]bool
	adopt    int // when targets is nil: adopt the first `adopt` distinct labels displayed
	maxMarks int
	marked   map[int]bool
}

func newOracle(targets []string, adopt int) *oracle {
	o := &oracle{maxMarks: 8, marked: map[int]bool{}, adopt: adopt}
	if targets != nil {
		o.targets = map[string]bool{}
		for _, t := range targets {
			o.targets[t] = true
		}
	}
	return o
}

type shown struct {
	ID    int
	Label string
}

// choose returns this round's marks from everything displayed in the round.
func (o *oracle) choose(displayed []shown) []int {
	if o.targets == nil {
		o.targets = map[string]bool{}
		for _, s := range displayed {
			if len(o.targets) >= o.adopt {
				break
			}
			if s.Label != "" {
				o.targets[s.Label] = true
			}
		}
	}
	var marks []int
	for _, s := range displayed {
		if len(marks) >= o.maxMarks {
			break
		}
		if o.targets[s.Label] && !o.marked[s.ID] {
			o.marked[s.ID] = true
			marks = append(marks, s.ID)
		}
	}
	return marks
}

// quality scores one finalized retrieval against the oracle's intent:
// precision is the share of results carrying a target label, GTIR (§5.2.1)
// the share of target labels that appear at least once.
func quality(labels []string, targets map[string]bool) (precision, gtir float64) {
	if len(labels) == 0 || len(targets) == 0 {
		return 0, 0
	}
	hit, covered := 0, map[string]bool{}
	for _, l := range labels {
		if targets[l] {
			hit++
			covered[l] = true
		}
	}
	return float64(hit) / float64(len(labels)), float64(len(covered)) / float64(len(targets))
}
