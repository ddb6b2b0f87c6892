package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"qdcbir/internal/rstar"
	"qdcbir/internal/vec"
)

// oracleCorpus is a hand-assembled shard: rows by local row, which is also
// the global ID, each on one of `leaves` leaves that hang perInner at a time
// under inner nodes below the root. Values are float32-representable, so
// every storage/scan combination holds the same rows.
type oracleCorpus struct {
	dim      int
	rows     []float64
	rows32   []float32 // rows narrowed, for the float32 reference kernel
	leafOf   []int
	leaves   int
	perInner int
}

func (c *oracleCorpus) add(row []float64, leaf int) {
	for _, v := range row {
		c.rows = append(c.rows, float64(float32(v)))
	}
	c.leafOf = append(c.leafOf, leaf)
}

// replica assembles the corpus with its rows stored, and so scanned, at one
// precision. The rows are float32 values, so storing them as float64 widens
// them exactly.
func (c *oracleCorpus) replica(t testing.TB, storage string) *Replica {
	t.Helper()
	n := len(c.leafOf)
	zero := make([]float64, c.dim)
	topo := &Topology{Nodes: []NodeInfo{{ID: 1, Parent: -1, Size: n, Center: zero}}}
	leafNode := make([]uint64, c.leaves)
	inner := 0
	for l := range leafNode {
		if l%c.perInner == 0 {
			inner = len(topo.Nodes)
			topo.Nodes = append(topo.Nodes, NodeInfo{ID: uint64(inner + 1), Parent: 0, Center: zero})
		}
		leafNode[l] = uint64(len(topo.Nodes) + 1)
		topo.Nodes = append(topo.Nodes, NodeInfo{ID: leafNode[l], Parent: inner, Leaf: true, Center: zero})
	}
	a := &Archive{
		Meta: Meta{ShardCount: 1, Images: n, LocalImages: n, Dim: c.dim,
			Storage: storage, ArchiveVersion: ArchiveVersion},
		Topo:    topo,
		Globals: make([]int, n),
		LeafID:  make([]uint64, n),
		Labels:  make([]string, n),
	}
	for li := range a.Globals {
		a.Globals[li], a.LeafID[li], a.Labels[li] = li, leafNode[c.leafOf[li]], fmt.Sprintf("r%d", li)
	}
	if err := topo.Index(); err != nil {
		t.Fatal(err)
	}
	order, _, err := SlabLayout(topo, a.LeafID)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range order {
		row := c.rows[li*c.dim : (li+1)*c.dim]
		if storage == "f32" {
			a.Rows.F32 = append(a.Rows.F32, vec.Narrow32(row, nil)...)
		} else {
			a.Rows.F64 = append(a.Rows.F64, row...)
		}
	}
	rep, err := NewReplica(a)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	return rep
}

// linearScan is the oracle: every row under node scored by the reference
// kernel of the replica's storage precision — the float32 one on the
// narrowed query — then sorted by (squared distance, global ID). A NaN
// distance is never an answer, so a NaN query's answer is empty.
func (c *oracleCorpus) linearScan(rep *Replica, node uint64, q vec.Vector, k int) []Neighbor {
	if c.rows32 == nil {
		c.rows32 = vec.Narrow32(c.rows, nil)
	}
	idx, _ := rep.topo.IdxOf(node)
	q32 := vec.Narrow32(q, nil)
	type scored struct {
		d  float64
		id int
	}
	var all []scored
	for row := rep.ranges[idx][0]; row < rep.ranges[idx][1]; row++ {
		li := rep.rows.IDs[row]
		d := vec.SqL2(q, c.rows[li*c.dim:(li+1)*c.dim])
		if rep.rows.F32 != nil {
			d = float64(vec.SqL232(q32, c.rows32[li*c.dim:(li+1)*c.dim]))
		}
		if !math.IsNaN(d) {
			all = append(all, scored{d, li})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].id < all[j].id
	})
	out := make([]Neighbor, min(k, len(all)))
	for i := range out {
		out[i] = Neighbor{ID: all[i].id, Dist: math.Sqrt(all[i].d), Label: fmt.Sprintf("r%d", all[i].id)}
	}
	return out
}

func filled(v float64, n int) vec.Vector {
	out := make(vec.Vector, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func sameNeighbors(a, b []Neighbor) bool {
	return slices.EqualFunc(a, b, func(x, y Neighbor) bool {
		return x.ID == y.ID && x.Label == y.Label && math.Float64bits(x.Dist) == math.Float64bits(y.Dist)
	})
}

// clusteredCorpus draws n rows of dim from `clusters` Gaussian clusters
// (σ = 0.3 around N(0, 1) centres), dealt to 8 leaves round-robin so slab
// order interleaves global IDs; rows 100-111 copy row 5, so twelve rows tie
// at every distance from any query.
func clusteredCorpus(rng *rand.Rand, n, dim, clusters int) *oracleCorpus {
	c := &oracleCorpus{dim: dim, leaves: 8, perInner: 4}
	centers := make([]float64, clusters*dim)
	for i := range centers {
		centers[i] = rng.NormFloat64()
	}
	row := make([]float64, dim)
	for li := 0; li < n; li++ {
		cl := rng.Intn(clusters)
		for d := range row {
			row[d] = centers[cl*dim+d] + 0.3*rng.NormFloat64()
		}
		if li >= 100 && li < 112 {
			copy(row, c.rows[5*dim:6*dim])
		}
		c.add(row, li%c.leaves)
	}
	return c
}

// TestSweepMatchesLinearScan pins every sweep — filtered or plain — to a
// brute-force linear scan, bit for bit: f32 and f64 storage, each scanned at
// its own precision, at the root, an inner node and a leaf, for k from 1 to past the
// range. The corpora are a clustered one
// with twelve duplicate rows straddling k = 10, one with a non-finite row and
// a constant one; the queries include a duplicate itself, a NaN query and
// one whose float32 narrowing overflows.
func TestSweepMatchesLinearScan(t *testing.T) {
	const n, dim = 400, 37
	rng := rand.New(rand.NewSource(5))
	clustered := clusteredCorpus(rng, n, dim, 8)
	nonFinite := clusteredCorpus(rng, n, dim, 8)
	nonFinite.rows[7*dim+3] = math.Inf(1)
	constant := &oracleCorpus{dim: dim, leaves: 8, perInner: 4}
	for li := 0; li < n; li++ {
		constant.add(filled(0.75, dim), li%8)
	}
	near := func(c *oracleCorpus, li int, sigma float64) vec.Vector {
		q := slices.Clone(c.rows[li*dim : (li+1)*dim])
		for d := range q {
			q[d] += sigma * rng.NormFloat64()
		}
		return q
	}
	// The non-finite row holds +Inf; a query overflowing the other way keeps
	// every distance ordered (+Inf, not Inf − Inf).
	huge := filled(-1e39, dim)
	nan := filled(0, dim)
	nan[4] = math.NaN()

	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		c       *oracleCorpus
		filters bool // the replica trains codes the bracket can use
	}{
		{"clustered", clustered, true},
		{"non-finite-row", nonFinite, false},
		{"constant", constant, false},
	} {
		far := make(vec.Vector, dim)
		for d := range far {
			far[d] = 10 * rng.NormFloat64()
		}
		queries := []vec.Vector{near(tc.c, 5, 0.01), tc.c.rows[5*dim : 6*dim], near(tc.c, 200, 0.05), far, nan, huge}
		for _, mode := range []string{"f64", "f32"} {
			rep := tc.c.replica(t, mode)
			if (rep.rows.Codes != nil) != tc.filters {
				t.Fatalf("%s %v: codes trained = %v, want %v", tc.name, mode, rep.rows.Codes != nil, tc.filters)
			}
			// read and scored count over the filtered searches.
			read, scored := 0, 0
			for _, node := range []uint64{1, 2, 3} { // root, first inner node, its first leaf
				idx, _ := rep.topo.IdxOf(node)
				rows := rep.ranges[idx][1] - rep.ranges[idx][0]
				for _, k := range []int{1, 10, 50, n + 1} {
					for qi, q := range queries {
						tag := fmt.Sprintf("%s %v node %d k=%d query %d", tc.name, mode, node, k, qi)
						got, st, err := rep.Sweep(ctx, node, q, nil, k)
						if err != nil {
							t.Fatal(err)
						}
						finite := !slices.ContainsFunc(q, math.IsNaN) && !(rep.rows.F32 != nil && math.IsInf(float64(float32(q[0])), 0))
						if want := tc.filters && finite && rows > rstar.FilterRowsPerResult*k; (st.Scanned > 0) != want {
							t.Fatalf("%s: filter acted = %v, want %v (%+v)", tag, st.Scanned > 0, want, st)
						}
						if st.Scanned > 0 {
							read += st.Scanned
							scored += st.Scored
							if st.Scanned != rows || st.Scored < k || st.Scored > rows {
								t.Fatalf("%s: stats %+v over %d rows", tag, st, rows)
							}
						} else if st.Scored != rows {
							t.Fatalf("%s: plain sweep scored %d of %d rows", tag, st.Scored, rows)
						}
						if want := tc.c.linearScan(rep, node, q, k); !sameNeighbors(got, want) {
							t.Fatalf("%s:\n  sweep  %v\n  oracle %v", tag, got, want)
						}
					}
				}
			}
			if tc.filters && scored >= read {
				t.Errorf("%s %v: the filter scored %d of the %d rows it read", tc.name, mode, scored, read)
			}
		}
	}
}

// TestSweepAtRoutedShape pins what the filter saves on a shard of
// knn_routed's shape — shard 0 of 20,000 × 512 float32 rows from 200
// Gaussian clusters (σ = 0.3), queries a corpus row plus N(0, 0.05²) noise,
// k = 50: a root leg reads each code row once, scores at most 5 % of the
// shard's rows exactly on average, and answers as the linear scan does.
func TestSweepAtRoutedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("a 20,000 × 512 corpus")
	}
	const total, dim, clusters, k = 20000, 512, 200, 50
	rng := rand.New(rand.NewSource(7))
	centers := make([]float64, clusters*dim)
	for i := range centers {
		centers[i] = rng.NormFloat64()
	}
	c := &oracleCorpus{dim: dim, leaves: clusters, perInner: 20}
	var queries []vec.Vector
	row := make([]float64, dim)
	for gid := 0; gid < total; gid++ {
		cl := rng.Intn(clusters)
		for d := range row {
			row[d] = centers[cl*dim+d] + 0.3*rng.NormFloat64()
		}
		if gid%1000 == 0 {
			q := make(vec.Vector, dim)
			for d := range q {
				q[d] = float64(float32(row[d])) + 0.05*rng.NormFloat64()
			}
			queries = append(queries, q)
		}
		if Assign(gid, 3) == 0 {
			c.add(row, cl)
		}
	}
	rep := c.replica(t, "f32")
	n := len(c.leafOf)
	ctx := context.Background()
	scored := 0
	for i, q := range queries {
		got, st, err := rep.Sweep(ctx, rep.topo.RootID(), q, nil, k)
		if err != nil {
			t.Fatal(err)
		}
		if st.Scanned != n {
			t.Errorf("query %d: read %d code rows of %d", i, st.Scanned, n)
		}
		if want := c.linearScan(rep, rep.topo.RootID(), q, k); !sameNeighbors(got, want) {
			t.Fatalf("query %d:\n  sweep  %v\n  oracle %v", i, got, want)
		}
		scored += st.Scored
	}
	frac := float64(scored) / float64(len(queries)*n)
	t.Logf("%d rows: a root leg scores %.1f rows exactly on average (%.2f %%)", n, float64(scored)/float64(len(queries)), 100*frac)
	if frac > 0.05 {
		t.Errorf("root legs scored %.2f %% of the shard's rows exactly, gate is 5 %%", 100*frac)
	}
}

// TestSweepAllocs: a steady-state leg allocates its result list and little
// else — the sweep's scratch and selector are pooled. Four legs at k = 50: a
// filtered root leg over float32 rows, a plain leaf leg over float32 rows, a
// filtered root leg over float64 rows and a weighted root leg over float32
// rows (widened a block at a time).
func TestSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const n, dim, k = 2000, 37, 50
	c := clusteredCorpus(rand.New(rand.NewSource(23)), n, dim, 8)
	weights := make([]float64, dim)
	for i := range weights {
		weights[i] = 1 + float64(i%3)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		storage  string
		node     uint64
		weights  []float64
		filtered bool
	}{
		{"f32 filtered root", "f32", 1, nil, true},
		{"f32 plain leaf", "f32", 3, nil, false},
		{"f64 filtered root", "f64", 1, nil, true},
		{"f32 weighted root", "f32", 1, weights, false},
	} {
		rep := c.replica(t, tc.storage)
		i := 0
		leg := func() LegStats {
			q := c.rows[(i*97%n)*dim : (i*97%n+1)*dim]
			i++
			got, st, err := rep.Sweep(ctx, tc.node, q, tc.weights, k)
			if err != nil || len(got) != k {
				t.Fatalf("%s: %d results, err=%v", tc.name, len(got), err)
			}
			return st
		}
		if st := leg(); (st.Scanned > 0) != tc.filtered {
			t.Fatalf("%s: filtered = %v (%+v)", tc.name, st.Scanned > 0, st)
		}
		got := testing.AllocsPerRun(200, func() { leg() })
		t.Logf("%s: %v allocs per leg", tc.name, got)
		if got > 2 {
			t.Errorf("%s: %v allocs per leg, budget 2", tc.name, got)
		}
	}
}
