package rstar

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"qdcbir/internal/bitset"
	"qdcbir/internal/vec"
)

// forestRow is one row of a forest fixture under its global ID: a tree row
// (Point set) or a pre-scored one (Point nil).
type forestRow struct {
	id     ItemID
	point  vec.Vector
	distSq float64
}

// forestOracle is KNNForest by brute force: the k smallest rows under
// (squared distance, global ID), reported in the documented (Dist, ID) order.
func forestOracle(rows []forestRow, k int) []Neighbor {
	rows = append([]forestRow(nil), rows...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].distSq != rows[j].distSq {
			return rows[i].distSq < rows[j].distSq
		}
		return rows[i].id < rows[j].id
	})
	if len(rows) > k {
		rows = rows[:k]
	}
	out := make([]Neighbor, len(rows))
	for i, r := range rows {
		out[i] = Neighbor{ID: r.id, Point: r.point, Dist: math.Sqrt(r.distSq)}
	}
	sort.SliceStable(out, func(i, j int) bool { return neighborLess(out[i], out[j]) })
	return out
}

// FuzzKNNForest searches a forest of 1–5 trees, each with a random Skip set
// and its global IDs drawn from one shuffled range, beside a memtable-like
// set of pre-scored rows, under every leaf scorer: float64, SQ8 (one tree of
// the forest holding no codes, as a segment whose quantizer could not be
// trained), float32, and weighted. The answer must be the brute-force k
// nearest of the union of the unskipped rows and the pre-scored ones under
// (squared distance, global ID) — the key of one tree holding them all —
// including on a coarse grid, where distances tie, and with a pair of rows in
// different trees at squared distances 1 and 1+2⁻⁵², which tie at one square
// root. A forest of one tree and no pre-scored rows must be KNNSearch, effort
// counters included.
func FuzzKNNForest(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(10), uint8(0), false, false, []byte{0xff, 0x0f, 0x33, 0x80})
	f.Add(int64(2), uint8(3), uint16(50), uint8(1), true, true, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(int64(3), uint8(4), uint16(1), uint8(1), false, true, []byte{0x55, 0xaa})
	f.Add(int64(4), uint8(2), uint16(121), uint8(2), true, false, []byte{0x01})
	f.Add(int64(5), uint8(1), uint16(1), uint8(2), false, true, []byte{})
	f.Add(int64(6), uint8(4), uint16(33), uint8(3), true, false, []byte{0xfe, 0x10})
	f.Add(int64(7), uint8(1), uint16(1), uint8(0), false, true, []byte{0x00})
	f.Fuzz(func(t *testing.T, seed int64, treesSel uint8, kSel uint16, scorer uint8, coarse, tie bool, skipBits []byte) {
		rng := rand.New(rand.NewSource(seed))
		nt := 1 + int(treesSel)%5
		dim := 2 + rng.Intn(7)
		mode := []string{"f64", "sq8", "f32", "weighted"}[int(scorer)%4]
		var weights vec.Vector
		if mode == "weighted" {
			weights = make(vec.Vector, dim)
			for j := range weights {
				weights[j] = float64(rng.Intn(4))
			}
		}
		point := func() vec.Vector {
			p := make(vec.Vector, dim)
			for j := range p {
				p[j] = rng.NormFloat64() * 10
				if coarse {
					p[j] = math.Round(p[j] / 8)
				}
				if mode == "f32" {
					p[j] = float64(float32(p[j]))
				}
			}
			return p
		}
		q := point()
		if tie {
			for j := range q {
				q[j] = math.Round(q[j])
			}
		}
		var q32 []float32
		if mode == "f32" {
			q32 = vec.Narrow32(q, nil)
		}
		score := func(p vec.Vector) float64 {
			switch mode {
			case "weighted":
				return vec.WeightedSqL2(q, p, weights)
			case "f32":
				return float64(vec.SqL232(q32, vec.Narrow32(p, nil)))
			}
			return vec.SqL2(q, p)
		}

		// Each tree's rows, then the pre-scored ones, under one shuffled ID
		// range; the tie pair goes into the first and last trees.
		sizes := make([]int, nt)
		total := 0
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(120)
			total += sizes[i]
		}
		nPre := rng.Intn(40)
		gids := rng.Perm(total + nPre)
		var union []forestRow
		roots := make([]Root, nt)
		bit := 0
		for i, n := range sizes {
			pts := make([]vec.Vector, n)
			for r := range pts {
				pts[r] = point()
			}
			if tie && (i == 0 || i == nt-1) {
				p := q.Clone()
				p[0]++
				if i == 0 {
					p[1] += 0x1p-26 // squared distance 1+2⁻⁵² from q
				}
				if mode == "f32" {
					float32Points([]vec.Vector{p})
				}
				pts[rng.Intn(n)] = p
			}
			scorerName := mode
			if mode == "weighted" || (mode == "sq8" && i == nt-1 && nt > 1) {
				scorerName = "f64"
			}
			tr := scorerTree(t, scorerName, smallCfg, pts, 8)
			ids := gids[:n:n]
			gids = gids[n:]
			skip := bitset.New(n)
			for id := 0; id < n; id, bit = id+1, bit+1 {
				if bit/8 < len(skipBits) && skipBits[bit/8]>>(bit%8)&1 != 0 {
					skip.Set(id)
					continue
				}
				union = append(union, forestRow{id: ItemID(ids[id]), point: pts[id], distSq: score(pts[id])})
			}
			roots[i] = Root{Tree: tr, Skip: skip, IDs: ids}
		}
		pre := make([]Scored, nPre)
		for i := range pre {
			p := point()
			pre[i] = Scored{ID: ItemID(gids[i]), DistSq: score(p)}
			union = append(union, forestRow{id: pre[i].ID, distSq: pre[i].DistSq})
		}
		k := int(kSel) % (len(union) + 3)

		got, err := KNNForest(context.Background(), roots, weights, pre, Query{Q: q, K: k})
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, mode+"/forest", got, forestOracle(union, k))

		// The forest of one is KNNSearch.
		tr := roots[0].Tree
		var oneSt, searchSt SearchStats
		one, err := KNNForest(context.Background(), []Root{{Tree: tr, Skip: roots[0].Skip}}, weights, nil, Query{Q: q, K: k, Stats: &oneSt})
		if err != nil {
			t.Fatal(err)
		}
		alone, err := tr.KNNSearch(context.Background(), tr.Root(), weights, Query{Q: q, K: k, Skip: roots[0].Skip, Stats: &searchSt})
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, mode+"/forest-of-one", one, alone)
		if oneSt != searchSt {
			t.Fatalf("%s: the forest of one spent %+v, KNNSearch %+v", mode, oneSt, searchSt)
		}
	})
}

// TestKNNForestRejects: a forest query may not carry Query.Skip or mix
// float32 and float64 leaf scorers.
func TestKNNForestRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := float32Points(randPoints(rng, 50, 3, 1))
	f64, f32 := scorerTree(t, "f64", smallCfg, pts, 8), scorerTree(t, "f32", smallCfg, pts, 8)
	ctx := context.Background()
	q := pts[0]
	if _, err := KNNForest(ctx, []Root{{Tree: f64}}, nil, nil, Query{Q: q, K: 3, Skip: bitset.New(50)}); err == nil {
		t.Error("a forest query with a Query.Skip set was accepted")
	}
	if _, err := KNNForest(ctx, []Root{{Tree: f64}, {Tree: f32}}, nil, nil, Query{Q: q, K: 3}); err == nil {
		t.Error("a forest mixing float32 and float64 scorers was accepted")
	}
	if _, err := KNNForest(ctx, []Root{{Tree: f64}, {Tree: f32}}, vec.Vector{1, 1, 1}, nil, Query{Q: q, K: 3}); err != nil {
		t.Errorf("weights score every tree in float64, yet: %v", err)
	}
}

// BenchmarkKNNSearchSQ8 is the one-tree SQ8 search at the embedded workload's
// scale: 50,000 clustered 37-d rows, a capacity-100 tree, k = 50, queries
// near indexed rows.
func BenchmarkKNNSearchSQ8(b *testing.B) {
	const n, dim, clusters, k = 50000, 37, 1000, 50
	rng := rand.New(rand.NewSource(4))
	centers := randPoints(rng, clusters, dim, 1)
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := centers[rng.Intn(clusters)].Clone()
		for j := range p {
			p[j] += 0.15 * rng.NormFloat64()
		}
		pts[i] = p
	}
	tr := scorerTree(b, "sq8", Config{MaxFill: 100}, pts, 93)
	qs := make([]vec.Vector, 256)
	for i := range qs {
		qs[i] = pts[rng.Intn(n)].Clone()
		for j := range qs[i] {
			qs[i][j] += 0.05 * rng.NormFloat64()
		}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.KNNSearch(ctx, tr.Root(), nil, Query{Q: qs[i%len(qs)], K: k}); err != nil {
			b.Fatal(err)
		}
	}
}
