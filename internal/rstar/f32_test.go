package rstar

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"qdcbir/internal/bitset"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// f32Reference computes the float32-mode answer for a subtree by brute force:
// narrow the query and every subtree point (a float32 value, so exactly) to
// float32, score with the canonical float32 kernel, drop NaN values and the rows in skip, sort
// ascending (Dist, ID).
func f32Reference(tr *Tree, n *Node, q vec.Vector, k int, skip *bitset.Set) []Neighbor {
	q32 := vec.Narrow32(q, nil)
	var items []Item
	items = itemsInSubtree(n, items)
	out := make([]Neighbor, 0, len(items))
	for _, it := range items {
		if skip.Get(int(it.ID)) {
			continue
		}
		p32 := vec.Narrow32(it.Point, nil)
		d := vec.SqL232(q32, p32)
		if math.IsNaN(float64(d)) {
			continue
		}
		out = append(out, Neighbor{ID: it.ID, Point: it.Point, Dist: math.Sqrt(float64(d))})
	}
	sort.Slice(out, func(i, j int) bool { return neighborLess(out[i], out[j]) })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TestKNNF32MatchesBruteForce: the float32 descent must return exactly the
// float32-mode brute-force answer (same IDs, same float64 distance bits, same
// order) for whole-tree and subtree-restricted searches. Distance ties at the
// k boundary are resolved identically because both sides order by (Dist, ID).
// A NaN query has a NaN value against every row and so an empty answer; rows
// with an infinite component rank last by ItemID.
func TestKNNF32MatchesBruteForce(t *testing.T) {
	cases := []struct {
		seed  int64
		n     int
		dim   int
		scale float64
		inf   bool // give every tenth row an infinite component
	}{
		{seed: 1, n: 60, dim: 2, scale: 1},
		{seed: 2, n: 400, dim: 8, scale: 10},
		{seed: 3, n: 600, dim: 37, scale: 100},
		{seed: 4, n: 300, dim: 12, scale: 0.01},
		{seed: 5, n: 300, dim: 9, scale: 10, inf: true},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(tc.seed))
		pts := float32Points(randPoints(rng, tc.n, tc.dim, tc.scale))
		if tc.inf {
			for i := 0; i < len(pts); i += 10 {
				pts[i][i%tc.dim] = math.Inf(1 - 2*(i/10%2))
			}
		}
		tr := scorerTree(t, "f32", smallCfg, pts, 8)
		if !tr.Float32Scoring() {
			t.Fatalf("seed %d: float32 scoring did not install", tc.seed)
		}
		roots := []*Node{tr.Root()}
		if !tr.Root().IsLeaf() {
			roots = append(roots, tr.Root().Children()...)
		}
		for qi := 0; qi < 16; qi++ {
			q := pts[rng.Intn(len(pts))].Clone()
			if qi%2 == 1 {
				for j := range q {
					q[j] += rng.NormFloat64() * tc.scale * 0.1
				}
			}
			if qi == 15 {
				q[0] = math.NaN()
			}
			for _, root := range roots {
				for _, k := range []int{1, 5, root.Len() + 3, tr.Len() + 1} {
					var st SearchStats
					got, err := tr.KNNSearch(context.Background(), root, nil, Query{Q: q, K: k, Stats: &st})
					if err != nil {
						t.Fatalf("seed %d: %v", tc.seed, err)
					}
					want := f32Reference(tr, root, q, k, nil)
					if len(got) != len(want) {
						t.Fatalf("seed %d root %d k %d: got %d results, want %d",
							tc.seed, root.ID(), k, len(got), len(want))
					}
					for i := range got {
						if got[i].ID != want[i].ID ||
							math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
							t.Fatalf("seed %d root %d k %d rank %d: got (%d, %v), want (%d, %v)",
								tc.seed, root.ID(), k, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
						}
					}
					if st.ItemsScored == 0 {
						t.Fatalf("seed %d: no ItemsScored accounted", tc.seed)
					}
					if math.IsNaN(q[0]) && len(got) != 0 {
						t.Fatalf("seed %d: a NaN query answered %d rows", tc.seed, len(got))
					}
					if tc.inf && root == tr.Root() && k > tr.Len() && len(got) > 0 && !math.IsInf(got[len(got)-1].Dist, 1) {
						t.Fatalf("seed %d root %d: an infinite row does not rank last", tc.seed, root.ID())
					}
				}
			}
		}
	}
}

// TestInstallScorerOneWay: a tree's leaf scorer is installed once.
// Installing the scorer it holds again changes nothing, installing the other
// kind is an error that leaves the tree as it was, and KNN runs the installed
// scorer — on a float32 tree, the brute-force float32 ranking; on an SQ8 tree,
// the exact answer. A tree of rows float32 cannot hold refuses the float32
// scorer, and an empty tree takes no scorer.
func TestInstallScorerOneWay(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim = 5
	pts := float32Points(randPoints(rng, 200, dim, 1))
	flat := make([]float64, 0, len(pts)*dim)
	for _, p := range pts {
		flat = append(flat, p...)
	}
	qz, err := store.QuantizeBacking(dim, flat) // rows indexed by ItemID
	if err != nil {
		t.Fatal(err)
	}
	q := pts[7]

	f32 := scorerTree(t, "f32", smallCfg, pts, 8)
	mirror := f32.fslab
	if err := f32.NarrowFloat32(); err != nil || &f32.fslab[0] != &mirror[0] {
		t.Fatalf("narrowing a float32 tree again: err=%v, mirror kept %v", err, &f32.fslab[0] == &mirror[0])
	}
	if err := f32.TrainQuantized(); err == nil || f32.QuantizedScoring() {
		t.Fatalf("training SQ8 on a float32 tree: err=%v, installed %v", err, f32.QuantizedScoring())
	}
	if err := f32.AdoptQuantized(qz); err == nil || f32.QuantizedScoring() {
		t.Fatalf("adopting SQ8 on a float32 tree: err=%v, installed %v", err, f32.QuantizedScoring())
	}
	sameNeighbors(t, "f32", f32.KNN(q, 9, nil), f32Reference(f32, f32.Root(), q, 9, nil))

	sq8 := scorerTree(t, "sq8", smallCfg, pts, 8)
	codes, quant := sq8.qcodes, sq8.quant
	if err := sq8.TrainQuantized(); err != nil || &sq8.qcodes[0] != &codes[0] || sq8.quant != quant {
		t.Fatalf("training an SQ8 tree again: err=%v, codes kept %v", err, &sq8.qcodes[0] == &codes[0])
	}
	if err := sq8.AdoptQuantized(qz); err != nil || sq8.quant != quant {
		t.Fatalf("adopting on an SQ8 tree: err=%v, quantizer kept %v", err, sq8.quant == quant)
	}
	if err := sq8.NarrowFloat32(); err == nil || sq8.Float32Scoring() {
		t.Fatalf("narrowing an SQ8 tree: err=%v, installed %v", err, sq8.Float32Scoring())
	}
	var st SearchStats
	got, err := sq8.KNNSearch(context.Background(), sq8.Root(), nil, Query{Q: q, K: 9, Stats: &st})
	if err != nil || st.CodesScanned == 0 {
		t.Fatalf("SQ8 KNN: err=%v, %d code rows scanned", err, st.CodesScanned)
	}
	sameNeighbors(t, "sq8", got, oracleKNN(sq8, sq8.Root(), nil, q, 9, nil))

	wide := BulkLoad(dim, smallCfg, bulkItems(randPoints(rng, 50, dim, 1)), 8)
	if err := wide.NarrowFloat32(); err == nil || wide.Float32Scoring() {
		t.Fatalf("narrowing a tree of float64 rows: err=%v, installed %v", err, wide.Float32Scoring())
	}

	empty := BulkLoad(dim, smallCfg, nil, 8)
	if err := empty.NarrowFloat32(); err != nil || empty.Float32Scoring() {
		t.Fatalf("narrowing an empty tree: err=%v, installed %v", err, empty.Float32Scoring())
	}
	if err := empty.TrainQuantized(); err != nil || empty.QuantizedScoring() {
		t.Fatalf("training an empty tree: err=%v, installed %v", err, empty.QuantizedScoring())
	}
}

// checkF32Stop tests the float32 stop rule (f32.go) on one rectangle
// [lo, hi], the rows inside it (float32 values) and a radius r: when
// MinDistSq(q, rect) exceeds the stop key, no row's float32 kernel value may
// be at or below r. It reports whether the stop key was exceeded.
func checkF32Stop(t *testing.T, label string, q, lo, hi vec.Vector, rows []vec.Vector, r float32) bool {
	t.Helper()
	dim := len(q)
	q32 := vec.Narrow32(q, nil)
	var slab []float64
	for _, p := range rows {
		slab = append(slab, p...)
	}
	mirror := vec.Narrow32(slab, nil)
	for i, v := range slab {
		if float64(mirror[i]) != v && !math.IsNaN(v) {
			t.Fatalf("%s: row value %v is not a float32", label, v)
		}
	}
	stop := stop32(float64(r), narrowErr(q, q32), dim)
	mind := vec.MinDistSq(q, lo, hi)
	if !(mind > stop) {
		return false
	}
	for i := range rows {
		if k := vec.SqL232(q32, mirror[i*dim:(i+1)*dim]); k <= r {
			t.Fatalf("%s: MINDIST %g beyond the stop key %g, yet row %d has kernel value %g <= radius %g",
				label, mind, stop, i, k, r)
		}
	}
	return true
}

// TestF32StopRule checks the stop rule on rectangles at three scales, with
// float32 rows and the one nearest the query among them, for radii reaching
// from 0 up past MINDIST, at dims 1, 8, 37 and 512. A radius 0.1 % below
// MINDIST must already stop the descent: the rule is tight enough to prune.
func TestF32StopRule(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	round := func(v float64) float64 { return float64(float32(v)) }
	for _, dim := range []int{1, 8, 37, 512} {
		for _, scale := range []float64{1e-3, 1, 1e3} {
			for trial := 0; trial < 40; trial++ {
				label := fmt.Sprintf("dim=%d/scale=%g/%d", dim, scale, trial)
				q, lo, hi := make(vec.Vector, dim), make(vec.Vector, dim), make(vec.Vector, dim)
				for i := range q {
					c := rng.NormFloat64() * scale
					w := rng.Float64() * scale
					lo[i], hi[i] = round(c-w), round(c+w)
					q[i] = c + rng.NormFloat64()*2*scale
				}
				rows := make([]vec.Vector, 6)
				for j := range rows {
					rows[j] = make(vec.Vector, dim)
					for i := range rows[j] {
						// Rounding is monotone and lo, hi are float32
						// values, so every row stays inside the rectangle.
						switch {
						case j == 0: // the row nearest the query
							rows[j][i] = round(math.Min(math.Max(q[i], lo[i]), hi[i]))
						default:
							rows[j][i] = round(lo[i] + rng.Float64()*(hi[i]-lo[i]))
						}
					}
				}
				mind := vec.MinDistSq(q, lo, hi)
				q32 := vec.Narrow32(q, nil)
				radii := []float32{0, float32(mind * 0.5), float32(mind * 0.999), float32(mind * (1 - 1e-6)),
					float32(mind), float32(mind * (1 + 1e-6))}
				for _, p := range rows {
					radii = append(radii, vec.SqL232(q32, vec.Narrow32(p, nil)))
				}
				for ri, r := range radii {
					stopped := checkF32Stop(t, fmt.Sprintf("%s/r%d", label, ri), q, lo, hi, rows, r)
					if ri == 2 && mind > 0 && !stopped {
						t.Fatalf("%s: a radius 0.1%% below MINDIST %g does not stop the descent", label, mind)
					}
				}
			}
		}
	}
}

// f32StopBytes packs float64 values as the raw little-endian bit patterns
// FuzzF32Stop reads.
func f32StopBytes(vals ...float64) []byte {
	b := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzF32Stop fuzzes the float32 stop rule over raw float64 bit patterns: a
// query, a rectangle of float32 bounds (each dimension's two values narrowed
// and ordered, NaN read as 0) and 1 to 8 float32 rows clamped into it, at
// dims 1 to 64, with one row's kernel value or an arbitrary float32 as the
// radius. Subnormals, ±0 and values beyond float32 range (which narrow to
// ±Inf) are all in reach.
func FuzzF32Stop(f *testing.F) {
	sub := math.Float64frombits(1)
	f.Add(uint8(0), uint8(0), true, uint32(0), f32StopBytes(3, 5, 6, 5.5))
	f.Add(uint8(2), uint8(3), false, math.Float32bits(1e-3), f32StopBytes(1, sub, -0.0, 2, 0, 0, 3, 1, 0.1, 1.5, sub, 0, 2.5, 1e-310, 0.5))
	f.Add(uint8(7), uint8(7), true, uint32(5), f32StopBytes(1e39, -1e39, 0, 1e300, -3.4e38, math.Inf(1), 7, math.NaN()))
	f.Add(uint8(36), uint8(2), false, math.Float32bits(0.25), f32StopBytes(0.1, 0.2, 0.3, 1.1, 1.2, 1.3, 2.2, 2.3, 2.4))
	f.Add(uint8(63), uint8(5), false, math.Float32bits(float32(math.Inf(1))), f32StopBytes(-1, 1, 1e-45, 1e-40))
	f.Fuzz(func(t *testing.T, dimSel, rowSel uint8, rowRadius bool, rbits uint32, raw []byte) {
		dim, n := 1+int(dimSel)%64, 1+int(rowSel)%8
		word := func(i int) float64 {
			if len(raw) == 0 {
				return 0
			}
			var b [8]byte
			for j := range b {
				b[j] = raw[(8*i+j)%len(raw)]
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		q, lo, hi := make(vec.Vector, dim), make(vec.Vector, dim), make(vec.Vector, dim)
		for i := range q {
			q[i] = word(i)
			a, b := float64(float32(word(dim+2*i))), float64(float32(word(dim+2*i+1)))
			if math.IsNaN(a) {
				a = 0
			}
			if math.IsNaN(b) {
				b = 0
			}
			lo[i], hi[i] = math.Min(a, b), math.Max(a, b)
		}
		rows := make([]vec.Vector, n)
		for j := range rows {
			rows[j] = make(vec.Vector, dim)
			for i := range rows[j] {
				rows[j][i] = math.Min(math.Max(float64(float32(word(3*dim+j*dim+i))), lo[i]), hi[i])
			}
		}
		r := math.Float32frombits(rbits)
		if rowRadius {
			j := int(rbits % uint32(n))
			r = vec.SqL232(vec.Narrow32(q, nil), vec.Narrow32(rows[j], nil))
		}
		checkF32Stop(t, "fuzz", q, lo, hi, rows, r)
	})
}
