package rstar

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"qdcbir/internal/bitset"
	"qdcbir/internal/disk"
	"qdcbir/internal/vec"
)

// scorers names the leaf scorers a tree can hold, in table order.
var scorers = []string{"f64", "sq8", "f32"}

// scorerTree bulk-loads pts at fill and installs the named leaf scorer:
// "f64" (none), "sq8" or "f32" (pts must then be float32 values). Trees built from the same points share their
// page IDs whatever their scorer, so their traces compare directly.
func scorerTree(t testing.TB, scorer string, cfg Config, pts []vec.Vector, fill int) *Tree {
	t.Helper()
	tr := BulkLoad(len(pts[0]), cfg, bulkItems(pts), fill)
	var err error
	switch scorer {
	case "sq8":
		err = tr.TrainQuantized()
	case "f32":
		err = tr.NarrowFloat32()
	}
	if err != nil {
		t.Fatalf("install %s: %v", scorer, err)
	}
	return tr
}

// scorerTrees builds one tree per leaf scorer over pts.
func scorerTrees(t testing.TB, cfg Config, pts []vec.Vector, fill int) map[string]*Tree {
	t.Helper()
	trees := make(map[string]*Tree, len(scorers))
	for _, s := range scorers {
		trees[s] = scorerTree(t, s, cfg, pts, fill)
	}
	return trees
}

// searchMode is one way a search scores rows: the leaf scorer of the tree it
// runs on, and the weights it passes, which always score in float64.
type searchMode struct {
	name, scorer string
	weights      vec.Vector
}

// searchModes lists the four modes: f64, weighted (on the f64 tree), f32
// and sq8.
func searchModes(weights vec.Vector) []searchMode {
	return []searchMode{{"f64", "f64", nil}, {"weighted", "f64", weights}, {"f32", "f32", nil}, {"sq8", "sq8", nil}}
}

func testQueries(rng *rand.Rand, pts []vec.Vector, m, dim int, scale float64) []vec.Vector {
	qs := make([]vec.Vector, m)
	for i := range qs {
		switch i % 3 {
		case 0:
			qs[i] = pts[rng.Intn(len(pts))]
		case 1:
			qs[i] = pts[rng.Intn(len(pts))].Clone()
			for j := range qs[i] {
				qs[i][j] += rng.NormFloat64() * scale * 0.1
			}
		default:
			qs[i] = make(vec.Vector, dim)
			for j := range qs[i] {
				qs[i][j] = rng.NormFloat64() * scale
			}
		}
	}
	return qs
}

func sameNeighbors(t *testing.T, label string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID ||
			math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s: result %d diverges: got {%d %v} want {%d %v}",
				label, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
		if !got[i].Point.Equal(want[i].Point) {
			t.Fatalf("%s: result %d point diverges", label, i)
		}
	}
}

func sameTrace(t *testing.T, label string, got, want *disk.Recorder) {
	t.Helper()
	g, w := got.Trace(), want.Trace()
	if len(g) != len(w) {
		t.Fatalf("%s: trace length %d, want %d", label, len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: trace[%d] = %d, want %d", label, i, g[i], w[i])
		}
	}
}

// oracleKNN is the linear-scan reference every search mode is checked
// against: each item under n and outside skip scored with the scalar kernel
// of the mode weights selects on tr, ordered by (distance, ID), cut at k.
func oracleKNN(tr *Tree, n *Node, weights vec.Vector, q vec.Vector, k int, skip *bitset.Set) []Neighbor {
	if k <= 0 {
		return nil
	}
	if weights == nil && tr.Float32Scoring() {
		return f32Reference(tr, n, q, k, skip)
	}
	var items []Item
	for _, it := range itemsInSubtree(n, nil) {
		if !skip.Get(int(it.ID)) {
			items = append(items, it)
		}
	}
	sq := make(map[ItemID]float64, len(items))
	for _, it := range items {
		if weights == nil {
			sq[it.ID] = vec.SqL2(q, it.Point)
		} else {
			sq[it.ID] = vec.WeightedSqL2(q, it.Point, weights)
		}
	}
	sort.Slice(items, func(i, j int) bool {
		a, b := sq[items[i].ID], sq[items[j].ID]
		if a != b {
			return a < b
		}
		return items[i].ID < items[j].ID
	})
	if len(items) > k {
		items = items[:k]
	}
	out := make([]Neighbor, len(items))
	for i, it := range items {
		out[i] = Neighbor{ID: it.ID, Point: it.Point, Dist: math.Sqrt(sq[it.ID])}
	}
	// Distinct squared distances can round to one Dist; the contract orders
	// the reported list by (Dist, ID).
	sort.SliceStable(out, func(i, j int) bool { return neighborLess(out[i], out[j]) })
	return out
}

// searchCorpus is one row of the equivalence table's corpus axis.
type searchCorpus struct {
	name  string
	dim   int
	scale float64
	pts   []vec.Vector
}

// duplicatedCorpus holds every point two or three times under different IDs,
// so a query at a corpus point meets distance ties at the k boundary.
func duplicatedCorpus(rng *rand.Rand) searchCorpus {
	const dim, scale = 16, 10.0
	base := float32Points(randPoints(rng, 500, dim, scale))
	pts := append([]vec.Vector(nil), base...)
	for i, p := range base {
		pts = append(pts, p.Clone())
		if i%2 == 0 {
			pts = append(pts, p.Clone())
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return searchCorpus{name: "duplicated", dim: dim, scale: scale, pts: pts}
}

// degenerateCorpus makes code distances carry no information — one dimension
// spans a huge range (setting the quantizer step) while neighbours differ
// only along a tiny-range one — so the SQ8 filter can exclude nothing among
// the rows on the query's side and the descent must score them all exactly.
func degenerateCorpus(rng *rand.Rand) searchCorpus {
	pts := make([]vec.Vector, 400)
	for i := range pts {
		pts[i] = vec.Vector{float64(i%2) * 1000, float64(float32(rng.Float64() * 1e-3))}
	}
	return searchCorpus{name: "code-degenerate", dim: 2, scale: 1e-3, pts: pts}
}

// takeCodesSequential is takeCodes as it was before rows were scored four
// at a time: each row tested against the limit, scored with vec.SqL2 and
// offered, one after another. It is the reference the batched loop's effort
// counts and selector evolution are pinned against.
func (d *descent) takeCodesSequential(f *forest, leaf *Node, q vec.Vector, raw []int32) {
	r, ts := &f.roots[0], &d.trees[0]
	items := leaf.items
	d.codes += uint64(len(items))
	for i, c := range raw {
		if c > ts.limit(r.m.quant, d.sel.radiusSq) || ts.skip.Get(int(items[i].ID)) {
			continue
		}
		d.items++
		sq := vec.SqL2(q, items[i].Point)
		if sq > d.sel.radiusSq {
			continue
		}
		if d.sel.offer(sq, items[i]) {
			d.tightened(f)
		}
	}
}

// checkSequentialRerank runs one finite query's SQ8 descent of n, passing
// over the rows in skip, to the end with every leaf filtered through
// takeCodesSequential, and requires the search's own effort counters (st,
// from a search behind the filter) and answer (got) to be that loop's.
func checkSequentialRerank(t *testing.T, label string, tr *Tree, n *Node, q vec.Vector, k int, skip *bitset.Set, st SearchStats, got []Neighbor) {
	t.Helper()
	m := metric{quant: tr.quant}
	f := forest{roots: []root{{n: n, m: m}}, dim: tr.dim}
	code, qErr := tr.quant.EncodeQuery(q, make([]uint8, tr.dim))
	d := descent{sel: selector{k: k, radiusSq: math.Inf(1)}, stopSq: math.Inf(1),
		trees: []treeState{{skip: skip, code: code, qErr: qErr, codeLimit: math.MaxInt32, limitAt: math.Inf(1)}}}
	d.pq.push(nodeEntry{distSq: m.bound(n.rect, q), node: n})
	for len(d.pq) > 0 {
		e := d.pq.pop()
		if e.distSq > d.stopSq {
			break
		}
		if leaf := e.node; leaf.leaf {
			raw := make([]int32, len(leaf.items))
			vec.Uint8SquaredDistsTo(code, tr.qcodes[leaf.qlo*tr.dim:leaf.qhi*tr.dim], raw)
			d.takeCodesSequential(&f, leaf, q, raw)
			continue
		}
		bounds := make([]float64, len(e.node.children))
		m.bounds(q, e.node.box, bounds)
		for i, c := range e.node.children {
			d.pq.push(nodeEntry{distSq: bounds[i], node: c})
		}
	}
	if st.ItemsScored != d.items || st.Reranked != d.items || st.CodesScanned != d.codes {
		t.Fatalf("%s: scored %d (reranked %d) of %d code rows, the sequential loop %d of %d",
			label, st.ItemsScored, st.Reranked, st.CodesScanned, d.items, d.codes)
	}
	sameNeighbors(t, label+"/sequential", got, d.sel.drain())
}

// subtreesOf picks the equivalence table's three subtree levels of tr: the
// root, its first child, and the first leaf below that.
func subtreesOf(tr *Tree) []*Node {
	internal := tr.Root().Children()[0]
	leaf := internal
	for !leaf.IsLeaf() {
		leaf = leaf.Children()[0]
	}
	return []*Node{tr.Root(), internal, leaf}
}

// skipKinds names the Skip sets the equivalence table draws, by index:
// none, the query's own nearest rows, every row of the child subtree that
// holds its nearest row (all of n when n is a leaf), and a random third.
var skipKinds = []string{"nil", "nearest", "subtree", "random"}

// skipSet builds the Skip set of the given kind for a query at q over the
// subtree n of tr, whose ItemIDs lie in [0, ids).
func skipSet(rng *rand.Rand, kind int, tr *Tree, n *Node, q vec.Vector, ids int) *bitset.Set {
	if kind == 0 {
		return nil
	}
	skip := bitset.New(ids)
	nearest := oracleKNN(tr, n, nil, q, 12, nil)
	switch {
	case kind == 1:
		for _, nb := range nearest {
			skip.Set(int(nb.ID))
		}
	case kind == 2 && len(nearest) > 0:
		under := n
		for _, c := range n.Children() {
			for _, it := range itemsInSubtree(c, nil) {
				if it.ID == nearest[0].ID {
					under = c
				}
			}
		}
		for _, it := range itemsInSubtree(under, nil) {
			skip.Set(int(it.ID))
		}
	case kind == 3:
		for id := 0; id < ids; id++ {
			if rng.Intn(3) == 0 {
				skip.Set(id)
			}
		}
	}
	return skip
}

// TestKNNSearchMatchesOracle is the search's one equivalence table. From
// each corpus it builds one STR tree per leaf scorer (f64, SQ8, f32) and one
// insertion-built tree, and searches every tree unweighted and weighted
// (weights score in float64 whatever the tree holds) × subtree level × k ×
// Skip set (skipKinds) × query, a NaN query among them. Each answer must be
// the linear-scan oracle's over the rows outside its Skip set. The last query
// repeats the first at the same point, one with a Skip set and one without.
//
// Every SQ8 search is also replayed on the f64 tree: the trace, HeapPops,
// NodesRead and answer must be the f64 tree's. Every finite SQ8 search's
// ItemsScored/Reranked must be the sequential rerank loop's
// (checkSequentialRerank).
func TestKNNSearchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, corpus := range []searchCorpus{duplicatedCorpus(rng), degenerateCorpus(rng)} {
		weights := make(vec.Vector, corpus.dim)
		for i := range weights {
			weights[i] = []float64{2, 1, 0.5, 0, 3}[i%5]
		}
		trees := scorerTrees(t, smallCfg, corpus.pts, 8)
		inserted, err := InsertLoadCtx(context.Background(), corpus.dim, smallCfg, bulkItems(corpus.pts))
		if err != nil {
			t.Fatalf("%s: insertion build: %v", corpus.name, err)
		}
		trees["insert"] = inserted
		exactSubs := subtreesOf(trees["f64"])

		filtered := false
		for _, name := range []string{"f64", "sq8", "f32", "insert"} {
			tr := trees[name]
			subs := subtreesOf(tr)
			if subs[1].IsLeaf() {
				t.Fatalf("%s/%s: tree of height %d has no internal level", corpus.name, name, tr.Height())
			}
			for _, w := range []vec.Vector{nil, weights} {
				mode := name
				if w != nil {
					mode += "/weighted"
				}
				for si, subName := range []string{"root", "internal", "leaf"} {
					sub := subs[si]
					rows := len(itemsInSubtree(sub, nil))
					const nq = 16
					points := testQueries(rng, corpus.pts, nq, corpus.dim, corpus.scale)
					// A NaN query: under SQ8 it takes the exact descent.
					points[3] = points[3].Clone()
					points[3][0] = math.NaN()
					kinds := make([]int, nq)
					for i := range kinds {
						kinds[i] = rng.Intn(len(skipKinds))
					}
					points[nq-1] = points[0]
					kinds[0], kinds[nq-1] = 0, 1+rng.Intn(len(skipKinds)-1)
					for i, p := range points {
						l := fmt.Sprintf("%s/%s/%s/q%d/skip=%s", corpus.name, mode, subName, i, skipKinds[kinds[i]])
						rec := &disk.Recorder{}
						var st SearchStats
						q := Query{
							Q:     p,
							K:     []int{1, 10, 0, rows + 3, -2}[i%5],
							Skip:  skipSet(rng, kinds[i], tr, sub, p, len(corpus.pts)),
							Acc:   rec,
							Stats: &st,
						}
						got, err := tr.KNNSearch(context.Background(), sub, w, q)
						if err != nil {
							t.Fatalf("%s: %v", l, err)
						}
						if name == "sq8" {
							twinRec := &disk.Recorder{}
							var twinSt SearchStats
							twin, err := trees["f64"].KNNSearch(context.Background(), exactSubs[si], w,
								Query{Q: q.Q, K: q.K, Skip: q.Skip, Acc: twinRec, Stats: &twinSt})
							if err != nil {
								t.Fatalf("%s: f64: %v", l, err)
							}
							sameNeighbors(t, l+"/f64", got, twin)
							sameTrace(t, l+"/f64", rec, twinRec)
							if st.HeapPops != twinSt.HeapPops || st.NodesRead != twinSt.NodesRead {
								t.Fatalf("%s: %d pops and %d nodes read, f64 %d and %d", l,
									st.HeapPops, st.NodesRead, twinSt.HeapPops, twinSt.NodesRead)
							}
						}
						if math.IsNaN(q.Q[0]) {
							continue // no order to check a NaN query's answer against
						}
						if name == "sq8" && w == nil && q.K > 0 {
							checkSequentialRerank(t, l, tr, sub, q.Q, q.K, q.Skip, st, got)
						}
						// A skipped row's code is scanned but the row is never
						// scored, so only a search without a Skip set measures
						// the filter.
						if q.Skip == nil && st.Reranked < st.CodesScanned {
							filtered = true
							if corpus.name == "code-degenerate" {
								t.Errorf("%s: the filter excluded %d of %d code rows that carry no information",
									l, st.CodesScanned-st.Reranked, st.CodesScanned)
							}
						}
						sameNeighbors(t, l+"/oracle", got, oracleKNN(tr, sub, w, q.Q, q.K, q.Skip))
					}
				}
			}
		}
		if corpus.name == "duplicated" && !filtered {
			t.Errorf("%s: no SQ8 search scored fewer rows exactly than it scanned codes", corpus.name)
		}
	}
}

// FuzzKNNSkip checks Skip against brute force on random trees: 1 to 300
// points of 1 to 12 dimensions from seed (on a coarse grid when coarse is
// set, so distances tie), a Skip bit per row read from skipBits (rows past
// its end are kept), k from 0 to n + 2, and a scorer: f64, sq8, f32, an
// insertion-built tree, or the weighted metric. The query searches with its
// Skip set and again without one; each answer must be the oracle's k
// nearest over the rows it may return.
func FuzzKNNSkip(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(7), uint16(10), uint8(0), false, []byte{0xff, 0x0f, 0x33, 0x80})
	f.Add(int64(2), uint16(299), uint8(3), uint16(50), uint8(1), true, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(int64(3), uint16(64), uint8(11), uint16(1), uint8(2), false, []byte{0x55, 0xaa})
	f.Add(int64(4), uint16(120), uint8(2), uint16(121), uint8(3), true, []byte{0x01})
	f.Add(int64(5), uint16(8), uint8(0), uint16(9), uint8(4), false, []byte{0xfe})
	f.Fuzz(func(t *testing.T, seed int64, nSel uint16, dimSel uint8, kSel uint16, scorer uint8, coarse bool, skipBits []byte) {
		n, dim := 1+int(nSel)%300, 1+int(dimSel)%12
		k := int(kSel) % (n + 3)
		rng := rand.New(rand.NewSource(seed))
		pts := randPoints(rng, n, dim, 10)
		if coarse {
			for _, p := range pts {
				for j := range p {
					p[j] = math.Round(p[j] / 8)
				}
			}
		}
		skip := bitset.New(n)
		for id := 0; id < n && id/8 < len(skipBits); id++ {
			if skipBits[id/8]>>(id%8)&1 != 0 {
				skip.Set(id)
			}
		}
		name := []string{"f64", "sq8", "f32", "insert", "weighted"}[int(scorer)%5]
		if name == "f32" {
			float32Points(pts)
		}
		var tr *Tree
		var weights vec.Vector
		switch name {
		case "insert":
			var err error
			if tr, err = InsertLoadCtx(context.Background(), dim, smallCfg, bulkItems(pts)); err != nil {
				t.Fatal(err)
			}
		case "weighted":
			tr = scorerTree(t, "f64", smallCfg, pts, 8)
			weights = make(vec.Vector, dim)
			for j := range weights {
				weights[j] = float64(rng.Intn(4))
			}
		default:
			tr = scorerTree(t, name, smallCfg, pts, 8)
		}
		q := pts[rng.Intn(n)].Clone()
		if rng.Intn(2) == 0 {
			for j := range q {
				q[j] += rng.NormFloat64()
			}
		}
		for _, sk := range []*bitset.Set{skip, nil} {
			got, err := tr.KNNSearch(context.Background(), tr.Root(), weights, Query{Q: q, K: k, Skip: sk})
			if err != nil {
				t.Fatal(err)
			}
			sameNeighbors(t, fmt.Sprintf("%s/skip=%v", name, sk != nil), got, oracleKNN(tr, tr.Root(), weights, q, k, sk))
		}
	})
}

// pollCtx is a context whose Err reports nil for its first live calls and
// context.Canceled from then on — a deadline that lapses at a chosen poll.
type pollCtx struct {
	context.Context
	calls, live int
}

func (c *pollCtx) Err() error {
	c.calls++
	if c.calls > c.live {
		return context.Canceled
	}
	return nil
}

// TestKNNSearchCompletedReturnsNil: a search that ran to completion returns
// its results with a nil error even when the context lapses right after its
// final in-loop poll, while a context that lapses AT the final poll still
// cancels it.
func TestKNNSearchCompletedReturnsNil(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	pts := float32Points(randPoints(rng, 3000, 8, 10))
	trees := scorerTrees(t, smallCfg, pts, 8)
	for _, mode := range searchModes(vec.Vector{2, 1, 1, 0.5, 1, 1, 3, 1}) {
		tr := trees[mode.scorer]
		for i, q := range testQueries(rng, pts, 3, 8, 10) {
			label := fmt.Sprintf("%s/q%d", mode.name, i)
			run := func(live int) ([]Neighbor, int, error) {
				ctx := &pollCtx{Context: context.Background(), live: live}
				ns, err := tr.KNNSearch(ctx, tr.Root(), mode.weights, Query{Q: q, K: 7})
				return ns, ctx.calls, err
			}
			want, polls, err := run(math.MaxInt)
			if err != nil || polls == 0 {
				t.Fatalf("%s: live context: %d polls, err=%v", label, polls, err)
			}
			got, _, err := run(polls)
			if err != nil {
				t.Fatalf("%s: context lapsing after the final poll: err=%v, want nil", label, err)
			}
			sameNeighbors(t, label, got, want)
			if _, _, err := run(polls - 1); err != context.Canceled {
				t.Fatalf("%s: context lapsing at the final poll: err=%v, want Canceled", label, err)
			}
		}
	}
}

// TestKNNSearchAllocs pins the search to its allocation budget on a
// paper-shaped tree (5,000 × 37-d, k = 10): the result slice, in every scan
// mode, without a Skip set and with one. Everything else is pooled, so an
// edit that puts the search on an unpooled path fails here.
func TestKNNSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const n, dim, k = 5000, 37, 10
	rng := rand.New(rand.NewSource(91))
	pts := float32Points(randPoints(rng, n, dim, 1))
	trees := scorerTrees(t, Config{}, pts, 85)
	weights := make(vec.Vector, dim)
	for i := range weights {
		weights[i] = 1 + float64(i%3)
	}
	everyThird := bitset.New(n)
	for id := 0; id < n; id += 3 {
		everyThird.Set(id)
	}
	budget := map[string]float64{"f64": 1, "weighted": 1, "sq8": 1, "f32": 1}
	for _, mode := range searchModes(weights) {
		tr := trees[mode.scorer]
		for _, skip := range []*bitset.Set{nil, everyThird} {
			i := 0
			got := testing.AllocsPerRun(200, func() {
				ns, err := tr.KNNSearch(context.Background(), tr.Root(), mode.weights, Query{Q: pts[i%n], K: k, Skip: skip})
				i++
				if err != nil || len(ns) != k {
					t.Fatalf("%s: %d results, err=%v", mode.name, len(ns), err)
				}
			})
			if got > budget[mode.name] {
				t.Errorf("%s (skip %v): %v allocs per search, budget %v", mode.name, skip != nil, got, budget[mode.name])
			}
		}
	}
}

// TestKNNSearchCancellation: a cancelled context aborts a search in every
// scan mode with the context's error.
func TestKNNSearchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts := float32Points(randPoints(rng, 500, 8, 10))
	trees := scorerTrees(t, smallCfg, pts, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range searchModes(vec.Vector{2, 1, 1, 0.5, 1, 1, 3, 1}) {
		for _, q := range testQueries(rng, pts, 3, 8, 10) {
			tr := trees[mode.scorer]
			if _, err := tr.KNNSearch(ctx, tr.Root(), mode.weights, Query{Q: q, K: 5}); err != context.Canceled {
				t.Fatalf("%s: expected context.Canceled, got %v", mode.name, err)
			}
		}
	}
}

// TestKNNSearchConcurrent: searches share nothing but the read-only tree and
// the scratch pools, so goroutines searching at once in every scan mode get
// the answers they get alone (run under -race).
func TestKNNSearchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	pts := float32Points(randPoints(rng, 800, 16, 10))
	trees := scorerTrees(t, smallCfg, pts, 8)
	weights := pts[0].Clone()
	for i := range weights {
		weights[i] = math.Abs(weights[i])
	}
	modes := searchModes(weights)
	points := testQueries(rng, pts, 3, 16, 10)
	want := make([][][]Neighbor, len(modes))
	for s, mode := range modes {
		tr := trees[mode.scorer]
		for _, q := range points {
			ns, _ := tr.KNNSearch(context.Background(), tr.Root(), mode.weights, Query{Q: q, K: 9})
			want[s] = append(want[s], ns)
		}
	}
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for rep := 0; rep < 20; rep++ {
				s := (g + rep) % len(modes)
				tr := trees[modes[s].scorer]
				for i, q := range points {
					ns, err := tr.KNNSearch(context.Background(), tr.Root(), modes[s].weights, Query{Q: q, K: 9})
					if err != nil {
						errs <- err
						return
					}
					same := len(ns) == len(want[s][i])
					for r := 0; same && r < len(want[s][i]); r++ {
						same = ns[r].ID == want[s][i][r].ID
					}
					if !same {
						errs <- fmt.Errorf("goroutine %d %s query %d diverges from the serial answer", g, modes[s].name, i)
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestKNNSearchHugeK: k is a caller's number, not a size the search may
// allocate — K = 1<<40 returns every row of the subtree, in the oracle's
// order, in every scan mode.
func TestKNNSearchHugeK(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	pts := float32Points(randPoints(rng, 600, 8, 10))
	trees := scorerTrees(t, smallCfg, pts, 8)
	for _, mode := range searchModes(vec.Vector{2, 1, 1, 0.5, 1, 0, 3, 1}) {
		tr := trees[mode.scorer]
		for _, sub := range []*Node{tr.Root(), tr.Root().Children()[0]} {
			rows := len(itemsInSubtree(sub, nil))
			label := fmt.Sprintf("%s/rows=%d", mode.name, rows)
			got, err := tr.KNNSearch(context.Background(), sub, mode.weights, Query{Q: pts[3], K: 1 << 40})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(got) != rows {
				t.Fatalf("%s: K = 1<<40 returned %d rows, subtree holds %d", label, len(got), rows)
			}
			sameNeighbors(t, label, got, oracleKNN(tr, sub, mode.weights, pts[3], 1<<40, nil))
		}
	}
}

// TestSQ8DescentReadsWhatExactReads: the SQ8 filter decides which rows of a
// popped leaf are scored exactly and nothing else. Per query, the descent
// behind it opens the exact descent's nodes in the exact descent's order,
// scans the code rows of exactly the leaves it popped, scores at most those
// rows, and never falls back on a finite query; the answers are the exact
// descent's bits.
func TestSQ8DescentReadsWhatExactReads(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	const n, dim = 6000, 16
	pts := make([]vec.Vector, n)
	for i := range pts { // clustered, so the tree has something to prune
		c := float64(i % 40)
		pts[i] = make(vec.Vector, dim)
		for j := range pts[i] {
			pts[i][j] = c*float64(1+j%3) + rng.NormFloat64()
		}
	}
	exactTr, tr := scorerTree(t, "f64", smallCfg, pts, 8), scorerTree(t, "sq8", smallCfg, pts, 8)
	leafRows := map[disk.PageID]uint64{}
	tr.Walk(func(nd *Node, _ int) {
		if nd.IsLeaf() {
			leafRows[nd.ID()] = uint64(nd.Len())
		}
	})
	var scanned, scored, nodes uint64
	const searches = 300
	for qi, q := range testQueries(rng, pts, searches, dim, 40) {
		c := qi % len(tr.Root().Children())
		for _, subs := range [][2]*Node{{tr.Root(), exactTr.Root()}, {tr.Root().Children()[c], exactTr.Root().Children()[c]}} {
			sub := subs[0]
			k := []int{1, 10, 50}[qi%3]
			label := fmt.Sprintf("q%d/k=%d/node=%d", qi, k, sub.ID())
			var exactRec, sq8Rec disk.Recorder
			var exactSt, sq8St SearchStats
			exact, err := exactTr.KNNSearch(context.Background(), subs[1], nil, Query{Q: q, K: k, Acc: &exactRec, Stats: &exactSt})
			if err != nil {
				t.Fatal(err)
			}
			sq8, err := tr.KNNSearch(context.Background(), sub, nil, Query{Q: q, K: k, Acc: &sq8Rec, Stats: &sq8St})
			if err != nil {
				t.Fatal(err)
			}
			sameNeighbors(t, label, sq8, exact)
			sameTrace(t, label, &sq8Rec, &exactRec)
			if sq8St.NodesRead != exactSt.NodesRead || sq8St.HeapPops != exactSt.HeapPops {
				t.Fatalf("%s: SQ8 read %d nodes in %d pops, exact %d in %d",
					label, sq8St.NodesRead, sq8St.HeapPops, exactSt.NodesRead, exactSt.HeapPops)
			}
			var popped uint64
			for _, p := range sq8Rec.Trace() {
				popped += leafRows[p]
			}
			if sq8St.CodesScanned != popped {
				t.Fatalf("%s: scanned %d code rows, the leaves popped hold %d", label, sq8St.CodesScanned, popped)
			}
			if sq8St.Reranked > sq8St.CodesScanned || sq8St.ItemsScored != sq8St.Reranked {
				t.Fatalf("%s: scored %d rows exactly (ItemsScored %d) of %d scanned",
					label, sq8St.Reranked, sq8St.ItemsScored, sq8St.CodesScanned)
			}
			if sq8St.RerankFallbacks != 0 {
				t.Fatalf("%s: %d fallbacks on a finite query", label, sq8St.RerankFallbacks)
			}
			checkSequentialRerank(t, label, tr, sub, q, k, nil, sq8St, sq8)
			if exactSt.CodesScanned != 0 || exactSt.ItemsScored != popped {
				t.Fatalf("%s: exact descent scanned %d codes and scored %d rows, its leaves hold %d",
					label, exactSt.CodesScanned, exactSt.ItemsScored, popped)
			}
			if sub == tr.Root() {
				scanned += sq8St.CodesScanned
				scored += sq8St.Reranked
				nodes += sq8St.NodesRead
			}
		}
	}
	// The point of the filter, on a corpus a tree can prune: a search touches
	// a small part of the code slab and scores a fraction of that.
	t.Logf("per whole-tree search over %d rows: %.1f nodes read, %.0f code rows scanned, %.0f rows scored exactly",
		n, float64(nodes)/searches, float64(scanned)/searches, float64(scored)/searches)
	if scanned/searches > n/10 {
		t.Errorf("a search scans %d code rows on average, more than a tenth of the %d-row corpus", scanned/searches, n)
	}
	if scored >= scanned {
		t.Errorf("the filter excluded nothing: %d rows scored of %d scanned", scored, scanned)
	}
}

// TestF32DescentReadsWhatExactReads: the float32 scorer changes how a popped
// leaf's rows are scored, and its stop key lies above the float64 radius by
// the query's narrowing error alone. Per query of a paper-shaped table —
// 37-d, clustered float32 rows, the whole tree and one of its subtrees,
// k = 1, 10 and 50 — it opens the float64 descent's nodes in
// the float64 descent's order, scores the rows of exactly the leaves it
// popped, and answers what the brute-force float32 ranking answers.
func TestF32DescentReadsWhatExactReads(t *testing.T) {
	const n, dim, searches = 6000, 37, 150
	rng := rand.New(rand.NewSource(131))
	pts := make([]vec.Vector, n)
	for i := range pts { // clustered, so the tree has something to prune
		c := float64(i % 40)
		pts[i] = make(vec.Vector, dim)
		for j := range pts[i] {
			pts[i][j] = float64(float32(c*float64(1+j%3) + rng.NormFloat64()))
		}
	}
	exactTr, tr := scorerTree(t, "f64", Config{}, pts, 85), scorerTree(t, "f32", Config{}, pts, 85)
	leafRows := map[disk.PageID]uint64{}
	tr.Walk(func(nd *Node, _ int) {
		if nd.IsLeaf() {
			leafRows[nd.ID()] = uint64(nd.Len())
		}
	})
	var nodes, scored uint64
	for qi, q := range testQueries(rng, pts, searches, dim, 40) {
		c := qi % len(tr.Root().Children())
		for _, subs := range [][2]*Node{{tr.Root(), exactTr.Root()}, {tr.Root().Children()[c], exactTr.Root().Children()[c]}} {
			sub := subs[0]
			k := []int{1, 10, 50}[qi%3]
			label := fmt.Sprintf("q%d/k=%d/node=%d", qi, k, sub.ID())
			var exactRec, f32Rec disk.Recorder
			var exactSt, f32St SearchStats
			if _, err := exactTr.KNNSearch(context.Background(), subs[1], nil, Query{Q: q, K: k, Acc: &exactRec, Stats: &exactSt}); err != nil {
				t.Fatal(err)
			}
			got, err := tr.KNNSearch(context.Background(), sub, nil, Query{Q: q, K: k, Acc: &f32Rec, Stats: &f32St})
			if err != nil {
				t.Fatal(err)
			}
			sameTrace(t, label, &f32Rec, &exactRec)
			if f32St.NodesRead != exactSt.NodesRead || f32St.HeapPops != exactSt.HeapPops {
				t.Fatalf("%s: float32 read %d nodes in %d pops, float64 %d in %d",
					label, f32St.NodesRead, f32St.HeapPops, exactSt.NodesRead, exactSt.HeapPops)
			}
			var popped uint64
			for _, p := range f32Rec.Trace() {
				popped += leafRows[p]
			}
			if f32St.ItemsScored != popped || f32St.CodesScanned != 0 {
				t.Fatalf("%s: scored %d rows (%d codes), the leaves popped hold %d",
					label, f32St.ItemsScored, f32St.CodesScanned, popped)
			}
			if qi%5 == 0 {
				sameNeighbors(t, label+"/brute-force", got, f32Reference(tr, sub, q, k, nil))
			}
			if sub == tr.Root() {
				nodes += f32St.NodesRead
				scored += f32St.ItemsScored
			}
		}
	}
	t.Logf("per whole-tree float32 search over %d rows in %d nodes: %.1f nodes read, %.0f rows scored",
		n, tr.NodeCount(), float64(nodes)/searches, float64(scored)/searches)
	if scored/searches > n/5 {
		t.Errorf("a float32 search scores %d rows on average, more than a fifth of the %d-row corpus",
			scored/searches, n)
	}
}
