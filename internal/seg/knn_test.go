package seg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qdcbir/internal/bitset"
	"qdcbir/internal/core"
	"qdcbir/internal/rstar"
	"qdcbir/internal/shard"
	"qdcbir/internal/vec"
)

// overRequestSearch is the segment search as it was before the descent took
// a Skip set: ask the tree for k + nTomb neighbours (capped at the segment
// size), then drop the tombstoned ones and keep the first k. It is the
// reference the skip search's answers and effort are measured against.
func overRequestSearch(t *testing.T, sv segView, q vec.Vector, k int, st *rstar.SearchStats) []Neighbor {
	t.Helper()
	kk := k + sv.nTomb
	if kk > sv.seg.len() {
		kk = sv.seg.len()
	}
	tree := sv.seg.rfs.Tree()
	ns, err := tree.KNNSearch(context.Background(), tree.Root(), nil, rstar.Query{Q: q, K: kk, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	var out []Neighbor
	for _, n := range ns {
		if sv.tomb.Get(int(n.ID)) {
			continue
		}
		out = append(out, Neighbor{ID: sv.seg.ids[int(n.ID)], Dist: n.Dist})
		if len(out) == k {
			break
		}
	}
	return out
}

// TestSegmentSearchSkipsTombstones prices the search of one segment on a
// churned SQ8 segment shaped like a served corpus after a compaction: 8,000
// clustered 37-d base rows plus 512 near-copies written since, the oldest 339
// of which are deleted again. Per query at k = 50, the snapshot k-NN must
// return exactly min(k, live) live rows, equal to the old k + nTomb
// over-request's answer, and its descent must read no more nodes, code rows
// or exact rows than the over-request's. A segment whose rows are all
// tombstoned answers nothing and costs nothing.
func TestSegmentSearchSkipsTombstones(t *testing.T) {
	const base, copies, tombs, dim, k, clusters = 8000, 512, 339, 37, 50, 150
	rng := rand.New(rand.NewSource(5))
	centers := make([]vec.Vector, clusters)
	for i := range centers {
		centers[i] = randVec(rng, dim)
	}
	rows := make([]vec.Vector, 0, base+copies)
	for i := 0; i < base; i++ {
		v := centers[rng.Intn(clusters)].Clone()
		for j := range v {
			v[j] += 0.15 * rng.NormFloat64()
		}
		rows = append(rows, v)
	}
	for i := 0; i < copies; i++ {
		v := rows[rng.Intn(base)].Clone()
		for j := range v {
			v[j] += 0.01 * rng.NormFloat64()
		}
		rows = append(rows, v)
	}
	ids := make([]int, len(rows))
	backing := make([]float64, 0, len(rows)*dim)
	for i, v := range rows {
		ids[i] = i
		backing = append(backing, v...)
	}
	cfg := Config{Dim: dim, Quantized: true, NodeCapacity: 100, Seed: 3}.withDefaults()
	g, err := buildSegment(context.Background(), cfg, ids, mustStore(t, dim, backing))
	if err != nil {
		t.Fatal(err)
	}
	if !g.rfs.Tree().QuantizedScoring() {
		t.Fatal("segment holds no SQ8 codes")
	}
	sv := segView{seg: g, tomb: bitset.New(g.len())}
	for local := base; local < base+tombs; local++ {
		sv.tomb.Set(local)
		sv.nTomb++
	}

	snap := &Snapshot{segs: []segView{sv}, live: sv.liveLen(), db: &DB{cfg: cfg}}
	var skipSt, overSt rstar.SearchStats
	const searches = 200
	queries := make([]vec.Vector, searches)
	for qi := range queries {
		q := rows[rng.Intn(len(rows))].Clone()
		for j := range q {
			q[j] += 0.05 * rng.NormFloat64()
		}
		queries[qi] = q
		var st, ost rstar.SearchStats
		got, err := snap.knn(context.Background(), q, nil, k, &st)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("q%d: %d rows from a segment with %d live, want k = %d", qi, len(got), sv.liveLen(), k)
		}
		for _, n := range got { // global IDs equal local ones here
			if sv.tomb.Get(n.ID) {
				t.Fatalf("q%d: tombstoned row %d returned", qi, n.ID)
			}
		}
		sameNeighbors(t, "over-request", got, overRequestSearch(t, sv, q, k, &ost))
		if st.NodesRead > ost.NodesRead || st.CodesScanned > ost.CodesScanned || st.ItemsScored > ost.ItemsScored {
			t.Fatalf("q%d: the skip search read more than the over-request: %+v vs %+v", qi, st, ost)
		}
		skipSt.NodesRead += st.NodesRead
		skipSt.CodesScanned += st.CodesScanned
		skipSt.ItemsScored += st.ItemsScored
		overSt.NodesRead += ost.NodesRead
		overSt.CodesScanned += ost.CodesScanned
		overSt.ItemsScored += ost.ItemsScored
	}
	t.Logf("%d searches, k = %d, %d of %d rows tombstoned: ItemsScored %d -> %d, CodesScanned %d -> %d, NodesRead %d -> %d",
		searches, k, sv.nTomb, g.len(), overSt.ItemsScored, skipSt.ItemsScored,
		overSt.CodesScanned, skipSt.CodesScanned, overSt.NodesRead, skipSt.NodesRead)
	if skipSt.ItemsScored >= overSt.ItemsScored {
		t.Errorf("the skip search scored %d rows exactly, the over-request %d", skipSt.ItemsScored, overSt.ItemsScored)
	}

	dead := segView{seg: g, tomb: bitset.New(g.len()), nTomb: g.len()}
	for local := 0; local < g.len(); local++ {
		dead.tomb.Set(local)
	}
	withDead := &Snapshot{segs: []segView{dead, sv}, live: sv.liveLen(), db: snap.db}
	for qi, q := range queries[:20] {
		var st, dst rstar.SearchStats
		want, err := snap.knn(context.Background(), q, nil, k, &st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := withDead.knn(context.Background(), q, nil, k, &dst)
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, "beside a dead segment", got, want)
		if dst != st {
			t.Fatalf("q%d: a dead segment changed the search's effort: %+v, alone %+v", qi, dst, st)
		}
	}
	onlyDead := &Snapshot{segs: []segView{dead}, db: snap.db}
	if got, err := onlyDead.knn(context.Background(), rows[0], nil, k, nil); err != nil || got != nil {
		t.Fatalf("all-tombstoned segment: %d rows, err=%v", len(got), err)
	}
}

// perSegmentKNN is the snapshot k-NN as it was before one search spanned the
// snapshot's forest: one descent per live segment, each pruning at its own
// k-th distance, plus a full sort of the memtable, merged by (distance,
// global ID). It is the reference the forest search's effort is priced
// against; st receives the segment descents' effort. MergeNeighbors orders
// by DistSq, so each neighbour carries its distance's rounded square: in
// binary floating point the root of that square is the distance again, so
// the squares order exactly as the distances do.
func perSegmentKNN(t *testing.T, s *Snapshot, q vec.Vector, k int, st *rstar.SearchStats) []Neighbor {
	t.Helper()
	var lists [][]Neighbor
	for _, sv := range s.segs {
		if sv.liveLen() == 0 {
			continue
		}
		tree := sv.seg.rfs.Tree()
		ns, err := tree.KNNSearch(context.Background(), tree.Root(), nil, rstar.Query{Q: q, K: k, Skip: sv.tomb, Stats: st})
		if err != nil {
			t.Fatal(err)
		}
		var l []Neighbor
		for _, n := range ns {
			l = append(l, Neighbor{ID: sv.seg.ids[int(n.ID)], Dist: n.Dist, DistSq: n.Dist * n.Dist})
		}
		lists = append(lists, l)
	}
	var mem []Neighbor
	for slot := 0; slot < s.mem.rows; slot++ {
		if !s.mem.tomb.Get(slot) {
			d := math.Sqrt(vec.SqL2(q, s.mem.row(slot)))
			mem = append(mem, Neighbor{ID: s.mem.baseID + slot, Dist: d, DistSq: d * d})
		}
	}
	return shard.MergeNeighbors(append(lists, mem), k)
}

// mindistBound counts what any exact best-first search of s's live segments
// for an answer whose k-th squared distance is radiusSq must read: the nodes
// whose MINDIST from q is at most radiusSq, and the code rows of such leaves.
func mindistBound(s *Snapshot, q vec.Vector, radiusSq float64) (nodes, codes uint64) {
	var walk func(n *rstar.Node)
	walk = func(n *rstar.Node) {
		r := n.Rect()
		if vec.MinDistSq(q, r.Min, r.Max) > radiusSq {
			return
		}
		nodes++
		if n.IsLeaf() {
			codes += uint64(len(n.Items()))
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	for _, sv := range s.segs {
		if sv.liveLen() > 0 {
			walk(sv.seg.rfs.Tree().Root())
		}
	}
	return nodes, codes
}

// servedShape is the snapshot shape the ingest_mixed workload serves: a
// compacted 8,000-row 37-d SQ8 base built with NodeCapacity 100 (as qdbuild
// -vectors -quantize -dynamic builds one), over 200 clusters of ~40 rows —
// fewer than k = 50 — and the churn its writer runs: near-copies of base rows
// inserted, the oldest deleted once 512 are live.
type servedShape struct {
	rows     []vec.Vector
	inserted []int
}

func newServedShape(tb testing.TB, rng *rand.Rand) (*DB, *servedShape) {
	tb.Helper()
	const base, dim, clusters = 8000, 37, 200
	centers := make([]vec.Vector, clusters)
	for i := range centers {
		centers[i] = randVec(rng, dim)
	}
	sh := &servedShape{rows: make([]vec.Vector, base)}
	ids := make([]int, base)
	backing := make([]float64, 0, base*dim)
	for i := range sh.rows {
		v := centers[rng.Intn(clusters)].Clone()
		for j := range v {
			v[j] += 0.15 * rng.NormFloat64()
		}
		sh.rows[i], ids[i] = v, i
		backing = append(backing, v...)
	}
	cfg := Config{Dim: dim, Quantized: true, NodeCapacity: 100, Seed: 3, DisableAutoCompact: true}
	g, err := buildSegment(context.Background(), cfg.withDefaults(), ids, mustStore(tb, dim, backing))
	if err != nil {
		tb.Fatal(err)
	}
	db, err := Restore(cfg, []SealedInput{{IDs: g.ids, Store: g.st, Structure: g.rfs}}, MemInput{BaseID: base}, base, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return db, sh
}

// churn writes until db holds the base plus small sealed segments and at
// least memRows memtable rows.
func (sh *servedShape) churn(tb testing.TB, db *DB, rng *rand.Rand, small, memRows int) {
	tb.Helper()
	const lag = 512
	for db.Stats().Segments < small+1 || db.Stats().MemRows < memRows {
		v := sh.rows[rng.Intn(len(sh.rows))].Clone()
		for j := range v {
			v[j] += 0.01 * rng.NormFloat64()
		}
		id, err := db.Insert(v)
		if err != nil {
			tb.Fatal(err)
		}
		if sh.inserted = append(sh.inserted, id); len(sh.inserted) > lag {
			if err := db.Delete(sh.inserted[0]); err != nil {
				tb.Fatal(err)
			}
			sh.inserted = sh.inserted[1:]
		}
	}
}

// TestServedShapeForestEffort prices the snapshot k-NN on the served shape
// (servedShape) beside one to four sealed 256-row segments and a memtable. At
// every stage 7-example finalizes run at k = 50, and each of
// their k-NNs is answered twice: by the forest search and by the per-segment
// searches it replaced. The answers must agree. Summed over every k-NN, the
// forest may read no more nodes and code rows than the per-segment searches,
// and no more than 10 % over the MINDIST bound, and score at most 0.6× their
// exact rows (the memtable, scored in both, excluded).
func TestServedShapeForestEffort(t *testing.T) {
	const k, examples = 50, 7
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	db, sh := newServedShape(t, rng)
	defer db.Close()

	var forest, old rstar.SearchStats
	var boundNodes, boundCodes uint64
	knns := 0
	for stage := 1; stage <= 4; stage++ {
		sh.churn(t, db, rng, stage, 40*stage)
		snap := db.Acquire()
		live := snap.LiveIDs(nil)
		for f := 0; f < 12; f++ {
			ex := make([]int, examples)
			for i := range ex {
				ex[i] = live[rng.Intn(len(live))]
			}
			dc, err := snap.decompose(ex, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			fetch := func(ctx context.Context, reqs []core.Request) ([][]Neighbor, error) {
				lists := make([][]Neighbor, len(reqs))
				for i, r := range reqs {
					q := dc.centroids[r.Group]
					got, err := snap.knn(ctx, q, nil, r.Want, &forest)
					if err != nil {
						return nil, err
					}
					sameNeighbors(t, "forest vs per-segment", got, perSegmentKNN(t, snap, q, r.Want, &old))
					radiusSq := math.Inf(1)
					if len(got) == r.Want {
						radiusSq = 0
						for _, n := range got {
							v, _ := snap.VectorOf(n.ID)
							radiusSq = math.Max(radiusSq, vec.SqL2(q, v))
						}
					}
					n, c := mindistBound(snap, q, radiusSq)
					boundNodes += n
					boundCodes += c
					knns++
					lists[i] = got
				}
				return lists, nil
			}
			if _, err := core.FinalRound(ctx, k, dc.subs, fetch, shard.Claim); err != nil {
				t.Fatal(err)
			}
		}
		if st := db.Stats(); st.Segments != stage+1 || st.MemRows == 0 {
			t.Fatalf("stage %d: %d sealed segments and %d memtable rows", stage, st.Segments, st.MemRows)
		}
		snap.Release()
	}
	per := func(n uint64) float64 { return float64(n) / float64(knns) }
	t.Logf("%d snapshot k-NNs; per k-NN: NodesRead %.1f -> %.1f (bound %.1f), CodesScanned %.0f -> %.0f (bound %.0f), ItemsScored %.1f -> %.1f",
		knns, per(old.NodesRead), per(forest.NodesRead), per(boundNodes),
		per(old.CodesScanned), per(forest.CodesScanned), per(boundCodes), per(old.ItemsScored), per(forest.ItemsScored))
	if forest.NodesRead > old.NodesRead || forest.CodesScanned > old.CodesScanned {
		t.Errorf("the forest read more than the per-segment searches: %+v vs %+v", forest, old)
	}
	if float64(forest.NodesRead) > 1.1*float64(boundNodes) || float64(forest.CodesScanned) > 1.1*float64(boundCodes) {
		t.Errorf("the forest read %d nodes and %d code rows, over 10 %% above the MINDIST bound's %d and %d",
			forest.NodesRead, forest.CodesScanned, boundNodes, boundCodes)
	}
	if float64(forest.ItemsScored) > 0.6*float64(old.ItemsScored) {
		t.Errorf("the forest scored %d rows exactly, over 0.6x the per-segment searches' %d", forest.ItemsScored, old.ItemsScored)
	}
}

// BenchmarkServedShapeFinalize is one 7-example finalize at k = 50 on the
// served shape with one and with four sealed 256-row segments beside the
// base and a memtable.
func BenchmarkServedShapeFinalize(b *testing.B) {
	for _, small := range []int{1, 4} {
		b.Run(fmt.Sprintf("segments=%d", small+1), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			db, sh := newServedShape(b, rng)
			defer db.Close()
			sh.churn(b, db, rng, small, 100)
			snap := db.Acquire()
			defer snap.Release()
			live := snap.LiveIDs(nil)
			panels := make([][]int, 64)
			for i := range panels {
				panels[i] = make([]int, 7)
				for j := range panels[i] {
					panels[i][j] = live[rng.Intn(len(live))]
				}
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := snap.QueryByExamplesCtx(ctx, panels[i%len(panels)], 50, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
