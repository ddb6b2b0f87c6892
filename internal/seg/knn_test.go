package seg

import (
	"context"
	"math/rand"
	"testing"

	"qdcbir/internal/bitset"
	"qdcbir/internal/rstar"
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
	ns, err := tree.KNNOne(context.Background(), tree.Root(), nil, q, kk, nil, st)
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

// TestSegmentSearchSkipsTombstones prices the segment search on a churned
// SQ8 segment shaped like a served corpus after a compaction: 8,000 clustered
// 37-d base rows plus 512 near-copies written since, the oldest 339 of which
// are deleted again. Per query at k = 50, searchSegment must return exactly
// min(k, live) live rows — it truncates nothing, so its descent asked for k —
// equal to the old k + nTomb over-request's answer, and its descent must read
// no more nodes, code rows or exact rows than the over-request's. A segment
// whose rows are all tombstoned answers nothing.
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
	g, err := buildSegment(context.Background(), cfg, ids, backing)
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

	snap := new(Snapshot)
	var skipSt, overSt rstar.SearchStats
	const searches = 200
	for qi := 0; qi < searches; qi++ {
		q := rows[rng.Intn(len(rows))].Clone()
		for j := range q {
			q[j] += 0.05 * rng.NormFloat64()
		}
		got, err := snap.searchSegment(context.Background(), sv, q, nil, k)
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
		var st, ost rstar.SearchStats
		tree := g.rfs.Tree()
		qs := [1]rstar.Query{{Q: q, K: k, Skip: sv.tomb, Stats: &st}}
		if err := tree.KNNSearch(context.Background(), tree.Root(), nil, qs[:]); err != nil {
			t.Fatal(err)
		}
		if len(qs[0].Result) != k {
			t.Fatalf("q%d: the skip descent returned %d rows, want %d", qi, len(qs[0].Result), k)
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
	if got, err := snap.searchSegment(context.Background(), dead, rows[0], nil, k); err != nil || got != nil {
		t.Fatalf("all-tombstoned segment: %d rows, err=%v", len(got), err)
	}
}
