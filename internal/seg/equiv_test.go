package seg

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"qdcbir/internal/core"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// The segment-merge equivalence suite: a query over (sealed segments +
// memtable − tombstones) must return results bit-identical — exact float64
// equality, no tolerance — to the same query against a from-scratch
// single-segment build of the live set, in every scan mode.

func testConfig(mode string) Config {
	cfg := Config{
		Dim:                8,
		SealThreshold:      40,
		MaxSegments:        3,
		Seed:               7,
		NodeCapacity:       8,
		DisableAutoCompact: true,
	}
	if mode == "sq8" {
		cfg.Quantized = true
	}
	return cfg
}

// newTestDB returns an empty DB for mode: one of float32 rows for "f32" (a
// restore from an empty float32 memtable), of float64 rows otherwise.
func newTestDB(cfg Config, mode string) (*DB, error) {
	if mode != "f32" {
		return New(cfg)
	}
	return Restore(cfg, nil, MemInput{Rows32: []float32{}}, 0, 0)
}

func randVec(rng *rand.Rand, dim int) vec.Vector {
	v := make(vec.Vector, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// populate inserts n vectors (with some exact duplicates to stress
// distance ties) and deletes roughly one in five, hitting sealed segments
// and the memtable alike. Returns the inserted vectors by global ID.
func populate(t *testing.T, db *DB, rng *rand.Rand, n int) map[int]vec.Vector {
	t.Helper()
	byID := make(map[int]vec.Vector, n)
	var all []vec.Vector
	for i := 0; i < n; i++ {
		var v vec.Vector
		if len(all) > 0 && rng.Intn(10) == 0 {
			v = all[rng.Intn(len(all))].Clone() // duplicate row: exact tie
		} else {
			v = randVec(rng, db.cfg.Dim)
		}
		id, err := db.Insert(v)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		byID[id] = v
		all = append(all, v)
	}
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids[:n/5] {
		if err := db.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		delete(byID, id)
	}
	return byID
}

// rebuildRef builds the reference: one sealed segment holding exactly the
// snapshot's live rows under the same global IDs, plus an empty memtable.
func rebuildRef(t *testing.T, cfg Config, snap *Snapshot) *DB {
	t.Helper()
	liveIDs := snap.LiveIDs(nil)
	if len(liveIDs) == 0 {
		t.Fatal("empty live set")
	}
	backing := make([]float64, 0, len(liveIDs)*cfg.Dim)
	for _, id := range liveIDs {
		v, ok := snap.VectorOf(id)
		if !ok {
			t.Fatalf("live id %d has no vector", id)
		}
		backing = append(backing, v...)
	}
	st, err := store.FromBacking(cfg.Dim, backing)
	if snap.db.Precision() == store.Float32 {
		st, err = store.FromBacking32(cfg.Dim, vec.Narrow32(backing, nil)) // exact: the rows are float32
	}
	if err != nil {
		t.Fatal(err)
	}
	g, err := buildSegment(context.Background(), cfg.withDefaults(), liveIDs, st)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	nextID := liveIDs[len(liveIDs)-1] + 1
	ref, err := Restore(cfg, []SealedInput{{
		IDs: g.ids, Store: g.st, Structure: g.rfs,
	}}, MemInput{BaseID: nextID}, nextID, 0)
	if err != nil {
		t.Fatalf("restore rebuilt segment: %v", err)
	}
	return ref
}

func sameNeighbors(t *testing.T, label string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d neighbors, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("%s: neighbor %d: got (%d, %v), want (%d, %v)",
				label, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

func sameResult(t *testing.T, label string, got, want *core.Answer) {
	t.Helper()
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: got %d groups, want %d", label, len(got.Groups), len(want.Groups))
	}
	for gi := range got.Groups {
		g, w := got.Groups[gi], want.Groups[gi]
		if g.RankScore != w.RankScore {
			t.Fatalf("%s: group %d rank score %v != %v", label, gi, g.RankScore, w.RankScore)
		}
		if len(g.QueryIDs) != len(w.QueryIDs) || len(g.Images) != len(w.Images) {
			t.Fatalf("%s: group %d shape mismatch", label, gi)
		}
		for i := range g.QueryIDs {
			if g.QueryIDs[i] != w.QueryIDs[i] {
				t.Fatalf("%s: group %d query id %d: %d != %d", label, gi, i, g.QueryIDs[i], w.QueryIDs[i])
			}
		}
		for i := range g.Images {
			if g.Images[i] != w.Images[i] {
				t.Fatalf("%s: group %d image %d: %+v != %+v", label, gi, i, g.Images[i], w.Images[i])
			}
		}
	}
}

// checkEquivalence queries db's current snapshot and a clean rebuild of its
// live set with random vectors, a few live rows and the probes, and requires
// bit-identical k-NN and finalize answers.
func checkEquivalence(t *testing.T, mode string, db *DB, byID map[int]vec.Vector, rng *rand.Rand, probes ...vec.Vector) {
	t.Helper()
	ctx := context.Background()
	snap := db.Acquire()
	defer snap.Release()
	ref := rebuildRef(t, db.cfg, snap)
	refSnap := ref.Acquire()
	defer refSnap.Release()

	if snap.Live() != refSnap.Live() {
		t.Fatalf("live mismatch: %d vs %d", snap.Live(), refSnap.Live())
	}

	var queries []vec.Vector
	for i := 0; i < 6; i++ {
		queries = append(queries, randVec(rng, db.cfg.Dim))
	}
	for id, v := range byID { // a few corpus rows: distance-zero and tie stress
		queries = append(queries, v.Clone())
		_ = id
		if len(queries) >= 10 {
			break
		}
	}
	queries = append(queries, probes...)
	weights := make(vec.Vector, db.cfg.Dim)
	for i := range weights {
		w := rng.Float64() * 2
		weights[i] = w
	}

	for qi, q := range queries {
		for _, k := range []int{1, 10, 50, snap.Live() + 5} {
			got, err := snap.KNNCtx(ctx, q, k)
			if err != nil {
				t.Fatalf("knn: %v", err)
			}
			want, err := refSnap.KNNCtx(ctx, q, k)
			if err != nil {
				t.Fatalf("ref knn: %v", err)
			}
			sameNeighbors(t, mode+"/knn", got, want)
			if k <= snap.Live() && len(got) != k {
				t.Fatalf("knn returned %d of %d requested with %d live", len(got), k, snap.Live())
			}
			if qi == 0 { // weighted mode once per k
				gotW, err := snap.knn(ctx, q, weights, k, nil)
				if err != nil {
					t.Fatalf("weighted knn: %v", err)
				}
				wantW, err := refSnap.knn(ctx, q, weights, k, nil)
				if err != nil {
					t.Fatalf("ref weighted knn: %v", err)
				}
				sameNeighbors(t, mode+"/knn-weighted", gotW, wantW)
			}
		}
	}

	// Finalize equivalence: example panels of several sizes.
	live := snap.LiveIDs(nil)
	for _, nEx := range []int{1, 3, 8, 17} {
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		examples := append([]int(nil), live[:nEx]...)
		got, err := snap.QueryByExamplesCtx(ctx, examples, 21, nil)
		if err != nil {
			t.Fatalf("finalize: %v", err)
		}
		want, err := refSnap.QueryByExamplesCtx(ctx, examples, 21, nil)
		if err != nil {
			t.Fatalf("ref finalize: %v", err)
		}
		sameResult(t, mode+"/finalize", got, want)

		gotW, err := snap.QueryByExamplesCtx(ctx, examples, 21, weights)
		if err != nil {
			t.Fatalf("weighted finalize: %v", err)
		}
		wantW, err := refSnap.QueryByExamplesCtx(ctx, examples, 21, weights)
		if err != nil {
			t.Fatalf("ref weighted finalize: %v", err)
		}
		sameResult(t, mode+"/finalize-weighted", gotW, wantW)
	}
}

// TestFloat32TakesPrecedenceOverQuantized: a DB configured both Float32 and
// Quantized is a float32 DB. Its sealed segments hold no SQ8 codes, and it
// answers k-NN and finalize bit-identically to a Float32-only DB fed the
// same writes.
func TestFloat32TakesPrecedenceOverQuantized(t *testing.T) {
	both := testConfig("f32")
	both.Quantized = true
	var snaps [2]*Snapshot
	for i, cfg := range []Config{testConfig("f32"), both} {
		db, err := newTestDB(cfg, "f32")
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		rng := rand.New(rand.NewSource(5))
		for n := 0; n < 300; n++ {
			if _, err := db.Insert(randVec(rng, cfg.Dim)); err != nil {
				t.Fatal(err)
			}
		}
		for id := 0; id < 300; id += 5 {
			if err := db.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		snaps[i] = db.Acquire()
		defer snaps[i].Release()
	}
	if len(snaps[1].segs) < 2 {
		t.Fatalf("want multiple sealed segments, got %d", len(snaps[1].segs))
	}
	for si, sv := range snaps[1].segs {
		if tr := sv.seg.rfs.Tree(); tr.QuantizedScoring() || !tr.Float32Scoring() {
			t.Fatalf("segment %d: SQ8 codes %v, float32 mirror %v", si, tr.QuantizedScoring(), tr.Float32Scoring())
		}
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(6))
	for qi := 0; qi < 8; qi++ {
		q := randVec(rng, 8)
		for _, k := range []int{1, 10, 50} {
			want, err := snaps[0].KNNCtx(ctx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := snaps[1].KNNCtx(ctx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			sameNeighbors(t, "knn", got, want)
		}
	}
	examples := []int{1, 2, 3, 7, 11, 42, 101, 251}
	want, err := snaps[0].QueryByExamplesCtx(ctx, examples, 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := snaps[1].QueryByExamplesCtx(ctx, examples, 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "finalize", got, want)
}

func TestSegmentMergeEquivalence(t *testing.T) {
	for _, mode := range []string{"f64", "sq8", "f32"} {
		t.Run(mode, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			db, err := newTestDB(testConfig(mode), mode)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			byID := populate(t, db, rng, 300)
			st := db.Stats()
			if st.Segments < 2 {
				t.Fatalf("want multiple sealed segments, got %d", st.Segments)
			}
			if st.MemRows == 0 {
				t.Fatal("want a non-empty memtable")
			}
			if st.Tombstones == 0 {
				t.Fatal("want tombstones present")
			}
			checkEquivalence(t, mode, db, byID, rng)

			// Compaction must not change any answer: same live set, same
			// results, segments collapsed to one.
			if err := db.Compact(context.Background()); err != nil {
				t.Fatalf("compact: %v", err)
			}
			if got := db.Stats().Segments; got != 1 {
				t.Fatalf("after compact: %d segments, want 1", got)
			}
			checkEquivalence(t, mode+"/compacted", db, byID, rng)

			probe := churnAroundProbe(t, db, byID, rng)
			checkEquivalence(t, mode+"/churned", db, byID, rng, probe)
		})
	}
}

// churnAroundProbe shapes db the way a served corpus under churn looks: one
// compacted segment of at least ten seal thresholds whose tombstones — more
// than the largest k checkEquivalence asks for below the live count — are a
// probe query's own nearest rows, one sealed segment with every row
// tombstoned, and a non-empty memtable. It returns the probe.
func churnAroundProbe(t *testing.T, db *DB, byID map[int]vec.Vector, rng *rand.Rand) vec.Vector {
	t.Helper()
	ctx := context.Background()
	thr := db.cfg.SealThreshold
	insert := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			v := randVec(rng, db.cfg.Dim)
			id, err := db.Insert(v)
			if err != nil {
				t.Fatalf("insert: %v", err)
			}
			byID[id], ids[i] = v, id
		}
		return ids
	}
	del := func(id int) {
		if err := db.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		delete(byID, id)
	}
	snap := db.Acquire()
	// Fill the memtable to its seal, then seal whole memtables until the
	// segments hold ten thresholds: the memtable ends empty.
	insert(thr - snap.mem.live() + (10*thr-snap.Live()+thr-1)/thr*thr)
	snap.Release()
	if err := db.Compact(ctx); err != nil {
		t.Fatalf("compact: %v", err)
	}
	probe := randVec(rng, db.cfg.Dim)
	const probeTombs = 60 // > 50, the largest fixed k
	snap = db.Acquire()
	nearest, err := snap.KNNCtx(ctx, probe, probeTombs)
	snap.Release()
	if err != nil {
		t.Fatalf("probe knn: %v", err)
	}
	for _, nb := range nearest {
		del(nb.ID)
	}
	for _, id := range insert(thr) { // seals one segment, then empties it
		del(id)
	}
	insert(thr / 3)

	snap = db.Acquire()
	defer snap.Release()
	if len(snap.segs) != 2 || snap.mem.live() == 0 {
		t.Fatalf("want two sealed segments and a live memtable, got %d segments and %d memtable rows",
			len(snap.segs), snap.mem.live())
	}
	if big := snap.segs[0]; big.seg.len() < 10*thr || big.nTomb != probeTombs {
		t.Fatalf("compacted segment: %d rows with %d tombstones, want >= %d rows with %d",
			big.seg.len(), big.nTomb, 10*thr, probeTombs)
	}
	if dead := snap.segs[1]; dead.liveLen() != 0 || dead.seg.len() != thr {
		t.Fatalf("dead segment: %d of %d rows live, want 0 of %d", dead.liveLen(), dead.seg.len(), thr)
	}
	return probe
}

// TestSqrtTieMatchesRebuild: two rows at squared distances 1 and 1+2⁻⁵² from
// the query both lie at distance 1 once rooted. A clean rebuild selects by
// squared distance, so at k = 1 it returns the nearer row, not the one with
// the lower ID; the segmented engine must too, whether the two rows sit in
// two sealed segments or in one sealed segment and the memtable. Under the
// float32 scorer the two rows tie outright (1+2⁻⁵² rounds to 1), so there
// both answer the lower ID.
func TestSqrtTieMatchesRebuild(t *testing.T) {
	for _, mode := range []string{"f64", "sq8", "f32"} {
		for _, where := range []string{"sealed+sealed", "sealed+memtable"} {
			t.Run(mode+"/"+where, func(t *testing.T) {
				cfg := testConfig(mode)
				db, err := newTestDB(cfg, mode)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				rng := rand.New(rand.NewSource(11))
				byID := make(map[int]vec.Vector)
				insert := func(v vec.Vector) int {
					id, err := db.Insert(v)
					if err != nil {
						t.Fatal(err)
					}
					byID[id] = v
					return id
				}
				far := func() vec.Vector {
					v := randVec(rng, cfg.Dim)
					for j := range v {
						v[j] += 6
					}
					return v
				}
				origin := make(vec.Vector, cfg.Dim)
				farther := make(vec.Vector, cfg.Dim)
				farther[0], farther[1] = 1, 0x1p-26
				nearer := make(vec.Vector, cfg.Dim)
				nearer[0] = 1
				if a, b := vec.SqL2(origin, farther), vec.SqL2(origin, nearer); a != 1+0x1p-52 || b != 1 || math.Sqrt(a) != math.Sqrt(b) {
					t.Fatalf("squared distances %v and %v do not tie at one square root", a, b)
				}
				fartherID := insert(farther)
				for db.Stats().Segments < 1 {
					insert(far())
				}
				nearerID := insert(nearer)
				if where == "sealed+sealed" {
					for db.Stats().Segments < 2 {
						insert(far())
					}
				}
				for i := 0; i < 5; i++ {
					insert(far())
				}
				st := db.Stats()
				if want := map[string]int{"sealed+sealed": 2, "sealed+memtable": 1}[where]; st.Segments != want || st.MemRows == 0 {
					t.Fatalf("%d sealed segments and %d memtable rows, want %d and some", st.Segments, st.MemRows, want)
				}
				snap := db.Acquire()
				got, err := snap.KNNCtx(context.Background(), origin, 1)
				snap.Release()
				if err != nil {
					t.Fatal(err)
				}
				want := nearerID
				if mode == "f32" {
					want = fartherID
				}
				if len(got) != 1 || got[0].ID != want || got[0].Dist != 1 {
					t.Fatalf("k = 1 at the origin: got %+v, want ID %d at distance 1", got, want)
				}
				checkEquivalence(t, mode+"/"+where, db, byID, rng, origin)
			})
		}
	}
}
