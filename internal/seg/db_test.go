package seg

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"qdcbir/internal/core"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

func TestInsertDeleteSemantics(t *testing.T) {
	db, err := New(Config{Dim: 4, SealThreshold: 10, DisableAutoCompact: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Insert(vec.Vector{1, 2}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := db.Insert(vec.Vector{1, 2, 3, math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := db.Insert(vec.Vector{1, 2, 3, math.Inf(1)}); err == nil {
		t.Fatal("Inf accepted")
	}

	var ids []int
	for i := 0; i < 25; i++ {
		id, err := db.Insert(vec.Vector{float64(i), 0, 0, 0})
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("id %d, want %d", id, i)
		}
		ids = append(ids, id)
	}
	st := db.Stats()
	if st.Segments != 2 || st.MemRows != 5 || st.Live != 25 || st.Seals != 2 {
		t.Fatalf("unexpected stats %+v", st)
	}

	// Delete one sealed row and one memtable row.
	if err := db.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(22); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(3); !errors.Is(err, ErrUnknownImage) {
		t.Fatalf("double delete: %v", err)
	}
	if err := db.Delete(99); !errors.Is(err, ErrUnknownImage) {
		t.Fatalf("unknown delete: %v", err)
	}
	st = db.Stats()
	if st.Live != 23 || st.Tombstones != 2 {
		t.Fatalf("after deletes: %+v", st)
	}

	snap := db.Acquire()
	defer snap.Release()
	if _, ok := snap.VectorOf(3); ok {
		t.Fatal("deleted sealed row still visible")
	}
	if _, ok := snap.VectorOf(22); ok {
		t.Fatal("deleted memtable row still visible")
	}
	if v, ok := snap.VectorOf(7); !ok || v[0] != 7 {
		t.Fatalf("VectorOf(7) = %v, %v", v, ok)
	}
	live := snap.LiveIDs(nil)
	if len(live) != 23 || !sort.IntsAreSorted(live) {
		t.Fatalf("LiveIDs: %v", live)
	}
	for _, id := range live {
		if id == 3 || id == 22 {
			t.Fatalf("tombstoned id %d in live set", id)
		}
	}
	_ = ids
}

func TestEpochsAdvanceAndSnapshotsAreStable(t *testing.T) {
	db, err := New(Config{Dim: 2, SealThreshold: 4, DisableAutoCompact: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var epochs []uint64
	for i := 0; i < 6; i++ {
		if _, err := db.Insert(vec.Vector{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
		probe := db.Acquire()
		epochs = append(epochs, probe.Epoch())
		probe.Release()
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i] <= epochs[i-1] {
			t.Fatalf("epoch not strictly increasing: %v", epochs)
		}
	}

	// A pinned snapshot must not observe later writes.
	pin := db.Acquire()
	liveBefore := pin.Live()
	epochBefore := pin.Epoch()
	for i := 0; i < 10; i++ {
		if _, err := db.Insert(vec.Vector{9, 9}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(0); err != nil {
		t.Fatal(err)
	}
	if pin.Live() != liveBefore || pin.Epoch() != epochBefore {
		t.Fatal("pinned snapshot changed under writes")
	}
	if _, ok := pin.VectorOf(0); !ok {
		t.Fatal("pinned snapshot lost a row deleted after the pin")
	}
	pin.Release()

	now := db.Acquire()
	defer now.Release()
	if _, ok := now.VectorOf(0); ok {
		t.Fatal("current snapshot still shows deleted row")
	}
}

func TestCompactMergesAndDropsTombstones(t *testing.T) {
	db, err := New(Config{Dim: 3, SealThreshold: 8, DisableAutoCompact: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		if _, err := db.Insert(randVec(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{1, 9, 17, 33} {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Stats()
	if before.Segments < 2 {
		t.Fatalf("want multiple segments, got %d", before.Segments)
	}
	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if after.Segments != 1 {
		t.Fatalf("segments after compact: %d", after.Segments)
	}
	if after.Live != before.Live {
		t.Fatalf("live changed: %d -> %d", before.Live, after.Live)
	}
	// Sealed-segment tombstones are gone; only memtable tombstones may remain.
	snap := db.Acquire()
	defer snap.Release()
	segTombs := 0
	for _, sv := range snap.segs {
		segTombs += sv.nTomb
	}
	if segTombs != 0 {
		t.Fatalf("compacted segment retains %d tombstones", segTombs)
	}
	if after.Compactions != 1 {
		t.Fatalf("compactions counter: %d", after.Compactions)
	}
}

func TestAutoCompactKeepsSegmentCountBounded(t *testing.T) {
	db, err := New(Config{Dim: 2, SealThreshold: 5, MaxSegments: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		if _, err := db.Insert(randVec(rng, 2)); err != nil {
			t.Fatal(err)
		}
	}
	db.Close() // waits for any in-flight compaction
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatal("auto-compaction never ran")
	}
	if st.Live != 200 {
		t.Fatalf("live %d, want 200", st.Live)
	}
}

func TestClosedDBRejectsWrites(t *testing.T) {
	db, err := New(Config{Dim: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(vec.Vector{1, 2}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := db.Insert(vec.Vector{1, 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after close: %v", err)
	}
	if err := db.Delete(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("delete after close: %v", err)
	}
	// Readers may still drain.
	snap := db.Acquire()
	if snap.Live() != 1 {
		t.Fatalf("live after close: %d", snap.Live())
	}
	snap.Release()
}

// mustStore adopts a float64 backing of rows of dim as a store.
func mustStore(tb testing.TB, dim int, backing []float64) *store.FeatureStore {
	tb.Helper()
	st, err := store.FromBacking(dim, backing)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

func TestRestoreValidation(t *testing.T) {
	cfg := Config{Dim: 2, Seed: 1}
	if _, err := Restore(cfg, nil, MemInput{Rows: []float64{1}}, 0, 0); err == nil {
		t.Fatal("ragged memtable backing accepted")
	}
	if _, err := Restore(cfg, nil, MemInput{Rows32: []float32{1}}, 0, 0); err == nil {
		t.Fatal("ragged float32 memtable backing accepted")
	}
	if _, err := Restore(cfg, nil, MemInput{Rows: []float64{1, 2}, Tombstoned: []int{5}}, 0, 0); err == nil {
		t.Fatal("out-of-range memtable tombstone accepted")
	}
	var mixed []SealedInput
	for _, mode := range []string{"f64", "f32"} {
		db, err := newTestDB(Config{Dim: 2, Seed: 1, SealThreshold: 4, DisableAutoCompact: true}, mode)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for i := 0; i < 4; i++ {
			if _, err := db.Insert(vec.Vector{float64(i), 1}); err != nil {
				t.Fatal(err)
			}
		}
		snap := db.Acquire()
		defer snap.Release()
		mixed = append(mixed, snap.SealedInputs()...)
	}
	if len(mixed) != 2 {
		t.Fatalf("%d sealed segments, want one of each precision", len(mixed))
	}
	if _, err := Restore(cfg, mixed, MemInput{BaseID: 8}, 9, 0); err == nil || !strings.Contains(err.Error(), "f32 rows") {
		t.Fatalf("float64 and float32 segments restored together: %v", err)
	}
	if _, err := Restore(cfg, []SealedInput{{}}, MemInput{}, 0, 0); err == nil {
		t.Fatal("incomplete segment accepted")
	}

	// Round-trip: a populated DB's state restores to identical query results.
	db, err := New(Config{Dim: 2, SealThreshold: 6, DisableAutoCompact: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		if _, err := db.Insert(randVec(rng, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(19); err != nil {
		t.Fatal(err)
	}
	snap := db.Acquire()
	defer snap.Release()
	var sealed []SealedInput
	for _, sv := range snap.segs {
		var tombs []int
		for _, local := range sv.tomb.AppendIndices(nil) {
			tombs = append(tombs, sv.seg.ids[local])
		}
		sealed = append(sealed, SealedInput{
			IDs: sv.seg.ids, Store: sv.seg.st, Structure: sv.seg.rfs,
			Tombstoned: tombs,
		})
	}
	memTombs := snap.mem.tomb.AppendIndices(nil)
	memRows := append([]float64(nil), snap.mem.data[:snap.mem.rows*2]...)
	re, err := Restore(db.cfg, sealed, MemInput{BaseID: snap.mem.baseID, Rows: memRows, Tombstoned: memTombs}, db.nextID, snap.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	reSnap := re.Acquire()
	defer reSnap.Release()
	if reSnap.Live() != snap.Live() || reSnap.Epoch() != snap.Epoch() {
		t.Fatalf("restore shape: live %d/%d epoch %d/%d", reSnap.Live(), snap.Live(), reSnap.Epoch(), snap.Epoch())
	}
	q := randVec(rng, 2)
	a, err := snap.KNNCtx(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reSnap.KNNCtx(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameNeighbors(t, "restore", b, a)
}

func TestSessionFeedbackLoop(t *testing.T) {
	db, err := New(Config{Dim: 4, SealThreshold: 30, DisableAutoCompact: true, Seed: 6, NodeCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 150; i++ {
		if _, err := db.Insert(randVec(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(5); err != nil {
		t.Fatal(err)
	}

	snap := db.Acquire()
	defer snap.Release()
	s := core.NewMachine(snap.Forest(), rand.New(rand.NewSource(1)), 21)
	cands := s.Candidates()
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		if c.ID == 5 {
			t.Fatal("tombstoned image displayed")
		}
	}
	marked := []int{cands[0].ID, cands[len(cands)-1].ID}
	if err := s.Feedback(marked); err != nil {
		t.Fatal(err)
	}
	if err := s.Feedback([]int{999999}); err == nil {
		t.Fatal("undisplayed image accepted")
	}
	// More rounds localize further; then finalize.
	for round := 0; round < 3; round++ {
		cs := s.Candidates()
		if len(cs) == 0 {
			break
		}
		if err := s.Feedback([]int{cs[0].ID}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := snap.FinalizeSession(context.Background(), s, 21)
	if err != nil {
		t.Fatal(err)
	}
	ids := res.IDs()
	if len(ids) != 21 {
		t.Fatalf("finalize returned %d ids", len(ids))
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate result %d", id)
		}
		seen[id] = true
		if id == 5 {
			t.Fatal("tombstoned image in results")
		}
	}
	if _, err := snap.FinalizeSession(context.Background(), s, 21); !errors.Is(err, core.ErrFinalized) {
		t.Fatalf("second finalize: %v", err)
	}
	if err := s.Feedback(marked); !errors.Is(err, core.ErrFinalized) {
		t.Fatalf("feedback after finalize: %v", err)
	}
}
