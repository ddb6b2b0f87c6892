package seg

// Satellite stress test for the snapshot isolation contract, meant to run
// under `go test -race`: concurrent queries during sustained insert/delete
// traffic with background compaction enabled. Every query must observe a
// consistent epoch — its snapshot's live set never changes mid-query, all
// returned IDs are live in that snapshot — and sampled snapshots must
// answer queries bit-identically to a from-scratch single-segment rebuild
// of that epoch's live set.

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestConcurrentQueriesDuringIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		dim      = 6
		writers  = 1 // the DB serializes writers; one goroutine drives churn
		readers  = 4
		totalOps = 1200
		// compactionWait bounds how long the window stays open after the
		// last write for a compaction to land.
		compactionWait = 30 * time.Second
	)
	db, err := New(Config{Dim: dim, SealThreshold: 32, MaxSegments: 2, Seed: 11, NodeCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Seed corpus so readers have something from the first instant.
	seedRng := rand.New(rand.NewSource(1))
	var liveMu sync.Mutex
	live := make(map[int]bool)
	for i := 0; i < 100; i++ {
		id, err := db.Insert(randVec(seedRng, dim))
		if err != nil {
			t.Fatal(err)
		}
		live[id] = true
	}

	ctx := context.Background()
	var wrote atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, readers+writers)

	wg.Add(1)
	go func() { // writer: sustained inserts and deletes
		defer wg.Done()
		defer stop.Store(true)
		rng := rand.New(rand.NewSource(2))
		for op := 0; op < totalOps; op++ {
			if rng.Intn(4) == 0 {
				liveMu.Lock()
				var victim = -1
				for id := range live {
					victim = id
					break
				}
				if victim >= 0 {
					delete(live, victim)
				}
				liveMu.Unlock()
				if victim >= 0 {
					if err := db.Delete(victim); err != nil {
						errc <- err
						return
					}
				}
			} else {
				id, err := db.Insert(randVec(rng, dim))
				if err != nil {
					errc <- err
					return
				}
				liveMu.Lock()
				live[id] = true
				liveMu.Unlock()
			}
			wrote.Add(1)
		}
		// Background compaction is asynchronous: on a loaded host the
		// writes can finish before the compactor publishes. Hold the stress
		// window open, readers still querying, until one compaction has
		// landed; the bound only stops a compactor that never runs from
		// hanging the test, and the assertion below then fails.
		for deadline := time.Now().Add(compactionWait); db.Stats().Compactions == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				snap := db.Acquire()
				epoch := snap.Epoch()
				liveIDs := snap.LiveIDs(nil)
				if len(liveIDs) != snap.Live() {
					errc <- errInconsistent{epoch, "live count vs LiveIDs"}
					snap.Release()
					return
				}
				isLive := make(map[int]bool, len(liveIDs))
				for _, id := range liveIDs {
					isLive[id] = true
				}
				q := randVec(rng, dim)
				ns, err := snap.KNNCtx(ctx, q, 15)
				if err != nil {
					errc <- err
					snap.Release()
					return
				}
				want := 15
				if len(liveIDs) < want {
					want = len(liveIDs)
				}
				if len(ns) != want {
					errc <- errInconsistent{epoch, "result count"}
					snap.Release()
					return
				}
				for i, n := range ns {
					if !isLive[n.ID] {
						errc <- errInconsistent{epoch, "dead id in results"}
						snap.Release()
						return
					}
					if i > 0 && (ns[i-1].Dist > n.Dist || (ns[i-1].Dist == n.Dist && ns[i-1].ID >= n.ID)) {
						errc <- errInconsistent{epoch, "result order"}
						snap.Release()
						return
					}
				}
				// The snapshot must still be on the same epoch (immutability).
				if snap.Epoch() != epoch {
					errc <- errInconsistent{epoch, "epoch moved"}
					snap.Release()
					return
				}
				snap.Release()
			}
		}(int64(100 + r))
	}

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if db.Stats().Compactions == 0 {
		t.Fatal("compaction never ran during the stress window")
	}

	// Sampled-epoch equivalence: pin the final state and compare against a
	// fresh single-segment rebuild of exactly that live set.
	snap := db.Acquire()
	defer snap.Release()
	ref := rebuildRef(t, db.cfg, snap)
	refSnap := ref.Acquire()
	defer refSnap.Release()
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 10; i++ {
		q := randVec(rng, dim)
		got, err := snap.KNNCtx(ctx, q, 25)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refSnap.KNNCtx(ctx, q, 25)
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, "stress-final", got, want)
	}
}

type errInconsistent struct {
	epoch uint64
	what  string
}

func (e errInconsistent) Error() string {
	return "inconsistent snapshot at epoch " + itoa(e.epoch) + ": " + e.what
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestSnapshotPinnedDuringCompaction pins a snapshot, compacts underneath
// it, and verifies the pinned view still answers from the pre-compaction
// segment set while the current view has moved on.
func TestSnapshotPinnedDuringCompaction(t *testing.T) {
	db, err := New(Config{Dim: 3, SealThreshold: 10, DisableAutoCompact: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 45; i++ {
		if _, err := db.Insert(randVec(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	pin := db.Acquire()
	defer pin.Release()
	segsBefore := pin.Segments()
	if segsBefore < 2 {
		t.Fatalf("want multiple segments, got %d", segsBefore)
	}
	q := randVec(rng, 3)
	before, err := pin.KNNCtx(context.Background(), q, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Delete a row AFTER pinning, then compact: the compactor must carry the
	// delete into the merged segment while the pin still sees the old world.
	if err := db.Delete(before[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	after, err := pin.KNNCtx(context.Background(), q, 12)
	if err != nil {
		t.Fatal(err)
	}
	sameNeighbors(t, "pinned-during-compaction", after, before)
	if pin.Segments() != segsBefore {
		t.Fatal("pinned snapshot's segment set changed")
	}

	now := db.Acquire()
	defer now.Release()
	if now.Segments() != 1 {
		t.Fatalf("current snapshot has %d segments after compaction", now.Segments())
	}
	cur, err := now.KNNCtx(context.Background(), q, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range cur {
		if n.ID == before[0].ID {
			t.Fatal("delete during compaction was lost in the merged segment")
		}
	}
}
