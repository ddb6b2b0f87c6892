package disk

import (
	"math/rand"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Reads() != 0 || c.Accesses() != 0 {
		t.Fatal("zero value not zeroed")
	}
	for i := 0; i < 5; i++ {
		if hit := c.Access(PageID(i % 2)); hit {
			t.Error("Counter reported a cache hit")
		}
	}
	if c.Reads() != 5 || c.Accesses() != 5 {
		t.Errorf("reads=%d accesses=%d", c.Reads(), c.Accesses())
	}
	c.Reset()
	if c.Reads() != 0 {
		t.Error("Reset failed")
	}
}

func TestLRUCacheHitsAndMisses(t *testing.T) {
	c := NewLRUCache(2)
	if hit := c.Access(1); hit {
		t.Error("first access hit")
	}
	if hit := c.Access(1); !hit {
		t.Error("second access missed")
	}
	c.Access(2) // miss, cache = {1,2}
	c.Access(3) // miss, evicts 1, cache = {2,3}
	if hit := c.Access(1); hit {
		t.Error("evicted page still cached")
	}
	if c.Reads() != 4 {
		t.Errorf("reads = %d, want 4", c.Reads())
	}
	if c.Accesses() != 5 {
		t.Errorf("accesses = %d, want 5", c.Accesses())
	}
	if got := c.HitRate(); got != 0.2 {
		t.Errorf("hit rate = %v, want 0.2", got)
	}
}

func TestLRUEvictionOrderIsRecency(t *testing.T) {
	c := NewLRUCache(2)
	c.Access(1)
	c.Access(2)
	c.Access(1) // 1 becomes most recent; 2 is LRU
	c.Access(3) // must evict 2, not 1
	if hit := c.Access(1); !hit {
		t.Error("recently used page evicted")
	}
	if hit := c.Access(2); hit {
		t.Error("LRU page not evicted")
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := NewLRUCache(0)
	for i := 0; i < 3; i++ {
		if hit := c.Access(7); hit {
			t.Error("zero-capacity cache hit")
		}
	}
	if c.Reads() != 3 {
		t.Errorf("reads = %d", c.Reads())
	}
	// Negative capacity clamps to zero rather than panicking.
	n := NewLRUCache(-5)
	if hit := n.Access(1); hit {
		t.Error("negative-capacity cache hit")
	}
}

func TestLRUReset(t *testing.T) {
	c := NewLRUCache(4)
	c.Access(1)
	c.Access(2)
	c.Reset()
	if c.Reads() != 0 || c.Accesses() != 0 {
		t.Error("counters survived Reset")
	}
	if hit := c.Access(1); hit {
		t.Error("cache contents survived Reset")
	}
}

func TestLRUHitRateEmptyIsZero(t *testing.T) {
	if NewLRUCache(2).HitRate() != 0 {
		t.Error("empty hit rate nonzero")
	}
}

func TestNop(t *testing.T) {
	var n Nop
	if !n.Access(1) {
		t.Error("Nop.Access should report hit")
	}
	if n.Reads() != 0 || n.Accesses() != 0 {
		t.Error("Nop counted something")
	}
	n.Reset() // must not panic
}

func TestAccounterInterfaceSatisfaction(t *testing.T) {
	var _ Accounter = (*Counter)(nil)
	var _ Accounter = (*LRUCache)(nil)
	var _ Accounter = (*Visited)(nil)
	var _ Accounter = Nop{}
}

func TestLRULargeWorkloadConsistency(t *testing.T) {
	c := NewLRUCache(16)
	// Cyclic access over 32 pages with capacity 16: every access misses.
	for round := 0; round < 4; round++ {
		for p := 0; p < 32; p++ {
			c.Access(PageID(p))
		}
	}
	if c.Reads() != c.Accesses() {
		t.Errorf("cyclic thrash should never hit: reads=%d accesses=%d", c.Reads(), c.Accesses())
	}
	// Hot loop over 8 pages fits: only the first touch of each page misses.
	c.Reset()
	for round := 0; round < 10; round++ {
		for p := 0; p < 8; p++ {
			c.Access(PageID(p))
		}
	}
	if c.Reads() != 8 {
		t.Errorf("hot loop reads = %d, want 8", c.Reads())
	}
}

// TestVisitedMatchesUnevictingLRU: a Visited is an LRU cache that never
// fills — same hit/miss answer on every access, same Reads and Accesses.
func TestVisitedMatchesUnevictingLRU(t *testing.T) {
	var v Visited
	if v.Reads() != 0 || v.Accesses() != 0 {
		t.Fatal("zero value not zeroed")
	}
	v.Reset() // on the zero value: must not panic
	lru := NewLRUCache(1 << 10)
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 2; round++ {
		for i := 0; i < 2000; i++ {
			p := PageID(rng.Intn(300))
			if got, want := v.Access(p), lru.Access(p); got != want {
				t.Fatalf("round %d access %d of page %d: hit=%v, LRU says %v", round, i, p, got, want)
			}
		}
		if v.Reads() != lru.Reads() || v.Accesses() != lru.Accesses() {
			t.Fatalf("round %d: visited %d/%d, LRU %d/%d", round, v.Reads(), v.Accesses(), lru.Reads(), lru.Accesses())
		}
		v.Reset()
		lru.Reset()
		if v.Reads() != 0 || v.Accesses() != 0 {
			t.Fatal("Reset left counts behind")
		}
	}
}

func TestRecorderReplay(t *testing.T) {
	var r Recorder
	for _, p := range []PageID{1, 2, 1, 3} {
		if r.Access(p) {
			t.Error("recorder must report misses")
		}
	}
	if r.Reads() != 4 || r.Accesses() != 4 {
		t.Errorf("reads=%d accesses=%d", r.Reads(), r.Accesses())
	}
	// Replaying into an LRU cache must be equivalent to accessing it directly.
	direct := NewLRUCache(8)
	for _, p := range []PageID{1, 2, 1, 3} {
		direct.Access(p)
	}
	replayed := NewLRUCache(8)
	r.Replay(replayed)
	if direct.Reads() != replayed.Reads() || direct.Accesses() != replayed.Accesses() {
		t.Errorf("replay diverged: direct %d/%d, replayed %d/%d",
			direct.Reads(), direct.Accesses(), replayed.Reads(), replayed.Accesses())
	}
	r.Replay(nil) // must not panic
	r.Reset()
	if r.Reads() != 0 || len(r.Trace()) != 0 {
		t.Error("reset did not clear the trace")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Access(PageID(i))
			}
		}()
	}
	wg.Wait()
	if c.Reads() != workers*each {
		t.Errorf("reads = %d, want %d", c.Reads(), workers*each)
	}
}
