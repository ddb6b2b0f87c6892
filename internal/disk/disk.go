// Package disk simulates the paged storage layer underneath the RFS
// structure so the system can reproduce the paper's I/O-cost analysis
// (§5.2.2: relevance feedback touches one tree node per marked representative;
// each localized k-NN usually costs a single node access).
//
// Tree nodes register as pages; every traversal that "reads" a node reports
// it through an Accounter. The default Counter tallies raw accesses; the LRU
// cache variant models a buffer pool, so experiments can report both cold and
// warm I/O counts; Visited is the buffer pool that never evicts, which is
// what one query session sees.
//
// Concurrency: Counter (atomic) and Nop are safe for concurrent use, so
// independent goroutines may share one while traversing the read-only tree.
// LRUCache and Visited are NOT goroutine-safe — an LRU's hit/miss ratio is
// inherently order-dependent, so sharing it across goroutines would make the
// simulated I/O counts nondeterministic even with locking. Parallel phases
// instead give each goroutine a private Recorder and Replay the traces into
// the real accounter in a deterministic order afterwards; counts then match
// the serial execution exactly.
package disk

import (
	"container/list"
	"sync/atomic"
)

// PageID identifies one page (one tree node) in the simulated store.
type PageID uint64

// Accounter observes page reads. Implementations must be cheap: the R*-tree
// calls Access on every node it touches.
type Accounter interface {
	// Access records a read of the given page and reports whether it was
	// served from cache (true) or required a simulated disk read (false).
	Access(PageID) bool
	// Reads returns the cumulative number of simulated disk reads.
	Reads() uint64
	// Accesses returns the cumulative number of page accesses (hits+misses).
	Accesses() uint64
	// Reset zeroes all counters (and any cache state).
	Reset()
}

// Counter is the cache-less Accounter: every access is a disk read. The
// zero value is ready to use. Counting is atomic, so one Counter may be
// shared by any number of goroutines; the total is exact regardless of
// interleaving.
type Counter struct {
	reads atomic.Uint64
}

// Access records one disk read.
func (c *Counter) Access(PageID) bool {
	c.reads.Add(1)
	return false
}

// Reads returns the number of recorded reads.
func (c *Counter) Reads() uint64 { return c.reads.Load() }

// Accesses equals Reads for the cache-less counter.
func (c *Counter) Accesses() uint64 { return c.reads.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.reads.Store(0) }

// LRUCache is an Accounter backed by an LRU page cache of fixed capacity.
type LRUCache struct {
	capacity int
	order    *list.List // front = most recently used; values are PageID
	index    map[PageID]*list.Element
	reads    uint64
	accesses uint64
}

// NewLRUCache returns an LRU-backed accounter holding up to capacity pages.
// A capacity of 0 degenerates to the cache-less Counter behaviour.
func NewLRUCache(capacity int) *LRUCache {
	if capacity < 0 {
		capacity = 0
	}
	return &LRUCache{
		capacity: capacity,
		order:    list.New(),
		index:    make(map[PageID]*list.Element, capacity),
	}
}

// Access looks the page up in the cache, faulting it in on a miss and
// evicting the least recently used page if the cache is full.
func (c *LRUCache) Access(p PageID) bool {
	c.accesses++
	if el, ok := c.index[p]; ok {
		c.order.MoveToFront(el)
		return true
	}
	c.reads++
	if c.capacity == 0 {
		return false
	}
	if c.order.Len() >= c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.index, back.Value.(PageID))
	}
	c.index[p] = c.order.PushFront(p)
	return false
}

// Reads returns the number of cache misses (simulated disk reads).
func (c *LRUCache) Reads() uint64 { return c.reads }

// Accesses returns hits plus misses.
func (c *LRUCache) Accesses() uint64 { return c.accesses }

// HitRate returns the fraction of accesses served from cache, or 0 when no
// accesses have occurred.
func (c *LRUCache) HitRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.accesses-c.reads) / float64(c.accesses)
}

// Reset clears counters and evicts every cached page.
func (c *LRUCache) Reset() {
	c.reads, c.accesses = 0, 0
	c.order.Init()
	c.index = make(map[PageID]*list.Element, c.capacity)
}

// Visited is the Accounter of one query session: a buffer pool large enough
// that nothing is ever evicted, so a page costs one read the first time it is
// touched and none afterwards (§5.2.2 counts one read per distinct node). It
// is the set of pages seen and nothing else — it starts empty and grows with
// what the session touches, where an LRUCache pays a list node per page and
// bookkeeping per access. The zero value is ready to use.
type Visited struct {
	seen     map[PageID]struct{}
	accesses uint64
}

// Access records the page, reporting whether it had been touched before.
func (v *Visited) Access(p PageID) bool {
	v.accesses++
	if _, ok := v.seen[p]; ok {
		return true
	}
	if v.seen == nil {
		v.seen = make(map[PageID]struct{})
	}
	v.seen[p] = struct{}{}
	return false
}

// Reads returns the number of distinct pages touched.
func (v *Visited) Reads() uint64 { return uint64(len(v.seen)) }

// Accesses returns every Access call, first touches and repeats alike.
func (v *Visited) Accesses() uint64 { return v.accesses }

// Reset forgets every page and zeroes the counters.
func (v *Visited) Reset() {
	clear(v.seen)
	v.accesses = 0
}

// Recorder is an Accounter that captures the ordered page-access trace of
// one goroutine's traversal so it can later be replayed into a stateful
// accounter (e.g. an LRUCache) in a deterministic order. This is how the
// parallel localized-subquery phase keeps §5.2.2 I/O counts byte-identical
// to the serial execution: each subquery records privately, then the traces
// are replayed in the fixed subquery order. The zero value is ready to use;
// a Recorder must not itself be shared across goroutines.
type Recorder struct {
	trace []PageID
}

// Access appends the page to the trace. The access is reported as a miss so
// pruning behaviour in traversals matches the cache-less counter.
func (r *Recorder) Access(p PageID) bool {
	r.trace = append(r.trace, p)
	return false
}

// Reads returns the number of recorded accesses.
func (r *Recorder) Reads() uint64 { return uint64(len(r.trace)) }

// Accesses equals Reads for a recorder.
func (r *Recorder) Accesses() uint64 { return uint64(len(r.trace)) }

// Reset discards the trace.
func (r *Recorder) Reset() { r.trace = r.trace[:0] }

// Replay feeds the recorded trace, in order, into acc. A nil acc is a no-op.
func (r *Recorder) Replay(acc Accounter) {
	if acc == nil {
		return
	}
	for _, p := range r.trace {
		acc.Access(p)
	}
}

// Trace returns the recorded page sequence (shared; do not modify).
func (r *Recorder) Trace() []PageID { return r.trace }

// Nop is an Accounter that records nothing; used where I/O accounting is
// irrelevant (e.g. unit tests of unrelated behaviour).
type Nop struct{}

// Access does nothing and reports a cache hit so callers never count it.
func (Nop) Access(PageID) bool { return true }

// Reads always returns 0.
func (Nop) Reads() uint64 { return 0 }

// Accesses always returns 0.
func (Nop) Accesses() uint64 { return 0 }

// Reset does nothing.
func (Nop) Reset() {}
