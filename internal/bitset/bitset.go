// Package bitset provides a minimal dense bitset for tombstone bookkeeping:
// the segmented engine's per-segment tombstone views, which each segment's
// k-NN descent reads as its skip set. A nil *Set reads as empty, so read-mostly
// structures can share one nil pointer until the first delete, and Clone is
// cheap enough for the copy-on-write discipline the snapshot layer uses
// (clone, flip one bit, publish the clone; the original is never mutated
// again).
package bitset

// Set is a growable bitset over non-negative integers.
type Set struct {
	words []uint64
	count int
}

// New returns an empty set pre-sized for indices [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+63)/64)}
}

// Set marks index i and reports whether it was newly set. The set grows as
// needed; i must be non-negative.
func (s *Set) Set(i int) bool {
	w, b := i/64, uint(i%64)
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
	if s.words[w]&(1<<b) != 0 {
		return false
	}
	s.words[w] |= 1 << b
	s.count++
	return true
}

// Get reports whether index i is set. A nil receiver and out-of-range
// indices read as unset.
func (s *Set) Get(i int) bool {
	if s == nil || i < 0 {
		return false
	}
	w := i / 64
	if w >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<(uint(i%64))) != 0
}

// Count returns the number of set indices. Nil-safe.
func (s *Set) Count() int {
	if s == nil {
		return 0
	}
	return s.count
}

// Clone returns an independent copy. Cloning nil returns an empty set, so
// copy-on-write callers never mutate a shared nil.
func (s *Set) Clone() *Set {
	if s == nil {
		return &Set{}
	}
	return &Set{words: append([]uint64(nil), s.words...), count: s.count}
}

// AppendIndices appends the set indices to dst in ascending order. Nil-safe.
func (s *Set) AppendIndices(dst []int) []int {
	if s == nil {
		return dst
	}
	for w, word := range s.words {
		for b := 0; word != 0; b++ {
			if word&1 != 0 {
				dst = append(dst, w*64+b)
			}
			word >>= 1
		}
	}
	return dst
}
