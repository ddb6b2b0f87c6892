// Package offheap holds large immutable arrays outside the Go heap: one
// anonymous memory mapping per Region, filled once, then sealed read-only.
// The garbage collector neither scans nor counts such memory, so a process
// whose bulk is a few sealed arrays paces its collections against the rest.
//
// Ownership is explicit. A Region is unmapped only by Free, never by a
// finalizer, and a slice viewing it must not be used after Free: the memory
// is gone, and a read faults. On platforms without mmap and mprotect
// (everything but Linux and macOS) a Region is an ordinary heap array and
// Seal changes nothing.
package offheap

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Region is one block of memory outside the Go heap (or, where Mapped is
// false, one heap array). Its methods are not safe for concurrent use with
// each other; slices over a sealed region may be read concurrently.
type Region struct {
	buf []byte
}

// live counts regions allocated and not yet freed.
var live atomic.Int64

// Live returns the number of regions allocated and not yet freed.
func Live() int { return int(live.Load()) }

// Alloc returns a zeroed, writable region of n bytes.
func Alloc(n int) (*Region, error) {
	if n <= 0 {
		return nil, fmt.Errorf("offheap: region of %d bytes", n)
	}
	buf, err := alloc(n)
	if err != nil {
		return nil, fmt.Errorf("offheap: allocate %d bytes: %w", n, err)
	}
	live.Add(1)
	return &Region{buf: buf}, nil
}

// Len returns the region's size in bytes (0 once freed).
func (r *Region) Len() int { return len(r.buf) }

// Seal makes the region read-only: where Mapped is true, a later store into
// it faults.
func (r *Region) Seal() error {
	if err := seal(r.buf); err != nil {
		return fmt.Errorf("offheap: seal %d bytes: %w", len(r.buf), err)
	}
	return nil
}

// Free releases the region. Every slice over it is dead from here on. Free
// is idempotent and accepts a nil region.
func (r *Region) Free() error {
	if r == nil || r.buf == nil {
		return nil
	}
	buf := r.buf
	r.buf = nil
	live.Add(-1)
	return free(buf)
}

// View returns the n elements of type T starting at byte offset off, which
// must be a multiple of T's size. The region's base is page-aligned (or, on
// the heap fallback, aligned for any element type), so such a view is
// aligned. Where Mapped is true, writes through the view fault once the
// region is sealed.
func View[T float32 | float64 | uint8](r *Region, off, n int) []T {
	size := int(unsafe.Sizeof(T(0)))
	if off < 0 || n < 0 || off%size != 0 || off+n*size > len(r.buf) {
		panic(fmt.Sprintf("offheap: view of %d %d-byte elements at %d in a %d-byte region", n, size, off, len(r.buf)))
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&r.buf[off])), n)
}
