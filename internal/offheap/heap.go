//go:build !linux && !darwin

package offheap

import "unsafe"

// Mapped reports whether regions live in anonymous mappings, so that Seal
// makes them fault on a write.
const Mapped = false

// alloc backs a region with a heap array of 8-byte words, so that a view of
// any element type at a multiple of its size is aligned.
func alloc(n int) ([]byte, error) {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n), nil
}

func seal([]byte) error { return nil }

func free([]byte) error { return nil }
