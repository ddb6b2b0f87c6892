//go:build linux || darwin

package offheap

import "syscall"

// Mapped reports whether regions live in anonymous mappings, so that Seal
// makes them fault on a write.
const Mapped = true

func alloc(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func seal(buf []byte) error { return syscall.Mprotect(buf, syscall.PROT_READ) }

func free(buf []byte) error { return syscall.Munmap(buf) }
