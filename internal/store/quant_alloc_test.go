//go:build !race

package store

// The race detector's instrumentation allocates on its own account, so the
// allocation gate below is compiled only without it (CI runs it in the
// allocation-gate step).

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestQuantizeBacking32Allocs gates what SQ8 training over float32 rows
// allocates: the codes and O(dim) bounds, never a widened copy of the rows
// (which at 2,000 × 512 would be 8 MB beside 1 MB of codes).
func TestQuantizeBacking32Allocs(t *testing.T) {
	const n, dim = 2000, 512
	data := randBacking32(rand.New(rand.NewSource(4)), n*dim)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	qz, err := QuantizeBacking32(dim, data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	limit := uint64(qz.Bytes() + 64*dim + 4096)
	t.Logf("%d code bytes, allocated %d", qz.Bytes(), allocated)
	if allocated > limit {
		t.Errorf("QuantizeBacking32 allocated %d B, gate is %d (codes + O(dim))", allocated, limit)
	}
}
