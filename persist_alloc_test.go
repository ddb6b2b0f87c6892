//go:build !race

package qdcbir

// The race detector's instrumentation allocates on its own account, so the
// gates below are compiled only without it (CI runs them in the
// allocation-gate step).

import (
	"io"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// paperVectorSystem builds a vector-mode system shaped like what
// qdbuild -vectors -images n -categories n/100 builds.
func paperVectorSystem(t testing.TB, n int) *System {
	t.Helper()
	sys, err := Build(Config{Seed: 1, Categories: n / 100, Images: n, NodeCapacity: 100, RepFraction: 0.05, VectorMode: true})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// countingDiscard counts what Save writes.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// TestSaveAllocs gates what Save builds in memory: the rows are written
// from their backing array, so at 15k and 60k rows Save allocates under an
// eighth of the bytes it writes (a gob encoder assembled the whole message
// first, allocating more than all of it).
func TestSaveAllocs(t *testing.T) {
	sizes := []int{15000, 60000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		sys := paperVectorSystem(t, n)
		var w countingDiscard
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := sys.Save(&w); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d rows: wrote %d B, allocated %d B (%.3f) in %d mallocs",
			n, w.n, alloc, float64(alloc)/float64(w.n), after.Mallocs-before.Mallocs)
		if 8*int64(alloc) >= w.n {
			t.Errorf("%d rows: Save allocated %d B for %d written, gate is 1/8", n, alloc, w.n)
		}
		if err := sys.Save(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadFileAllocs gates LoadFile of the paper-scale 15k × 37 archive:
// the file is read into one buffer that the rows alias, the labels come
// from a string table, and the topology decodes into shared arrays, so the
// whole load makes fewer mallocs than half the rows (a gob decoder made
// ~38k).
func TestLoadFileAllocs(t *testing.T) {
	const n = 15000
	path := filepath.Join(t.TempDir(), "db.qd")
	if err := paperVectorSystem(t, n).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	sys, err := LoadFile(path)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("LoadFile: %d mallocs, %d B allocated, %v", mallocs, after.TotalAlloc-before.TotalAlloc, elapsed)
	if mallocs >= n/2 {
		t.Errorf("LoadFile made %d mallocs for %d rows, gate is rows/2", mallocs, n)
	}
	runtime.KeepAlive(sys)
}
