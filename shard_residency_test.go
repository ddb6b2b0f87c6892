//go:build !race

package qdcbir

// The race detector's instrumentation allocates on its own account, so the
// footprint gate below is compiled only without it (CI runs it in the
// allocation-gate step).

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"qdcbir/internal/source"
)

// TestOpenShardResidency gates what a replica costs to open: over a
// 2,000 × 512 float32 corpus sliced three ways, each shard's OpenShard may
// allocate at most 3× its row bytes in total and keep at most 1 MB of Go heap
// live after GC — the topology and the per-row tables — while its rows and
// their SQ8 codes (a byte per component) sit in its mapping outside the heap,
// whose size is exactly theirs.
func TestOpenShardResidency(t *testing.T) {
	const n, dim = 2000, 512
	rng := rand.New(rand.NewSource(9))
	batch := &source.Batch{Dim: dim, Data32: make([]float32, n*dim), Labels: make([]string, n)}
	for i := 0; i < n; i++ {
		c := i % 20
		for d := 0; d < dim; d++ {
			batch.Data32[i*dim+d] = float32(c*d%7) + 0.2*rng.Float32()
		}
		batch.Labels[i] = fmt.Sprintf("c%02d", c)
	}
	sys, err := BuildFromSource(Config{Seed: 3, Float32: true, NodeCapacity: 40, RepFraction: 0.1}, batchSource{batch})
	if err != nil {
		t.Fatal(err)
	}
	archives, err := SliceShards(context.Background(), sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range archives {
		var buf bytes.Buffer
		if err := a.Write(&buf); err != nil {
			t.Fatal(err)
		}
		blob := buf.Bytes()
		rowBytes := float64(a.Meta.LocalImages * dim * 4)
		codeBytes := a.Meta.LocalImages * dim

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, _, err := OpenShard(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocated := float64(after.TotalAlloc - before.TotalAlloc)
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		runtime.KeepAlive(blob) // the archive bytes are the caller's, live throughout
		mapped := rep.MappedBytes()
		if err := rep.Close(); err != nil {
			t.Fatal(err)
		}

		t.Logf("shard %d: %.0f row bytes, allocated %.0f (%.2fx), retained %.0f, mapped %d",
			i, rowBytes, allocated, allocated/rowBytes, retained, mapped)
		if allocated > 3*rowBytes {
			t.Errorf("shard %d: OpenShard allocated %.0f B, gate is 3 x %.0f row bytes", i, allocated, rowBytes)
		}
		if retained > 1<<20 {
			t.Errorf("shard %d: replica retains %.0f B of Go heap, gate is 1 MB", i, retained)
		}
		if want := int(rowBytes) + codeBytes; mapped != want {
			t.Errorf("shard %d: replica maps %d B, want %.0f row bytes + %d code bytes", i, mapped, rowBytes, codeBytes)
		}
	}
}
