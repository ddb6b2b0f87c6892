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
// allocate at most 3× its row bytes in total and keep at most its row bytes,
// its SQ8 code bytes and 1 MB live after GC — the rows once, the codes the
// filter reads (a byte per component), plus topology and ID maps.
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
		codeBytes := float64(a.Meta.LocalImages * dim)

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
		runtime.KeepAlive(rep)
		runtime.KeepAlive(blob) // the archive bytes are the caller's, live throughout

		t.Logf("shard %d: %.0f row bytes, allocated %.0f (%.2fx), retained %.0f (%.2fx)",
			i, rowBytes, allocated, allocated/rowBytes, retained, retained/rowBytes)
		if allocated > 3*rowBytes {
			t.Errorf("shard %d: OpenShard allocated %.0f B, gate is 3 x %.0f row bytes", i, allocated, rowBytes)
		}
		if retained > rowBytes+codeBytes+(1<<20) {
			t.Errorf("shard %d: replica retains %.0f B, gate is %.0f row bytes + %.0f code bytes + 1 MB", i, retained, rowBytes, codeBytes)
		}
	}
}
