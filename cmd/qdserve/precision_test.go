package main

import (
	"context"
	"io"
	"log/slog"
	"path/filepath"
	"testing"

	"qdcbir"
	"qdcbir/internal/dataset"
	"qdcbir/internal/obs"
	"qdcbir/internal/source"
	"qdcbir/internal/store"
)

// TestBuildInfoPrecisionOneVocabulary: a single node, a shard replica and a
// dynamic server over one corpus report the same /v1/buildinfo precision,
// the store's own spelling, at either precision.
func TestBuildInfoPrecisionOneVocabulary(t *testing.T) {
	corpus := dataset.BuildVectors(dataset.SmallSpec(3, 6, 300), 16, 0.05, 4)
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	for _, prec := range []store.Precision{store.Float64, store.Float32} {
		sys, err := qdcbir.BuildFromSource(qdcbir.Config{Seed: 3, NodeCapacity: 20, RepFraction: 0.2},
			source.AtPrecision(source.FromCorpus(corpus), prec))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		db, shard0 := filepath.Join(dir, "db.qd"), filepath.Join(dir, "db.shard0.qd")
		if err := sys.SaveFile(db); err != nil {
			t.Fatal(err)
		}
		archives, err := qdcbir.SliceShards(context.Background(), sys, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := archives[0].WriteFile(shard0); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			name    string
			path    string
			dynamic bool
		}{{"single", db, false}, {"replica", shard0, false}, {"dynamic", db, true}} {
			ld, err := load(mode.path, 0, 1, false, 1, false, mode.dynamic, nil)
			if err != nil {
				t.Fatalf("%v %s: %v", prec, mode.name, err)
			}
			bi := newServer(ld, obs.New(obs.NewRegistry()), discard).BuildInfo()
			if bi.Precision != prec.String() {
				t.Errorf("%v %s: buildinfo precision %q, want %q", prec, mode.name, bi.Precision, prec.String())
			}
			if ld.replica != nil {
				ld.replica.Close()
			}
		}
	}
}
