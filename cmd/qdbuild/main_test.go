package main

import (
	"bytes"
	"io"
	"log/slog"
	"path/filepath"
	"testing"

	"qdcbir"
)

// roundTrip writes the system the way main does and reads it back the way
// qdserve and qdquery do.
func roundTrip(t *testing.T, sys *qdcbir.System) *qdcbir.System {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.gob")
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := qdcbir.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestBuildArchiveAndRoundTrip(t *testing.T) {
	sys, err := buildSystem(1, 10, 300, 20, 0.2, false, "str", false, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, sys)
	if loaded.Len() != sys.Len() || loaded.Len() == 0 {
		t.Errorf("loaded %d images, built %d", loaded.Len(), sys.Len())
	}
	if got, want := loaded.RepresentativeCount(), sys.RepresentativeCount(); got != want || got == 0 {
		t.Errorf("%d representatives after reload, built %d", got, want)
	}
	if cfg := loaded.Config(); cfg.NodeCapacity != 20 || cfg.RepFraction != 0.2 || cfg.Quantized {
		t.Errorf("build flags did not travel with the archive: %+v", cfg)
	}
}

func TestBuildArchiveVectorMode(t *testing.T) {
	var log bytes.Buffer
	sys, err := buildSystem(2, 10, 400, 20, 0.1, true, "kmeans", false, slog.New(slog.NewTextHandler(&log, nil)))
	if err != nil {
		t.Fatal(err)
	}
	// Spec rounding distributes images per category; the total lands close
	// to but not exactly on the request.
	if n := sys.Len(); n < 350 || n > 400 {
		t.Errorf("built %d images, want ~400", n)
	}
	if !bytes.Contains(log.Bytes(), []byte("system built")) {
		t.Error("progress log missing")
	}
	loaded := roundTrip(t, sys)
	if cfg := loaded.Config(); cfg.Hierarchy != "kmeans" || !cfg.VectorMode {
		t.Errorf("build flags did not travel with the archive: %+v", cfg)
	}
	if loaded.TreeHeight() != sys.TreeHeight() || loaded.RepresentativeCount() != sys.RepresentativeCount() {
		t.Errorf("reloaded hierarchy: height %d, %d representatives; built %d, %d",
			loaded.TreeHeight(), loaded.RepresentativeCount(), sys.TreeHeight(), sys.RepresentativeCount())
	}
}

// TestBuildArchiveQuantized checks -quantize travels with the archive: the
// reader serves SQ8 with no flag of its own, from the persisted codes, and
// answers exactly as an unquantized build of the same corpus does.
func TestBuildArchiveQuantized(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	sys, err := buildSystem(3, 8, 250, 20, 0.2, true, "str", true, log)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Quantized() {
		t.Fatal("quantized build trained no quantizer")
	}
	loaded := roundTrip(t, sys)
	if !loaded.Config().Quantized || !loaded.Quantized() {
		t.Fatalf("reloaded archive is not quantized: %+v", loaded.Config())
	}
	exact, err := buildSystem(3, 8, 250, 20, 0.2, true, "str", false, log)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 100, loaded.Len() - 1} {
		want, err := exact.KNN(id, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.KNN(id, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("result sizes differ: %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("id %d rank %d: quantized archive %+v, exact build %+v", id, i, got[i], want[i])
			}
		}
	}
}
