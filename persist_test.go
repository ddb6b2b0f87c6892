package qdcbir

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := smallSystem(t)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Len() != orig.Len() {
		t.Fatalf("len %d != %d", loaded.Len(), orig.Len())
	}
	if loaded.TreeHeight() != orig.TreeHeight() || loaded.RepresentativeCount() != orig.RepresentativeCount() {
		t.Errorf("structure shape changed: h %d/%d reps %d/%d",
			loaded.TreeHeight(), orig.TreeHeight(),
			loaded.RepresentativeCount(), orig.RepresentativeCount())
	}
	// Ground truth survives.
	for i := 0; i < 20; i++ {
		if loaded.SubconceptOf(i) != orig.SubconceptOf(i) {
			t.Fatalf("label %d changed: %q vs %q", i, loaded.SubconceptOf(i), orig.SubconceptOf(i))
		}
	}
	// Retrieval behaviour is identical.
	a, err := orig.KNN(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.KNN(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("kNN diverged at rank %d: %d vs %d", i, a[i].ID, b[i].ID)
		}
	}
	// Sessions replay identically across the reload.
	runIDs := func(s *System) []int {
		sess := s.NewSession(123)
		c := sess.Candidates()
		if err := sess.Feedback([]int{c[0].ID, c[1].ID}); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Finalize(8)
		if err != nil {
			t.Fatal(err)
		}
		return res.IDs()
	}
	x, y := runIDs(orig), runIDs(loaded)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("session replay diverged at %d", i)
		}
	}
	// The extractor survives: external QBE still works after reload.
	if loaded.Corpus().Extractor == nil {
		t.Fatal("extractor lost in round trip")
	}
}

func TestSaveLoadFile(t *testing.T) {
	sys := smallSystem(t)
	path := filepath.Join(t.TempDir(), "sys.gob")
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != sys.Len() {
		t.Fatalf("len %d != %d", loaded.Len(), sys.Len())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestArchiveFormat pins the store-backed wire format: the version-5 magic
// header, the size win over the version-0 encoding of the same system
// (points stored once instead of twice, original channel aliased instead of
// duplicated), and byte-identical retrieval — including simulated I/O
// counts — across the round trip. It uses a channel-bearing corpus so the
// channel dedup path is exercised.
func TestArchiveFormat(t *testing.T) {
	cfg := Config{Seed: 7, Categories: 8, Images: 240, NodeCapacity: 24, RepFraction: 0.2, WithChannels: true}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), archiveHeader(archiveVersionV5)) {
		t.Fatalf("archive does not start with the v5 magic: % x", buf.Bytes()[:8])
	}

	// The version-0 encoding of the same system, for the size comparison.
	legacy := archiveV0{
		Cfg:            sys.cfg,
		Infos:          sys.corpus.Infos,
		RFS:            sys.rfs.Snapshot(),
		ChannelVectors: sys.corpus.ChannelVectors,
	}
	if sys.corpus.Extractor != nil {
		legacy.NormMin, legacy.NormMax = sys.corpus.Extractor.NormalizerBounds()
	}
	var legacyBuf bytes.Buffer
	if err := gob.NewEncoder(&legacyBuf).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	// With four channels the v0 encoding carries six vector tables (snapshot
	// points, tree leaf items, four channels) against v1's four backing
	// arrays, so the expected ratio is about 2/3; channel-less archives drop
	// to about 1/2.
	if ratio := float64(buf.Len()) / float64(legacyBuf.Len()); ratio > 0.70 {
		t.Errorf("v5 archive is %d bytes, %.0f%% of the v0 encoding (%d bytes); want ≤70%%",
			buf.Len(), 100*ratio, legacyBuf.Len())
	}

	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// The loaded original channel aliases the corpus store rather than
	// carrying its own copy.
	lc := loaded.Corpus()
	if &lc.ChannelVectors[0][0][0] != &lc.Vectors[0][0] {
		t.Error("loaded original channel is not an alias of the corpus vectors")
	}

	// Retrieval and simulated I/O are identical across the round trip.
	run := func(s *System) ([]int, Stats) {
		sess := s.NewSession(77)
		c := sess.Candidates()
		if err := sess.Feedback([]int{c[0].ID, c[2].ID, c[4].ID}); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Finalize(25)
		if err != nil {
			t.Fatal(err)
		}
		return res.IDs(), sess.Stats()
	}
	aIDs, aStats := run(sys)
	bIDs, bStats := run(loaded)
	if len(aIDs) != len(bIDs) {
		t.Fatalf("result sizes differ: %d vs %d", len(aIDs), len(bIDs))
	}
	for i := range aIDs {
		if aIDs[i] != bIDs[i] {
			t.Fatalf("round-trip results diverged at rank %d: %d vs %d", i, aIDs[i], bIDs[i])
		}
	}
	if aStats != bStats {
		t.Fatalf("round-trip I/O diverged: %+v vs %+v", aStats, bStats)
	}
}

func TestSaveLoadVectorMode(t *testing.T) {
	cfg := SmallConfig()
	cfg.VectorMode = true
	cfg.Images = 500
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != sys.Len() {
		t.Fatalf("len %d != %d", loaded.Len(), sys.Len())
	}
	// Vector-mode systems have no extractor before or after.
	if loaded.Corpus().Extractor != nil {
		t.Error("vector-mode load grew an extractor")
	}
}
