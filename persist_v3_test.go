package qdcbir

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qdcbir/internal/source"
	"qdcbir/internal/store"
)

// fvecsFixture renders a deterministic clustered embedding set in the .fvecs
// wire format: n vectors of dim float32s around five well-separated centers.
func fvecsFixture(n, dim int) []byte {
	rng := rand.New(rand.NewSource(99))
	buf := make([]byte, 0, n*(4+4*dim))
	var b [4]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(b[:], uint32(int32(dim)))
		buf = append(buf, b[:]...)
		center := float64(i % 5)
		for j := 0; j < dim; j++ {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(float32(center+rng.NormFloat64()*0.1)))
			buf = append(buf, b[:]...)
		}
	}
	return buf
}

// importedF32System builds a system of float32 rows over the deterministic .fvecs
// fixture through the public import path (file → source → BuildFromSource).
func importedF32System(t testing.TB, n, dim int) *System {
	t.Helper()
	path := filepath.Join(t.TempDir(), "emb.fvecs")
	if err := os.WriteFile(path, fvecsFixture(n, dim), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := source.File(path, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 3, NodeCapacity: 16, RepFraction: 0.2}
	sys, err := BuildFromSource(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestBuildFromSourceFVecs(t *testing.T) {
	sys := importedF32System(t, 300, 12)
	if sys.Len() != 300 {
		t.Fatalf("imported %d vectors, want 300", sys.Len())
	}
	if got := sys.Corpus().Store().Precision(); got != store.Float32 {
		t.Fatalf("store precision %v, want Float32", got)
	}
	if !sys.Config().VectorMode || sys.Config().Images != 300 {
		t.Fatalf("config not rewritten for the import: %+v", sys.Config())
	}
	res, err := sys.KNN(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 || res[0].ID != 5 || res[0].Score != 0 {
		t.Fatalf("self-query: %+v", res[:2])
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score < res[i-1].Score {
			t.Fatalf("scores not ascending at rank %d", i)
		}
	}
	// A full feedback session runs over the imported geometry.
	sess := sys.NewSession(7)
	c := sess.Candidates()
	if err := sess.Feedback([]int{c[0].ID, c[1].ID}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Finalize(20); err != nil {
		t.Fatal(err)
	}
}

// TestArchiveV3Float32RoundTrip pins the float32 wire format (introduced
// by version 3, kept by version 5): the archive carries the native float32
// rows (and no float64 table), the precision tag survives, and retrieval is
// bit-identical across the round trip.
func TestArchiveV3Float32RoundTrip(t *testing.T) {
	sys := importedF32System(t, 250, 9)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f, m := openV5(t, buf.Bytes())
	if m.Precision != "f32" {
		t.Fatalf("persisted precision %q, want f32", m.Precision)
	}
	if rows, err := f.Bytes(secRows); err != nil || len(rows) != 250*9*4 {
		t.Fatalf("rows section holds %d bytes (%v), want %d float32 values", len(rows), err, 250*9)
	}

	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Corpus().Store().Precision(); got != store.Float32 {
		t.Fatalf("loaded store precision %v, want Float32", got)
	}
	orig, err := sys.KNN(17, 25)
	if err != nil {
		t.Fatal(err)
	}
	back, err := loaded.KNN(17, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatal("float32 retrieval diverged across the round trip")
	}
}

// TestV2UpgradeOnSave: loading a version-2 archive and saving it again must
// produce a version-5 archive that answers identically — the upgrade is a
// pure re-encoding.
func TestV2UpgradeOnSave(t *testing.T) {
	sys := quantSystem(t)
	body := sys.archiveBody()
	parts := sys.quant.Parts()
	v2 := archiveV2{
		Cfg:         body.Cfg,
		Infos:       body.Infos,
		Dim:         body.Dim,
		Points:      body.Points,
		HasChannels: body.HasChannels,
		Channels:    body.Channels,
		RFS:         body.RFS,
		NormMin:     body.NormMin,
		NormMax:     body.NormMax,
		Quant:       &parts,
	}
	var v2buf bytes.Buffer
	v2buf.Write(archiveHeader(archiveVersionV2))
	if err := gob.NewEncoder(&v2buf).Encode(&v2); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(v2buf.Bytes()))
	if err != nil {
		t.Fatalf("v2 archive rejected: %v", err)
	}
	var v5buf bytes.Buffer
	if err := loaded.Save(&v5buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v5buf.Bytes(), archiveHeader(archiveVersionV5)) {
		t.Fatalf("re-save did not upgrade to v5: % x", v5buf.Bytes()[:4])
	}
	f, m := openV5(t, v5buf.Bytes())
	if rows, _ := f.Bytes(secRows); m.Precision != "f64" || len(rows) != 8*sys.Len()*m.Dim || !f.Has(secSQ8Codes) {
		t.Fatalf("upgraded archive precision %q with %d row bytes (sq8 codes: %t), want a quantized f64 v5",
			m.Precision, len(rows), f.Has(secSQ8Codes))
	}
	upgraded, err := Load(bytes.NewReader(v5buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !upgraded.Quantized() {
		t.Fatal("upgrade dropped the quantizer")
	}
	if !reflect.DeepEqual(knnIDs(t, sys, 11, 15), knnIDs(t, upgraded, 11, 15)) {
		t.Fatal("retrieval diverged across the v2 → v5 upgrade")
	}
}

// goldenV3ArchivePath is the committed v3 float32 fixture; regenerate with
// UPDATE_GOLDEN_ARCHIVE=1.
const goldenV3ArchivePath = "testdata/archive_v3_f32.gob"

// TestGoldenArchiveV3F32 loads a version-3 float32 archive committed to
// testdata, proving on-disk float32 archives survive future code changes.
// The fixture is an imported-.fvecs Float32 system; the test checks the
// header version, the preserved precision, and agreement with a fresh build
// from the same deterministic embedding file.
func TestGoldenArchiveV3F32(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN_ARCHIVE") != "" {
		sys := importedF32System(t, 240, 16)
		if err := os.MkdirAll(filepath.Dir(goldenV3ArchivePath), 0o755); err != nil {
			t.Fatal(err)
		}
		// Save writes version 5 now, so the historical v3 fixture is
		// encoded explicitly.
		var buf bytes.Buffer
		if err := sys.saveV3(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenV3ArchivePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenV3ArchivePath)
	}
	raw, err := os.ReadFile(goldenV3ArchivePath)
	if err != nil {
		t.Fatalf("golden fixture missing (set UPDATE_GOLDEN_ARCHIVE=1 to generate): %v", err)
	}
	if !bytes.HasPrefix(raw, archiveHeader(archiveVersionV3)) {
		t.Fatalf("fixture does not start with the v3 magic: % x", raw[:4])
	}
	loaded, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden v3 archive rejected: %v", err)
	}
	if got := loaded.Corpus().Store().Precision(); got != store.Float32 {
		t.Fatalf("fixture store precision %v, want Float32", got)
	}
	if !loaded.RFS().Tree().Float32Scoring() {
		t.Fatal("fixture's float32 rows are not scored by the float32 scorer")
	}
	fresh := importedF32System(t, 240, 16)
	if loaded.Len() != fresh.Len() {
		t.Fatalf("fixture corpus size %d, want %d", loaded.Len(), fresh.Len())
	}
	if !reflect.DeepEqual(knnIDs(t, fresh, 9, 12), knnIDs(t, loaded, 9, 12)) {
		t.Fatal("fixture retrieval diverged from a fresh build")
	}
}
