package qdcbir

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"testing"

	"qdcbir/internal/archive"
)

// answersOf renders what a system answers as bytes: global k-NN for a few
// examples, then a seeded three-round feedback session's finalize and I/O
// statistics. Two systems that answer alike render identical bytes.
func answersOf(t testing.TB, sys *System) []byte {
	t.Helper()
	var out []any
	for _, ex := range []int{0, sys.Len() / 3, sys.Len() - 1} {
		res, err := sys.KNN(ex, 12)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	sess := sys.NewSession(11)
	for round := 0; round < 3; round++ {
		c := sess.Candidates()
		if err := sess.Feedback([]int{c[0].ID, c[len(c)/2].ID}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Finalize(20)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, res, sess.Stats())
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// saved returns what Save writes for sys.
func saved(t testing.TB, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArchiveRoundTripMatrix saves and loads every kind of static system —
// float64 rows, float32 rows, SQ8 codes over float64 rows, and an image
// corpus with its MV channels and feature normalizer — and requires the
// loaded system to answer byte-identically, Save to write identical bytes
// twice, and the loaded system to save the same bytes again.
func TestArchiveRoundTripMatrix(t *testing.T) {
	builds := map[string]func(t *testing.T) *System{
		"f64": func(t *testing.T) *System {
			cfg := SmallConfig()
			cfg.VectorMode, cfg.Images = true, 500
			sys, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		},
		"f32": func(t *testing.T) *System { return importedF32System(t, 300, 12) },
		"sq8": func(t *testing.T) *System { return quantSystem(t) },
		"image": func(t *testing.T) *System {
			sys, err := Build(Config{Seed: 7, Categories: 8, Images: 240, NodeCapacity: 24, RepFraction: 0.2, WithChannels: true})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		},
	}
	for _, name := range []string{"f64", "f32", "sq8", "image"} {
		t.Run(name, func(t *testing.T) {
			sys := builds[name](t)
			b := saved(t, sys)
			if again := saved(t, sys); !bytes.Equal(b, again) {
				t.Fatal("two saves of one system differ")
			}
			loaded, err := Load(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			if want, got := answersOf(t, sys), answersOf(t, loaded); !bytes.Equal(want, got) {
				t.Fatalf("answers diverged across the round trip:\n%s\n%s", want, got)
			}
			if resaved := saved(t, loaded); !bytes.Equal(b, resaved) {
				t.Fatal("the loaded system saves different bytes")
			}
			if loaded.Quantized() != sys.Quantized() || (sys.Corpus().Extractor == nil) != (loaded.Corpus().Extractor == nil) ||
				len(loaded.Corpus().ChannelVectors) != len(sys.Corpus().ChannelVectors) {
				t.Fatalf("loaded system lost state: quantized %t/%t, channels %d/%d",
					loaded.Quantized(), sys.Quantized(), len(loaded.Corpus().ChannelVectors), len(sys.Corpus().ChannelVectors))
			}
		})
	}
}

// archiveFixtures are the committed archives older builds wrote.
var archiveFixtures = []string{
	goldenArchivePath,
	goldenV2ArchivePath,
	goldenV3ArchivePath,
	"cmd/testdata/qdbuild_legacy.gob",
}

// TestArchiveUpgradeFixtures rewrites every committed fixture as version 5
// (what qdbuild -upgrade does) and requires the rewrite to answer as the
// fixture does when it is loaded directly.
func TestArchiveUpgradeFixtures(t *testing.T) {
	for _, path := range archiveFixtures {
		t.Run(path, func(t *testing.T) {
			direct, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b := saved(t, direct)
			if !bytes.HasPrefix(b, archiveHeader(archiveVersionV5)) {
				t.Fatalf("upgrade wrote % x, not the v5 magic", b[:4])
			}
			upgraded, err := Load(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			if want, got := answersOf(t, direct), answersOf(t, upgraded); !bytes.Equal(want, got) {
				t.Fatalf("upgraded archive answers differently:\n%s\n%s", want, got)
			}
		})
	}
}

// smallArchive is a 2–4 KB version-5 archive: 40 float32 rows of dim 8.
func smallArchive(t testing.TB) []byte {
	t.Helper()
	return saved(t, importedF32System(t, 40, 8))
}

// sectionOf returns the section a load error names, or "".
func sectionOf(err error) string {
	var ae *archive.Error
	if errors.As(err, &ae) {
		return ae.Section
	}
	return ""
}

// TestArchiveCorruption flips every bit of a small archive, one at a time,
// and cuts it at every length: each load must fail with an error that names
// the part of the archive that is damaged (the header, the section table or
// a section), and none may panic. Damage to the 4-byte magic is reported
// by the version dispatch instead.
func TestArchiveCorruption(t *testing.T) {
	b := smallArchive(t)
	t.Logf("archive of %d bytes", len(b))
	if len(b) < 2<<10 || len(b) > 4<<10 {
		t.Fatalf("archive of %d bytes, want 2–4 KB", len(b))
	}
	if _, err := Load(bytes.NewReader(b)); err != nil {
		t.Fatal(err)
	}
	mut := make([]byte, len(b))
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			copy(mut, b)
			mut[i] ^= 1 << bit
			_, err := Load(bytes.NewReader(mut))
			switch {
			case err == nil:
				t.Fatalf("flip of bit %d of byte %d loaded", bit, i)
			case i >= 4 && sectionOf(err) == "":
				t.Fatalf("flip of bit %d of byte %d: error names no section: %v", bit, i, err)
			}
		}
	}
	for n := 0; n < len(b); n++ {
		_, err := Load(bytes.NewReader(b[:n]))
		switch {
		case err == nil:
			t.Fatalf("archive cut at %d of %d bytes loaded", n, len(b))
		case n >= 4 && sectionOf(err) == "":
			t.Fatalf("archive cut at %d bytes: error names no section: %v", n, err)
		}
	}
	if _, err := Load(bytes.NewReader(append(b, 0))); sectionOf(err) == "" {
		t.Fatalf("a trailing byte: %v", err)
	}
}

// reseal recomputes the checksums of a container whose table still
// describes sections inside b, so a mutated archive reaches the section
// decoders instead of stopping at a checksum; it reports whether it could.
// The layout is internal/archive's: a 16-byte header whose last word is
// the CRC-32C of its first 12 bytes and the 32-byte entries after it, each
// entry holding a 12-byte name, the section's CRC-32C, offset and length.
func reseal(b []byte) bool {
	if len(b) < 16 {
		return false
	}
	le := binary.LittleEndian
	n := int(le.Uint32(b[4:]))
	if n > archive.MaxSections || len(b) < 16+32*n {
		return false
	}
	c := crc32.MakeTable(crc32.Castagnoli)
	for i := 0; i < n; i++ {
		e := b[16+32*i:]
		off, l := le.Uint64(e[16:]), le.Uint64(e[24:])
		if off > uint64(len(b)) || l > uint64(len(b))-off {
			return false
		}
		le.PutUint32(e[12:], crc32.Checksum(b[off:off+l], c))
	}
	le.PutUint32(b[12:], crc32.Update(crc32.Checksum(b[:12], c), c, b[16:16+32*n]))
	return true
}

// FuzzLoadArchive feeds mutated archives to Load: raw, where a checksum
// stops nearly every mutation, and resealed, so the meta, label, topology,
// row and quantizer decoders see the mutated bytes. Neither may panic; a
// resealed archive that loads must answer a k-NN query.
func FuzzLoadArchive(f *testing.F) {
	f.Add(saved(f, quantSystem(f)))
	b := smallArchive(f)
	f.Add(b)
	f.Add(b[:len(b)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		v5 := bytes.HasPrefix(data, magicV5[:])
		if _, err := Load(bytes.NewReader(data)); err != nil && v5 && sectionOf(err) == "" {
			t.Fatalf("error names no section: %v", err)
		}
		mut := append([]byte(nil), data...)
		if !v5 || !reseal(mut) {
			return
		}
		loaded, err := Load(bytes.NewReader(mut))
		if err != nil {
			return
		}
		if _, err := loaded.KNN(0, 3); err != nil {
			t.Fatalf("a loaded archive cannot answer: %v", err)
		}
	})
}

// TestLoadStreamOfUnknownLength loads an archive from a reader that does
// not tell its length, which grows the buffer as the bytes arrive.
func TestLoadStreamOfUnknownLength(t *testing.T) {
	b := saved(t, quantSystem(t))
	loaded, err := Load(struct{ *bytes.Reader }{bytes.NewReader(b)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved(t, loaded), b) {
		t.Fatal("a system loaded from a stream saves different bytes")
	}
	path := t.TempDir() + "/db.qd"
	if err := os.WriteFile(path, b[:len(b)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); sectionOf(err) != secSQ8Codes {
		t.Fatalf("a file cut in its last section: %v", err)
	}
}
