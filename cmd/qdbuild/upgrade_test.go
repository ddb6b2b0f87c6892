package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qdcbir"
)

// answers renders a system's k-NN lists for a few examples and a seeded
// three-round session's finalize as bytes.
func answers(t *testing.T, sys *qdcbir.System) []byte {
	t.Helper()
	var out []any
	for _, ex := range []int{0, sys.Len() / 2, sys.Len() - 1} {
		res, err := sys.KNN(ex, 10)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	sess := sys.NewSession(4)
	for round := 0; round < 3; round++ {
		c := sess.Candidates()
		if err := sess.Feedback([]int{c[0].ID, c[len(c)-1].ID}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Finalize(15)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(append(out, res, sess.Stats()))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestUpgradeFixtures runs qdbuild -upgrade over every committed archive an
// older build wrote: the rewrite is a version-5 archive that answers as the
// fixture does when loaded directly, and upgrading it again changes no byte.
func TestUpgradeFixtures(t *testing.T) {
	for _, in := range []string{
		"../../testdata/archive_v0.gob",
		"../../testdata/archive_v2_quantized.gob",
		"../../testdata/archive_v3_f32.gob",
		"../testdata/qdbuild_legacy.gob",
	} {
		t.Run(filepath.Base(in), func(t *testing.T) {
			dir := t.TempDir()
			out, again := filepath.Join(dir, "v5.qd"), filepath.Join(dir, "v5again.qd")
			if err := upgradeArchive(in, out); err != nil {
				t.Fatal(err)
			}
			direct, err := qdcbir.LoadFile(in)
			if err != nil {
				t.Fatal(err)
			}
			upgraded, err := qdcbir.LoadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(answers(t, direct), answers(t, upgraded)) {
				t.Fatal("the upgraded archive answers differently")
			}
			if err := upgradeArchive(out, again); err != nil {
				t.Fatal(err)
			}
			if a, b := readFile(t, out), readFile(t, again); !bytes.Equal(a, b) {
				t.Fatal("upgrading a version-5 archive changed it")
			} else if v, ok := qdcbir.ArchiveHeaderVersion(a); !ok || v != qdcbir.ArchiveVersionCurrent {
				t.Fatalf("upgrade wrote version %d", v)
			}
		})
	}
}

// TestUpgradeRefuses: a dynamic archive is not rewritten, and neither is
// an archive in place.
func TestUpgradeRefuses(t *testing.T) {
	sys, err := qdcbir.LoadFile("../../testdata/archive_v2_quantized.gob")
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := qdcbir.OpenDynamic(sys, qdcbir.DynamicConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "dyn.gob")
	if err := dyn.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := upgradeArchive(path, filepath.Join(dir, "out.qd")); err == nil || !strings.Contains(err.Error(), "dynamic segmented archive") {
		t.Fatalf("a dynamic archive: %v", err)
	}
	if err := upgradeArchive(path, path); err == nil {
		t.Fatal("an in-place upgrade was accepted")
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
