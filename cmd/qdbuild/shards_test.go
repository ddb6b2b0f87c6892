package main

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"qdcbir"
)

// TestWriteShardsDeterministic: -shards 3 writes the same four files every
// time, though the full archive is written beside the slices; a lone -shard
// I writes exactly slice I and no full archive; and every slice is the
// archive SliceShard packages for that index.
func TestWriteShardsDeterministic(t *testing.T) {
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	sys, err := buildSystem(3, 12, 600, 20, 0.1, true, "str", false, discard)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	names := []string{"db.gob", "db.shard0.gob", "db.shard1.gob", "db.shard2.gob"}
	var runs [2]map[string][]byte
	for r := range runs {
		dir := t.TempDir()
		if err := writeShards(sys, filepath.Join(dir, "db.gob"), shards, -1, discard); err != nil {
			t.Fatal(err)
		}
		runs[r] = readAll(t, dir, names)
	}
	for _, name := range names {
		if !bytes.Equal(runs[0][name], runs[1][name]) {
			t.Errorf("%s differs between two runs", name)
		}
	}
	var full bytes.Buffer
	if err := sys.Save(&full); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(runs[0]["db.gob"], full.Bytes()) {
		t.Error("full archive differs from System.Save")
	}
	for i := 0; i < shards; i++ {
		dir := t.TempDir()
		if err := writeShards(sys, filepath.Join(dir, "db.gob"), shards, i, discard); err != nil {
			t.Fatal(err)
		}
		lone := readAll(t, dir, []string{names[1+i]})[names[1+i]]
		if !bytes.Equal(lone, runs[0][names[1+i]]) {
			t.Errorf("-shard %d archive differs from the -shards run's", i)
		}
		if _, err := os.Stat(filepath.Join(dir, "db.gob")); !os.IsNotExist(err) {
			t.Errorf("-shard %d wrote the full archive (stat: %v)", i, err)
		}
		a, err := qdcbir.SliceShard(context.Background(), sys, shards, i)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := a.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lone, buf.Bytes()) {
			t.Errorf("shard %d file differs from SliceShard's archive", i)
		}
	}
}

func readAll(t *testing.T, dir string, names []string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	return out
}

// TestWriteShardsFreshProcess: gob numbers types process-wide in the order
// they are first encoded, so what a fresh process writes depends on which
// archive it encodes first. A -shards run, whose full archive is written
// beside the slices, must write the bytes of a process that writes the full
// archive and then each slice, one after another.
func TestWriteShardsFreshProcess(t *testing.T) {
	if mode := os.Getenv("QDBUILD_TEST_WRITE"); mode != "" {
		writeInChild(t, mode, os.Getenv("QDBUILD_TEST_DIR"))
		return
	}
	names := []string{"db.gob", "db.shard0.gob", "db.shard1.gob", "db.shard2.gob"}
	var runs [3]map[string][]byte
	for r, mode := range []string{"sequential", "writeShards", "writeShards"} {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^TestWriteShardsFreshProcess$")
		// On one P the slices' goroutine runs ahead of the full archive's
		// until it blocks, which is the order that numbered types wrongly.
		cmd.Env = append(os.Environ(), "QDBUILD_TEST_WRITE="+mode, "QDBUILD_TEST_DIR="+dir, "GOMAXPROCS=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", mode, err, out)
		}
		runs[r] = readAll(t, dir, names)
	}
	for r := 1; r < len(runs); r++ {
		for _, name := range names {
			if !bytes.Equal(runs[r][name], runs[0][name]) {
				t.Errorf("run %d: %s differs from the one-after-another write", r, name)
			}
		}
	}
}

// writeInChild builds the test corpus in a fresh process and writes its
// fleet archives into dir, either the way qdbuild -shards 3 does or one
// after another.
func writeInChild(t *testing.T, mode, dir string) {
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	sys, err := buildSystem(3, 12, 600, 20, 0.1, true, "str", false, discard)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "db.gob")
	if mode == "writeShards" {
		if err := writeShards(sys, out, 3, -1, discard); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := sys.SaveFile(out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		a, err := qdcbir.SliceShard(context.Background(), sys, 3, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.WriteFile(shardPath(out, i)); err != nil {
			t.Fatal(err)
		}
	}
}
