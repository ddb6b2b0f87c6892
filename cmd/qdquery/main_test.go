package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"qdcbir"
	"qdcbir/internal/core"
	"qdcbir/internal/dataset"
	"qdcbir/internal/obs"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
)

var (
	dbOnce sync.Once
	testDB *db
)

func smallDB(t *testing.T) *db {
	t.Helper()
	dbOnce.Do(func() {
		spec := dataset.SmallSpec(1, 12, 400)
		corpus := dataset.Build(spec, dataset.Options{Seed: 2})
		structure := rfs.Build(corpus.Vectors, rfs.BuildConfig{
			RepFraction: 0.2,
			Tree:        rstar.Config{MaxFill: 20},
			TargetFill:  16,
			Seed:        3,
		})
		testDB = &db{
			infos:  corpus.Infos,
			rfs:    structure,
			engine: core.NewEngine(structure, core.Config{}),
		}
	})
	if testDB == nil {
		t.Fatal("fixture failed")
	}
	return testDB
}

func runREPL(t *testing.T, script string) string {
	t.Helper()
	d := smallDB(t)
	var out bytes.Buffer
	repl(d, rand.New(rand.NewSource(5)), strings.NewReader(script), &out)
	return out.String()
}

func TestREPLQuit(t *testing.T) {
	out := runREPL(t, "q\n")
	if !strings.Contains(out, "candidate representatives") {
		t.Errorf("no initial display: %q", out)
	}
}

func TestREPLReshuffleAndHelp(t *testing.T) {
	out := runREPL(t, "r\nbogus\nqueries\nq\n")
	if strings.Count(out, "candidate representatives") < 2 {
		t.Error("reshuffle did not redisplay")
	}
	if !strings.Contains(out, "commands:") {
		t.Error("unknown command did not print help")
	}
	if !strings.Contains(out, "Laptop") {
		t.Error("queries listing missing")
	}
}

func TestREPLMarkFeedbackFinalize(t *testing.T) {
	out := runREPL(t, "m 0 1 2\nf\ndone 6\n")
	if !strings.Contains(out, "marked #0") {
		t.Errorf("mark not acknowledged: %q", out)
	}
	if !strings.Contains(out, "round committed: 3 marks") {
		t.Error("feedback not committed")
	}
	if !strings.Contains(out, "result groups") {
		t.Error("no results printed")
	}
}

func TestREPLBadPositions(t *testing.T) {
	out := runREPL(t, "m 999 notanumber -1\nq\n")
	if strings.Count(out, "bad position") != 3 {
		t.Errorf("bad positions not all rejected: %q", out)
	}
}

func TestREPLRetractAndWeights(t *testing.T) {
	out := runREPL(t, "m 0 1\nu 0\nw color 2\nw bogus 2\nw color notanumber\nf\ndone 4\n")
	if !strings.Contains(out, "retracted #0") {
		t.Errorf("retract not acknowledged: %q", out)
	}
	if !strings.Contains(out, "color weighted x2.00") {
		t.Error("weight not applied")
	}
	if !strings.Contains(out, `unknown family "bogus"`) {
		t.Error("bad family not rejected")
	}
	if !strings.Contains(out, `bad multiplier`) {
		t.Error("bad multiplier not rejected")
	}
	if !strings.Contains(out, "round committed: 1 marks") {
		t.Errorf("expected 1 surviving mark: %q", out)
	}
	if !strings.Contains(out, "result groups") {
		t.Error("no results")
	}
}

func TestREPLFinalizeWithoutFeedback(t *testing.T) {
	out := runREPL(t, "done\nq\n")
	if !strings.Contains(out, "finalize:") {
		t.Errorf("finalize without feedback should report error: %q", out)
	}
}

func TestREPLAutoSession(t *testing.T) {
	out := runREPL(t, "auto Bird\n")
	if !strings.Contains(out, "result groups") {
		t.Errorf("auto session produced no results: %q", out)
	}
	if !strings.Contains(out, "bird/") {
		t.Error("results contain no bird images")
	}
	// Unknown query errors cleanly.
	out2 := runREPL(t, "auto NoSuchThing\n")
	if !strings.Contains(out2, "unknown query") {
		t.Error("unknown auto query not rejected")
	}
}

func TestOpenInMemory(t *testing.T) {
	d, err := open("", 9, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.infos) == 0 || d.rfs.RepCount() == 0 {
		t.Fatal("in-memory open produced empty db")
	}
	if got := d.subconceptOf(-1); got != "" {
		t.Errorf("out-of-range label = %q", got)
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := open("/nonexistent/file.gob", 1, 0, false, nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestWriteTraces drives a session under an observer and checks the -trace-out
// file is a loadable trace-event document covering the session's spans.
func TestWriteTraces(t *testing.T) {
	observer := obs.New(obs.NewRegistry())
	d := smallDB(t)
	observed := &db{
		infos:  d.infos,
		rfs:    d.rfs,
		engine: core.NewEngine(d.rfs, core.Config{Observer: observer}),
	}
	var out bytes.Buffer
	repl(observed, rand.New(rand.NewSource(5)), strings.NewReader("m 0 1 2\nf\ndone 6\n"), &out)
	if !strings.Contains(out.String(), "result groups") {
		t.Fatalf("session did not finalize: %q", out.String())
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTraces(path, observer); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file obs.TraceEventFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace-out is not valid trace-event JSON: %v", err)
	}
	var names []string
	for _, ev := range file.TraceEvents {
		names = append(names, ev.Name)
	}
	joined := strings.Join(names, "\n")
	for _, want := range []string{"session", "round 1", "finalize", "merge"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace-out missing %q event; have:\n%s", want, joined)
		}
	}
}

// TestOpenVersionedArchive checks open() detects the 0xD1 'Q' 'D' magic and
// routes versioned system archives (the qdbuild -import output format)
// through qdcbir.Load instead of the legacy gob decoder.
func TestOpenVersionedArchive(t *testing.T) {
	sys, err := qdcbir.Build(qdcbir.Config{
		Seed: 4, Categories: 8, Images: 200, VectorMode: true,
		NodeCapacity: 20, RepFraction: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "versioned.gob")
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	d, err := open(path, 1, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.infos) != sys.Len() {
		t.Fatalf("opened %d infos, want %d", len(d.infos), sys.Len())
	}
	var out bytes.Buffer
	repl(d, rand.New(rand.NewSource(5)), strings.NewReader("q\n"), &out)
	if !strings.Contains(out.String(), "candidate representatives") {
		t.Errorf("no display from versioned archive: %q", out.String())
	}
}

// TestOpenLegacyArchive: qdbuild no longer writes the header-less gob of
// {Infos, RFS, Quant}, but files it wrote still open, with and without
// adopting their quantizer.
func TestOpenLegacyArchive(t *testing.T) {
	const path = "../testdata/qdbuild_legacy.gob" // qdbuild -vectors -images 120 -categories 11 -capacity 12 -reps 0.2 -seed 5 -quantize, before the versioned writer
	for _, quantize := range []bool{false, true} {
		d, err := open(path, 1, 1, quantize, nil)
		if err != nil {
			t.Fatalf("quantized=%v: %v", quantize, err)
		}
		if len(d.infos) != 104 || d.rfs.Len() != 104 || d.subconceptOf(103) == "" {
			t.Fatalf("quantized=%v: %d infos over %d vectors", quantize, len(d.infos), d.rfs.Len())
		}
		if got := d.rfs.Tree().QuantizedScoring(); got != quantize {
			t.Errorf("quantized=%v: tree scores quantized=%v", quantize, got)
		}
		var out bytes.Buffer
		repl(d, rand.New(rand.NewSource(5)), strings.NewReader("q\n"), &out)
		if !strings.Contains(out.String(), "candidate representatives") {
			t.Errorf("quantized=%v: no display from the legacy archive: %q", quantize, out.String())
		}
	}
}
