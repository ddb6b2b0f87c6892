package qdcbir

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qdcbir/internal/seg"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

func dynTestConfig(mode string) DynamicConfig {
	cfg := DynamicConfig{
		Dim:                6,
		SealThreshold:      20,
		MaxSegments:        3,
		Seed:               9,
		NodeCapacity:       8,
		DisableAutoCompact: true,
	}
	if mode == "sq8" {
		cfg.Quantized = true
	}
	return cfg
}

// newTestDynamic returns an empty dynamic system for mode: one of float32
// rows for "f32" (its engine restored from an empty float32 memtable, as
// NewDynamic makes only float64 systems), of float64 rows otherwise.
func newTestDynamic(t *testing.T, mode string) *Dynamic {
	t.Helper()
	cfg := dynTestConfig(mode)
	if mode != "f32" {
		d, err := NewDynamic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	db, err := seg.Restore(cfg.segConfig(), nil, seg.MemInput{Rows32: []float32{}}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &Dynamic{cfg: dynamicConfigFrom(db.Config(), nil), db: db, labels: make(map[int]string)}
}

func dynRandVec(rng *rand.Rand, dim int) vec.Vector {
	v := make(vec.Vector, dim)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// populateDynamic inserts labeled rows (with occasional exact duplicates for
// tie stress) and deletes a fifth of them, leaving multiple sealed segments,
// a non-empty memtable, and tombstones in both.
func populateDynamic(t *testing.T, d *Dynamic) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	var ids []int
	var last vec.Vector
	for i := 0; i < 110; i++ {
		v := dynRandVec(rng, d.cfg.Dim)
		if last != nil && i%9 == 0 {
			copy(v, last)
		}
		last = v
		id, err := d.Insert(v, fmt.Sprintf("img-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids[:len(ids)/5] {
		if err := d.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
}

func sameDynamicAnswers(t *testing.T, label string, a, b *Dynamic) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(63))
	for i := 0; i < 5; i++ {
		q := dynRandVec(rng, a.cfg.Dim)
		got, err := b.KNN(ctx, q, 17)
		if err != nil {
			t.Fatal(err)
		}
		want, err := a.KNN(ctx, q, 17)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: query %d: %d results, want %d", label, i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: query %d rank %d: got %+v, want %+v", label, i, j, got[j], want[j])
			}
		}
	}
	snap := a.db.Acquire()
	examples := snap.LiveIDs(nil)[:6]
	snap.Release()
	got, err := b.QueryByExamples(ctx, examples, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.QueryByExamples(ctx, examples, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	gi, wi := got.IDs(), want.IDs()
	if len(gi) != len(wi) {
		t.Fatalf("%s: finalize: %d ids, want %d", label, len(gi), len(wi))
	}
	for i := range wi {
		if gi[i] != wi[i] {
			t.Fatalf("%s: finalize rank %d: got %d, want %d", label, i, gi[i], wi[i])
		}
	}
}

func TestDynamicSaveLoadRoundTrip(t *testing.T) {
	for _, mode := range []string{"f64", "sq8", "f32"} {
		t.Run(mode, func(t *testing.T) {
			d := newTestDynamic(t, mode)
			defer d.Close()
			populateDynamic(t, d)
			before := d.Stats()
			if before.Segments < 2 || before.MemRows == 0 || before.Tombstones == 0 {
				t.Fatalf("fixture not exercising all layers: %+v", before)
			}

			var buf bytes.Buffer
			if err := d.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if v, ok := ArchiveHeaderVersion(buf.Bytes()); !ok || v != DynamicArchiveVersion {
				t.Fatalf("archive header version %d (%v), want %d", v, ok, DynamicArchiveVersion)
			}
			loaded, err := LoadDynamic(&buf, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()

			after := loaded.Stats()
			if after.Epoch != before.Epoch || after.Segments != before.Segments ||
				after.MemRows != before.MemRows || after.Tombstones != before.Tombstones ||
				after.Live != before.Live || after.NextID != before.NextID {
				t.Fatalf("stats diverged:\n before %+v\n after  %+v", before, after)
			}
			sameDynamicAnswers(t, mode, d, loaded)

			// Labels survive, and only for live images.
			snap := d.db.Acquire()
			live := snap.LiveIDs(nil)
			snap.Release()
			for _, id := range live {
				if got, want := loaded.LabelOf(id), d.LabelOf(id); got != want {
					t.Fatalf("label of %d: %q, want %q", id, got, want)
				}
			}

			// The restored engine keeps ingesting: new IDs continue past the
			// saved allocator, and the row is immediately queryable.
			id, err := loaded.Insert(dynRandVec(rand.New(rand.NewSource(5)), loaded.cfg.Dim), "post-load")
			if err != nil {
				t.Fatal(err)
			}
			if id != before.NextID {
				t.Fatalf("post-load insert got ID %d, want %d", id, before.NextID)
			}
			if loaded.LabelOf(id) != "post-load" {
				t.Fatal("post-load label missing")
			}
		})
	}
}

// TestLoadDynamicV4BothPrecisionFlags: an archive of float32 rows that
// records Quantized (as a float32 engine built with both flags once saved)
// loads as the float32 engine it was, with no SQ8 codes, and answers as it
// did.
func TestLoadDynamicV4BothPrecisionFlags(t *testing.T) {
	d := newTestDynamic(t, "f32")
	defer d.Close()
	populateDynamic(t, d)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	header := archiveHeader(archiveVersionV4)
	var a archiveV4
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes()[len(header):])).Decode(&a); err != nil {
		t.Fatal(err)
	}
	a.Quantized = true
	buf.Reset()
	buf.Write(header)
	if err := gob.NewEncoder(&buf).Encode(&a); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDynamic(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if prec, cfg := loaded.DB().Precision(), loaded.Config(); prec != store.Float32 || cfg.Quantized {
		t.Fatalf("loaded %v rows, Quantized %v; want a float32 engine", prec, cfg.Quantized)
	}
	snap := loaded.db.Acquire()
	defer snap.Release()
	for i, in := range snap.SealedInputs() {
		if in.Structure.Tree().QuantizedScoring() {
			t.Fatalf("segment %d holds SQ8 codes", i)
		}
	}
	sameDynamicAnswers(t, "f32+sq8", d, loaded)
}

func TestLoadDynamicAdoptsStaticArchive(t *testing.T) {
	cfg := SmallConfig()
	cfg.VectorMode = true
	cfg.Images = 400
	cfg.Categories = 10
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDynamic(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	st := d.Stats()
	if st.Segments != 1 || st.Live != sys.Len() || st.NextID != sys.Len() {
		t.Fatalf("adopted stats %+v for corpus of %d", st, sys.Len())
	}
	// The adopted segment shares the System's store and tree, so a KNN from a
	// corpus row must return exactly the monolithic system's answer.
	q := sys.Corpus().Store().At(7)
	want, err := sys.KNN(7, 12)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.KNN(context.Background(), q, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("adopted KNN rank %d: got %d, want %d", i, got[i].ID, want[i].ID)
		}
	}
	if d.LabelOf(7) != sys.SubconceptOf(7) {
		t.Fatalf("adopted label %q, want subconcept %q", d.LabelOf(7), sys.SubconceptOf(7))
	}
	// Ingest continues on top of the adopted corpus.
	if _, err := d.Insert(dynRandVec(rand.New(rand.NewSource(3)), d.cfg.Dim), "new"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(7); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Live != sys.Len() {
		t.Fatalf("live %d after one insert and one delete, want %d", d.Stats().Live, sys.Len())
	}
}

func TestStaticLoadRejectsDynamicArchive(t *testing.T) {
	d, err := NewDynamic(dynTestConfig("f64"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Insert(make(vec.Vector, d.cfg.Dim), "only"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "LoadDynamic") {
		t.Fatalf("static Load of a dynamic archive: err = %v, want LoadDynamic pointer", err)
	}
}

// archiveV4Maps is the version-4 layout written before the label table
// became ID-sorted slices and float32 memtable rows got their own field: the
// labels in a map, the memtable rows always float64, and a Float32 flag.
type archiveV4Maps struct {
	Dim                int
	SealThreshold      int
	MaxSegments        int
	Seed               int64
	NodeCapacity       int
	RepFraction        float64
	BoundaryThreshold  float64
	Quantized          bool
	Float32            bool
	DisableAutoCompact bool

	Epoch  uint64
	NextID int
	Segs   []archiveSegV4

	MemBaseID int
	MemRows   []float64
	MemTombs  []int

	Labels map[int]string
}

// TestLoadDynamicV4LabelMap: an archive in the older layout — labels in a
// map, a float32 system's memtable rows and a later-sealed segment's rows in
// the float64 fields — loads with every label and answers as the system
// that wrote it.
func TestLoadDynamicV4LabelMap(t *testing.T) {
	for _, mode := range []string{"f64", "f32"} {
		t.Run(mode, func(t *testing.T) {
			d := newTestDynamic(t, mode)
			defer d.Close()
			populateDynamic(t, d)
			var buf bytes.Buffer
			if err := d.Save(&buf); err != nil {
				t.Fatal(err)
			}
			header := archiveHeader(archiveVersionV4)
			var a archiveV4
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes()[len(header):])).Decode(&a); err != nil {
				t.Fatal(err)
			}
			old := archiveV4Maps{
				Dim: a.Dim, SealThreshold: a.SealThreshold, MaxSegments: a.MaxSegments, Seed: a.Seed,
				NodeCapacity: a.NodeCapacity, RepFraction: a.RepFraction, BoundaryThreshold: a.BoundaryThreshold,
				Quantized: a.Quantized, Float32: mode == "f32", DisableAutoCompact: a.DisableAutoCompact,
				Epoch: a.Epoch, NextID: a.NextID, Segs: a.Segs,
				MemBaseID: a.MemBaseID, MemRows: a.MemRows, MemTombs: a.MemTombs,
				Labels: make(map[int]string),
			}
			if a.MemRows32 != nil {
				old.MemRows = vec.Widen64(a.MemRows32, nil)
				last := &old.Segs[len(old.Segs)-1]
				last.Points, last.Points32 = vec.Widen64(last.Points32, nil), nil
			}
			for id, label := range a.LabelsByID {
				if label != "" {
					old.Labels[id] = label
				}
			}
			if len(old.Labels) == 0 || len(old.MemRows) == 0 {
				t.Fatalf("fixture has %d labels and %d memtable values", len(old.Labels), len(old.MemRows))
			}
			buf.Reset()
			buf.Write(header)
			if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadDynamic(&buf, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			if got, want := loaded.DB().Precision(), d.DB().Precision(); got != want {
				t.Fatalf("loaded %v rows, saved %v", got, want)
			}
			for id, want := range old.Labels {
				if got := loaded.LabelOf(id); got != want {
					t.Fatalf("label of %d: %q, want %q", id, got, want)
				}
			}
			sameDynamicAnswers(t, mode, d, loaded)
		})
	}
}

// TestDynamicSaveDeterministic: saving one dynamic system again writes the
// same bytes — the label table travels indexed by ID, not in map order.
func TestDynamicSaveDeterministic(t *testing.T) {
	d := newTestDynamic(t, "f64")
	defer d.Close()
	populateDynamic(t, d)
	var first bytes.Buffer
	if err := d.Save(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again bytes.Buffer
		if err := d.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("save %d wrote different bytes", i+2)
		}
	}
}
