package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"qdcbir"
	"qdcbir/internal/shard"
	"qdcbir/internal/source"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// This file is the precision matrix: every way a corpus comes into being —
// built, imported, loaded, adopted as a dynamic system, sliced for a fleet —
// stores its rows at one precision, and the leaf scorer it installs is the
// one that precision calls for: the float32 scorer over float32 rows, none
// (float64, or SQ8) over float64 rows. Each entry's unweighted answers are
// pinned by a digest recorded before the float32 scan mode and its config
// knob were removed, from the build command or call that did the same thing
// then: a float32 batch built with Config.Float32, an .fvecs import without
// -f32 (float32 rows scanned in float64), a CSV import with -f32 (float64
// rows scanned in float32), and so on. Answers that equal those digests are
// the answers every existing build command kept.

// matrixCorpus is the shared input: a clustered, labeled embedding set whose
// values are not float32 values, written as CSV and, narrowed, as .fvecs.
type matrixCorpus struct {
	rows     [][]float64
	labels   []string
	csv      string
	fvecs    string
	narrowed []float32
}

func newMatrixCorpus(t *testing.T) *matrixCorpus {
	t.Helper()
	const clusters, per, dim = 6, 40, 12
	rng := rand.New(rand.NewSource(91))
	c := &matrixCorpus{}
	var csv strings.Builder
	var fv []byte
	for k := 0; k < clusters; k++ {
		center := make([]float64, dim)
		for j := range center {
			center[j] = rng.Float64() * 10
		}
		for i := 0; i < per; i++ {
			row := make([]float64, dim)
			label := fmt.Sprintf("emb/c%d", k)
			csv.WriteString(label)
			fv = binary.LittleEndian.AppendUint32(fv, dim)
			for j := range row {
				text := strconv.FormatFloat(center[j]+rng.NormFloat64()*0.3, 'f', 9, 64)
				csv.WriteString("," + text)
				row[j], _ = strconv.ParseFloat(text, 64)
				n := float32(row[j])
				c.narrowed = append(c.narrowed, n)
				fv = binary.LittleEndian.AppendUint32(fv, math.Float32bits(n))
			}
			csv.WriteByte('\n')
			c.rows = append(c.rows, row)
			c.labels = append(c.labels, label)
		}
	}
	dir := t.TempDir()
	c.csv, c.fvecs = filepath.Join(dir, "emb.csv"), filepath.Join(dir, "emb.fvecs")
	if err := os.WriteFile(c.csv, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.fvecs, fv, 0o644); err != nil {
		t.Fatal(err)
	}
	return c
}

// batch returns the corpus as an in-memory batch: its float64 rows, or
// their float32 narrowing.
func (c *matrixCorpus) batch(f32 bool) *source.Batch {
	b := &source.Batch{Dim: len(c.rows[0]), Labels: c.labels}
	if f32 {
		b.Data32 = c.narrowed
	} else {
		for _, r := range c.rows {
			b.Data = append(b.Data, r...)
		}
	}
	return b
}

type batchSource struct{ b *source.Batch }

func (batchSource) Format() string                    { return "test-batch" }
func (s batchSource) Vectors() (*source.Batch, error) { return s.b, nil }

// opened is one matrix entry's corpus as its tests see it.
type opened struct {
	prec    store.Precision // the precision its rows are stored at
	f32     bool            // the float32 scorer is installed
	knn     func(id, k int) ([]int, []float64, error)
	queries []int
}

// answerDigest is FNV-1a over the (ID, distance bits) of every answer to
// the entry's queries at k = 1, 10 and 50.
func answerDigest(t *testing.T, o opened) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	for _, id := range o.queries {
		for _, k := range []int{1, 10, 50} {
			ids, dists, err := o.knn(id, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ids {
				binary.LittleEndian.PutUint64(buf[:], uint64(ids[i]))
				h.Write(buf[:])
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(dists[i]))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

func systemOpened(sys *qdcbir.System) opened {
	return opened{
		prec: sys.Corpus().Store().Precision(),
		f32:  sys.RFS().Tree().Float32Scoring(),
		knn: func(id, k int) ([]int, []float64, error) {
			res, err := sys.KNN(id, k)
			ids, dists := make([]int, len(res)), make([]float64, len(res))
			for i, r := range res {
				ids[i], dists[i] = r.ID, r.Score
			}
			return ids, dists, err
		},
		queries: []int{0, 17, 42, 101, sys.Len() - 1},
	}
}

// dynamicOpened adopts or loads a dynamic system whose memtable holds three
// inserted rows beside the sealed corpus, so the memtable's precision is
// searched too.
func dynamicOpened(t *testing.T, d *qdcbir.Dynamic, n int) opened {
	t.Helper()
	snap := d.DB().Acquire()
	defer snap.Release()
	o := opened{prec: d.DB().Precision(), f32: true, queries: []int{0, 17, 42, 101, n - 1}}
	for _, in := range snap.SealedInputs() {
		o.f32 = o.f32 && in.Structure.Tree().Float32Scoring()
		if in.Store.Precision() != o.prec {
			t.Fatalf("a %v segment in a %v system", in.Store.Precision(), o.prec)
		}
	}
	vectors := make(map[int]vec.Vector)
	for _, id := range o.queries {
		v, ok := snap.VectorOf(id)
		if !ok {
			t.Fatalf("no row %d", id)
		}
		vectors[id] = v
	}
	o.knn = func(id, k int) ([]int, []float64, error) {
		ns, err := d.KNN(context.Background(), vectors[id], k)
		ids, dists := make([]int, len(ns)), make([]float64, len(ns))
		for i, nb := range ns {
			ids[i], dists[i] = nb.ID, nb.Dist
		}
		return ids, dists, err
	}
	return o
}

// withInserts adopts sys as a dynamic system and inserts three rows that
// are not float32 values.
func withInserts(t *testing.T, sys *qdcbir.System) *qdcbir.Dynamic {
	t.Helper()
	d, err := qdcbir.OpenDynamic(sys, qdcbir.DynamicConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	for i, src := range []int{3, 50, 150} {
		v := append(vec.Vector(nil), sys.Corpus().Vectors[src]...)
		for j := range v {
			v[j] += 0.001 * float64(i+j+1) / 3
		}
		if _, err := d.Insert(v, "emb/new"); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func reloadDynamic(t *testing.T, d *qdcbir.Dynamic) *qdcbir.Dynamic {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := qdcbir.LoadDynamic(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(loaded.Close)
	return loaded
}

// fleetOpened slices sys three ways and answers each query by merging the
// replicas' root searches.
func fleetOpened(t *testing.T, sys *qdcbir.System) opened {
	t.Helper()
	archives, err := qdcbir.SliceShards(context.Background(), sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := systemOpened(sys)
	var reps []*shard.Replica
	for i, a := range archives {
		rep, err := shard.NewReplica(a)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rep.Close() })
		if i == 0 {
			o.prec, _ = store.ParsePrecision(rep.Meta().Storage)
		} else if got, _ := store.ParsePrecision(rep.Meta().Storage); got != o.prec {
			t.Fatalf("replica %d stores %v rows, replica 0 %v", i, got, o.prec)
		}
		reps = append(reps, rep)
	}
	o.knn = func(id, k int) ([]int, []float64, error) {
		var q vec.Vector
		for _, rep := range reps {
			if p, ok := rep.PointInfo(id); ok {
				q = p.Vec
			}
		}
		lists := make([][]shard.Neighbor, len(reps))
		for i, rep := range reps {
			var err error
			if lists[i], err = rep.SearchNode(context.Background(), rep.Topo().RootID(), q, nil, k); err != nil {
				return nil, nil, err
			}
		}
		ns := shard.MergeNeighbors(lists, k)
		ids, dists := make([]int, len(ns)), make([]float64, len(ns))
		for i, nb := range ns {
			ids[i], dists[i] = nb.ID, nb.Dist
		}
		return ids, dists, nil
	}
	return o
}

// TestPrecisionMatrix: every entry point stores one precision and installs
// the scorer it calls for, and answers as the same build did before.
func TestPrecisionMatrix(t *testing.T) {
	c := newMatrixCorpus(t)
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	imported := func(path string, f32 bool) *qdcbir.System {
		sys, err := buildImported(path, "", f32, 2, 16, 0.2, "str", false, log)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	fromBatch := func(f32 bool) *qdcbir.System {
		sys, err := qdcbir.BuildFromSource(qdcbir.Config{Seed: 2, NodeCapacity: 16, RepFraction: 0.2}, batchSource{c.batch(f32)})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	built := func(quantized bool) *qdcbir.System {
		sys, err := qdcbir.Build(qdcbir.Config{Seed: 4, Images: 300, Categories: 6, NodeCapacity: 16, RepFraction: 0.2, VectorMode: true, Quantized: quantized})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	cases := []struct {
		name string
		prec store.Precision
		open func(t *testing.T) opened
		want uint64
	}{
		{"Build", store.Float64, func(t *testing.T) opened { return systemOpened(built(false)) }, 0x1fe58fc75c36518d},
		{"Build/quantized", store.Float64, func(t *testing.T) opened { return systemOpened(built(true)) }, 0x1fe58fc75c36518d},
		{"BuildFromSource/f32-batch", store.Float32, func(t *testing.T) opened { return systemOpened(fromBatch(true)) }, 0x1f88f0eb215fa57b},
		{"BuildFromSource/f64-batch", store.Float64, func(t *testing.T) opened { return systemOpened(fromBatch(false)) }, 0xda9f54fe63336ba2},
		{"qdbuild -import fvecs -f32", store.Float32, func(t *testing.T) opened { return systemOpened(imported(c.fvecs, true)) }, 0x1f88f0eb215fa57b},
		{"qdbuild -import fvecs", store.Float64, func(t *testing.T) opened { return systemOpened(imported(c.fvecs, false)) }, 0xc3ac943dfafa0f1c},
		{"qdbuild -import csv -f32", store.Float32, func(t *testing.T) opened { return systemOpened(imported(c.csv, true)) }, 0x1f88f0eb215fa57b},
		{"qdbuild -import csv", store.Float64, func(t *testing.T) opened { return systemOpened(imported(c.csv, false)) }, 0xda9f54fe63336ba2},
		{"Load archive_v3_f32.gob", store.Float32, func(t *testing.T) opened {
			sys, err := qdcbir.LoadFile(filepath.Join("..", "..", "testdata", "archive_v3_f32.gob"))
			if err != nil {
				t.Fatal(err)
			}
			return systemOpened(sys)
		}, 0x668c12780c8b8619},
		{"OpenDynamic/f32", store.Float32, func(t *testing.T) opened {
			return dynamicOpened(t, withInserts(t, imported(c.fvecs, true)), len(c.rows))
		}, 0x3b6a2b017b528267},
		{"OpenDynamic/f64", store.Float64, func(t *testing.T) opened {
			return dynamicOpened(t, withInserts(t, imported(c.csv, false)), len(c.rows))
		}, 0x9ef14594dded2868},
		{"LoadDynamic/f32", store.Float32, func(t *testing.T) opened {
			return dynamicOpened(t, reloadDynamic(t, withInserts(t, imported(c.fvecs, true))), len(c.rows))
		}, 0x3b6a2b017b528267},
		{"LoadDynamic/f64", store.Float64, func(t *testing.T) opened {
			return dynamicOpened(t, reloadDynamic(t, withInserts(t, imported(c.csv, false))), len(c.rows))
		}, 0x9ef14594dded2868},
		{"SliceShards/f32", store.Float32, func(t *testing.T) opened { return fleetOpened(t, imported(c.fvecs, true)) }, 0x1f88f0eb215fa57b},
		{"SliceShards/f64", store.Float64, func(t *testing.T) opened { return fleetOpened(t, imported(c.csv, false)) }, 0xda9f54fe63336ba2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.open(t)
			if o.prec != tc.prec {
				t.Fatalf("rows stored at %v, want %v", o.prec, tc.prec)
			}
			if o.f32 != (o.prec == store.Float32) {
				t.Fatalf("%v rows with the float32 scorer installed = %v", o.prec, o.f32)
			}
			if got := answerDigest(t, o); got != tc.want {
				t.Errorf("answers digest %#x, want %#x", got, tc.want)
			}
		})
	}
}
