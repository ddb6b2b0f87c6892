package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"runtime/debug"
	"strings"
	"testing"

	"qdcbir/internal/offheap"
)

// tinyArchive is a hand-built three-row shard over a two-leaf, 2-d topology:
// enough for every check ReadArchive makes, without building a system.
func tinyArchive(storage string) *Archive {
	topo := &Topology{
		Nodes: []NodeInfo{
			{ID: 1, Parent: -1, Size: 6, Center: []float64{0.5, 0.5}, Diag: 1.5, Reps: []int{0, 5}},
			{ID: 2, Parent: 0, Leaf: true, Size: 3, Center: []float64{0, 0}, Diag: 1, Reps: []int{0}, RepLabels: []string{"a"}},
			{ID: 3, Parent: 0, Leaf: true, Size: 3, Center: []float64{1, 1}, Diag: 1, Reps: []int{5}, RepLabels: []string{"b"}},
		},
	}
	a := &Archive{
		Meta: Meta{
			ShardIndex: 1, ShardCount: 2, Images: 6, LocalImages: 3, Dim: 2,
			Storage: storage, ArchiveVersion: ArchiveVersion, DisplayCount: 2,
		},
		Topo:    topo,
		Globals: []int{0, 2, 5},
		LeafID:  []uint64{2, 3, 2},
		Labels:  []string{"a", "b", "a"},
	}
	// Slab order: leaf 2 holds local rows 0 and 2, then leaf 3 holds row 1.
	slab := []float64{0.25, -1, 0.5, 0.125, 1, 2}
	if storage == "f32" {
		for _, v := range slab {
			a.Rows.F32 = append(a.Rows.F32, float32(v))
		}
	} else {
		a.Rows.F64 = slab
	}
	return a
}

func encode(t testing.TB, a *Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeUnchecked writes an archive the way Write does but without its
// checks, so tests can hand ReadArchive headers Write would refuse.
func encodeUnchecked(t testing.TB, a *Archive, rowBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(shardMagic[:])
	h := *a
	h.Rows = Rows{}
	if err := gob.NewEncoder(&buf).Encode(&h); err != nil {
		t.Fatal(err)
	}
	buf.Write(make([]byte, rowBytes))
	return buf.Bytes()
}

func TestShardArchiveRoundTrip(t *testing.T) {
	for _, storage := range []string{"f64", "f32"} {
		a := tinyArchive(storage)
		got, err := ReadArchive(bytes.NewReader(encode(t, a)))
		if err != nil {
			t.Fatalf("%s: %v", storage, err)
		}
		rep, err := NewReplica(got)
		if err != nil {
			t.Fatalf("%s: %v", storage, err)
		}
		defer rep.Close()
		// Local row 1 (global 2) is the last slab row.
		p, ok := rep.PointInfo(2)
		if !ok || p.Vec[0] != 1 || p.Vec[1] != 2 || p.Leaf != 3 || p.Label != "b" {
			t.Fatalf("%s: PointInfo(2) = %+v, %v", storage, p, ok)
		}
		ns, err := rep.SearchNode(context.Background(), 1, []float64{1, 2}, nil, 2)
		if err != nil || len(ns) != 2 || ns[0].ID != 2 || ns[0].Dist != 0 {
			t.Fatalf("%s: SearchNode = %+v, %v", storage, ns, err)
		}
	}
}

// TestShardArchiveRetiredQuantizedFlag: an archive written while Meta still
// carried a Quantized flag and a scan Precision beside Storage loads, and its
// replica answers; gob drops the retired fields (the rows' storage is their
// scan precision now).
func TestShardArchiveRetiredQuantizedFlag(t *testing.T) {
	a := tinyArchive("f32")
	m := a.Meta
	old := struct {
		Meta struct {
			ShardIndex, ShardCount, Images, LocalImages, Dim int
			Precision, Storage                               string
			Quantized                                        bool
			ArchiveVersion                                   int
			CorpusSig                                        uint64
			Boundary                                         float64
			DisplayCount                                     int
		}
		Topo    *Topology
		Globals []int
		LeafID  []uint64
		Labels  []string
	}{Topo: a.Topo, Globals: a.Globals, LeafID: a.LeafID, Labels: a.Labels}
	om := &old.Meta
	om.ShardIndex, om.ShardCount, om.Images, om.LocalImages, om.Dim = m.ShardIndex, m.ShardCount, m.Images, m.LocalImages, m.Dim
	om.Precision, om.Storage, om.Quantized, om.ArchiveVersion = m.Storage, m.Storage, true, m.ArchiveVersion
	om.CorpusSig, om.Boundary, om.DisplayCount = m.CorpusSig, m.Boundary, m.DisplayCount
	var buf bytes.Buffer
	buf.Write(shardMagic[:])
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	for _, v := range a.Rows.F32 {
		buf.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
	}
	got, err := ReadArchive(&buf)
	if err != nil {
		t.Fatalf("archive with a Quantized flag: %v", err)
	}
	if got.Meta != a.Meta {
		t.Fatalf("meta %+v, want %+v", got.Meta, a.Meta)
	}
	rep, err := NewReplica(got)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if ns, err := rep.SearchNode(context.Background(), 1, []float64{1, 2}, nil, 2); err != nil || len(ns) != 2 || ns[0].ID != 2 {
		t.Fatalf("SearchNode = %+v, %v", ns, err)
	}
}

// TestShardArchiveChecks pins the refusals ReadArchive makes before it
// allocates the slab, and the named refusal of a version-1 archive.
func TestShardArchiveChecks(t *testing.T) {
	good := encode(t, tinyArchive("f32"))
	v1 := append([]byte(nil), good...)
	v1[3] = 1
	if _, err := ReadArchive(bytes.NewReader(v1)); !errors.Is(err, ErrStaleArchive) || !strings.Contains(err.Error(), "qdbuild -shards") {
		t.Fatalf("v1 archive: %v, want ErrStaleArchive naming qdbuild -shards", err)
	}
	if _, err := ReadArchive(bytes.NewReader(good[:len(good)-1])); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated rows: %v", err)
	}
	if _, err := ReadArchive(bytes.NewReader(append(append([]byte(nil), good...), 0))); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: %v", err)
	}
	for name, mutate := range map[string]func(a *Archive){
		"more local images than globals": func(a *Archive) { a.Meta.LocalImages = 4 },
		"short labels":                   func(a *Archive) { a.Labels = a.Labels[:2] },
		"short leaf table":               func(a *Archive) { a.LeafID = a.LeafID[:2] },
		"globals out of order":           func(a *Archive) { a.Globals = []int{0, 5, 2} },
		"global outside corpus":          func(a *Archive) { a.Globals = []int{0, 2, 6} },
		"negative global":                func(a *Archive) { a.Globals = []int{-1, 2, 5} },
		"absurd dim":                     func(a *Archive) { a.Meta.Dim = 1 << 40 },
		"center of another dim":          func(a *Archive) { a.Meta.Dim = 3 },
		"unknown storage":                func(a *Archive) { a.Meta.Storage = "f16" },
		"shard outside fleet":            func(a *Archive) { a.Meta.ShardIndex = 2 },
		"no topology":                    func(a *Archive) { a.Topo = nil },
	} {
		a := tinyArchive("f32")
		mutate(a)
		_, err := ReadArchive(bytes.NewReader(encodeUnchecked(t, a, 24)))
		if err == nil || !strings.HasPrefix(err.Error(), "shard: ") {
			t.Errorf("%s: ReadArchive = %v, want a shard error", name, err)
		}
	}
	// A leaf assignment the topology does not know surfaces at assembly.
	a := tinyArchive("f64")
	a.LeafID[1] = 1 // the root, not a leaf
	if _, err := NewReplica(a); err == nil {
		t.Fatal("row assigned to an inner node accepted")
	}
}

// FuzzReadShardArchive feeds ReadArchive and replica assembly truncations,
// bit flips and absurd counts: every input either opens a replica that
// answers searches or fails with a shard error — never a panic — and leaves
// no slab mapping behind once its archive is released and its replica
// closed.
func FuzzReadShardArchive(f *testing.F) {
	for _, storage := range []string{"f64", "f32"} {
		good := encode(f, tinyArchive(storage))
		f.Add(good)
		f.Add(good[:len(good)/2])
		flipped := append([]byte(nil), good...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	huge := tinyArchive("f64")
	huge.Meta.LocalImages, huge.Meta.Images = 1<<40, 1<<41
	f.Add(encodeUnchecked(f, huge, 0))
	f.Add([]byte{0xD1, 'Q', 'S', 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		live := offheap.Live()
		defer func() {
			if now := offheap.Live(); now != live {
				t.Fatalf("%d slab mappings live after the input, %d before", now, live)
			}
		}()
		a, err := ReadArchive(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "shard: ") {
				t.Fatalf("unstructured error %q", err)
			}
			return
		}
		defer a.Release()
		rep, err := NewReplica(a)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "shard: ") {
				t.Fatalf("unstructured error %q", err)
			}
			return
		}
		defer rep.Close()
		q := make([]float64, rep.Meta().Dim)
		if _, err := rep.SearchNode(context.Background(), rep.Topo().RootID(), q, nil, 3); err != nil {
			t.Fatalf("opened replica cannot search: %v", err)
		}
		for _, gid := range a.Globals {
			if _, ok := rep.PointInfo(gid); !ok {
				t.Fatalf("opened replica lost image %d", gid)
			}
		}
	})
}

// TestReplicaSlabSealed: a replica's mapping is read-only once assembled, so
// a store into its slab faults, whichever path filled it — ReadArchive's
// decode or NewReplica's copy of an in-memory archive.
func TestReplicaSlabSealed(t *testing.T) {
	if !offheap.Mapped {
		t.Skip("slabs are heap arrays on this platform")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, storage := range []string{"f64", "f32"} {
		decoded, err := ReadArchive(bytes.NewReader(encode(t, tinyArchive(storage))))
		if err != nil {
			t.Fatal(err)
		}
		for name, a := range map[string]*Archive{"decoded": decoded, "in memory": tinyArchive(storage)} {
			rep, err := NewReplica(a)
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: a store into the slab did not fault", storage, name)
					}
				}()
				if rep.rows.F64 != nil {
					rep.rows.F64[0] = 7
				} else {
					rep.rows.F32[0] = 7
				}
			}()
			rep.Close()
		}
	}
}
