package rstar

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"qdcbir/internal/vec"
)

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 300, 4, 10)
	orig := buildTree(t, pts, smallCfg)

	snap := orig.Snapshot()
	loaded, err := FromSnapshot(snap)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	if loaded.Len() != orig.Len() || loaded.Height() != orig.Height() || loaded.Dim() != orig.Dim() {
		t.Fatalf("shape mismatch: len %d/%d h %d/%d",
			loaded.Len(), orig.Len(), loaded.Height(), orig.Height())
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Identical k-NN behaviour.
	for trial := 0; trial < 10; trial++ {
		q := randPoints(rng, 1, 4, 10)[0]
		a := orig.KNN(q, 7, nil)
		b := loaded.KNN(q, 7, nil)
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
				t.Fatalf("kNN differs at rank %d", i)
			}
		}
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	tr := BulkLoad(2, smallCfg, []Item{{1, vec.Vector{1, 2}}}, 0)
	snap := tr.Snapshot()
	// Writing through the live tree's points must not corrupt the snapshot.
	tr.Root().Items()[0].Point[0] = 99
	loaded, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.KNN(vec.Vector{1, 2}, 1, nil)
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("snapshot corrupted by later mutation: %+v", got)
	}
}

func TestSnapshotGobEncodes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randPoints(rng, 120, 3, 5)
	tr := BulkLoad(3, smallCfg, bulkItems(pts), 8)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tr.Snapshot()); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var snap TreeSnapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	loaded, err := FromSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 120 {
		t.Fatalf("len = %d", loaded.Len())
	}
}

func TestFromSnapshotRejectsMalformed(t *testing.T) {
	cases := map[string]*TreeSnapshot{
		"nil":      nil,
		"nil root": {Dim: 2},
		"bad dim":  {Dim: 0, Root: &NodeSnapshot{Leaf: true}},
		"leaf with children": {Dim: 2, Root: &NodeSnapshot{
			Leaf:     true,
			Children: []*NodeSnapshot{{Leaf: true}},
		}},
		"internal with items": {Dim: 2, Root: &NodeSnapshot{
			Items:    []Item{{ID: 1, Point: vec.Vector{1, 2}}},
			Children: []*NodeSnapshot{{Leaf: true}},
		}},
		"internal no children": {Dim: 2, Root: &NodeSnapshot{}},
		"item dim mismatch": {Dim: 3, Root: &NodeSnapshot{
			Leaf:  true,
			Items: []Item{{ID: 1, Point: vec.Vector{1, 2}}},
		}},
	}
	for name, snap := range cases {
		if _, err := FromSnapshot(snap); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSnapshotLoadDeterministicIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 200, 3, 5)
	tr := buildTree(t, pts, smallCfg)
	snap := tr.Snapshot()
	a, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	var idsA, idsB []uint64
	a.Walk(func(n *Node, _ int) { idsA = append(idsA, uint64(n.ID())) })
	b.Walk(func(n *Node, _ int) { idsB = append(idsB, uint64(n.ID())) })
	if len(idsA) != len(idsB) {
		t.Fatal("node counts differ")
	}
	for i := range idsA {
		if idsA[i] != idsB[i] {
			t.Fatalf("page IDs differ at %d: %d vs %d", i, idsA[i], idsB[i])
		}
	}
}
