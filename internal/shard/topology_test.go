package shard

import (
	"math/rand"
	"testing"

	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/vec"
)

// TestTopologySpan checks every node's pre-order span on a built topology:
// it holds exactly the node and its descendants, and its leaves hold exactly
// the node's images.
func TestTopologySpan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]vec.Vector, 900)
	for i := range pts {
		pts[i] = vec.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	s := rfs.Build(pts, rfs.BuildConfig{Tree: rstar.Config{MaxFill: 8, MinFill: 3}, TargetFill: 7, Seed: 1})
	topo := TopologyOf(s, nil)
	if topo.Height() < 3 {
		t.Fatalf("height %d: the tree is too shallow to nest spans", topo.Height())
	}
	for i, n := range topo.Nodes {
		lo, hi := topo.Span(i)
		if lo != i {
			t.Fatalf("node %d span starts at %d", i, lo)
		}
		leafImages := 0
		for j := range topo.Nodes {
			under := false
			for a := j; a >= 0; a = topo.Nodes[a].Parent {
				if a == i {
					under = true
					break
				}
			}
			if in := lo <= j && j < hi; in != under {
				t.Fatalf("node %d span [%d, %d): node %d in span %v, descendant %v", i, lo, hi, j, in, under)
			}
			if under && topo.Nodes[j].Leaf {
				leafImages += topo.Nodes[j].Size
			}
		}
		if leafImages != n.Size {
			t.Fatalf("node %d span's leaves hold %d images, node holds %d", i, leafImages, n.Size)
		}
	}
}

// TestTopologyIndexRejectsSplitSubtree decodes a table whose parents all
// precede their children but whose node 1 has a sibling between it and its
// child: its span would hold a non-descendant, so Index refuses it.
func TestTopologyIndexRejectsSplitSubtree(t *testing.T) {
	topo := &Topology{Nodes: []NodeInfo{
		{ID: 10, Parent: -1},
		{ID: 11, Parent: 0},
		{ID: 12, Parent: 0, Leaf: true},
		{ID: 13, Parent: 1, Leaf: true},
	}}
	if err := topo.Index(); err == nil {
		t.Fatal("Index accepted a subtree split by a sibling")
	}
	topo.Nodes[2], topo.Nodes[3] = topo.Nodes[3], topo.Nodes[2]
	if err := topo.Index(); err != nil {
		t.Fatalf("Index refused the pre-order table: %v", err)
	}
	for i, want := range []int{4, 3, 3, 4} {
		if _, hi := topo.Span(i); hi != want {
			t.Fatalf("node %d span ends at %d, want %d", i, hi, want)
		}
	}
}
