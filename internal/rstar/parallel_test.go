package rstar

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"qdcbir/internal/vec"
)

func randomItems(n, dim int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		p := make(vec.Vector, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		items[i] = Item{ID: ItemID(i), Point: p}
	}
	return items
}

// treeShape flattens the tree into a comparable form: per-node page ID, leaf
// flag, and entry IDs in stored order.
func treeShape(t *Tree) [][]int64 {
	var shape [][]int64
	t.Walk(func(n *Node, level int) {
		row := []int64{int64(n.ID()), int64(level)}
		if n.IsLeaf() {
			for _, it := range n.Items() {
				row = append(row, int64(it.ID))
			}
		} else {
			for _, c := range n.Children() {
				row = append(row, int64(c.ID()))
			}
		}
		shape = append(shape, row)
	})
	return shape
}

// TestBulkLoadParallelismInvariant: STR bulk loading must produce the exact
// same tree — page IDs, node membership, item order — at every worker count.
func TestBulkLoadParallelismInvariant(t *testing.T) {
	items := randomItems(3000, 6, 42)
	base := BulkLoad(6, Config{MaxFill: 24}, items, 20)
	baseShape := treeShape(base)
	for _, p := range []int{1, 2, 8} {
		tr, err := BulkLoadCtx(context.Background(), 6, Config{MaxFill: 24}, items, 20, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		shape := treeShape(tr)
		if len(shape) != len(baseShape) {
			t.Fatalf("p=%d: %d nodes vs %d", p, len(shape), len(baseShape))
		}
		for i := range shape {
			if len(shape[i]) != len(baseShape[i]) {
				t.Fatalf("p=%d: node %d row mismatch", p, i)
			}
			for j := range shape[i] {
				if shape[i][j] != baseShape[i][j] {
					t.Fatalf("p=%d: node %d field %d: %d vs %d",
						p, i, j, shape[i][j], baseShape[i][j])
				}
			}
		}
	}
}

func TestInsertLoadCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := InsertLoadCtx(ctx, 4, Config{MaxFill: 10}, randomItems(500, 4, 7)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBulkLoadCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BulkLoadCtx(ctx, 4, Config{MaxFill: 10}, randomItems(500, 4, 7), 8, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestKNNCtxCancelled(t *testing.T) {
	items := randomItems(2000, 5, 9)
	tr := BulkLoad(5, Config{MaxFill: 16}, items, 14)
	q := items[0].Point

	ns, err := tr.KNNSearch(context.Background(), tr.Root(), nil, Query{Q: q, K: 10})
	if err != nil || len(ns) != 10 {
		t.Fatalf("live context: %d results, err=%v", len(ns), err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.KNNSearch(ctx, tr.Root(), nil, Query{Q: q, K: 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	w := make(vec.Vector, 5)
	for i := range w {
		w[i] = 1
	}
	if _, err := tr.KNNSearch(ctx, tr.Root(), w, Query{Q: q, K: 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("weighted err = %v, want context.Canceled", err)
	}
}
