package rstar

import (
	"context"
	"fmt"
	"math"
	"slices"

	"qdcbir/internal/par"
	"qdcbir/internal/vec"
)

// BulkLoad builds a tree over the given items using Sort-Tile-Recursive (STR)
// packing. Leaves are filled to targetFill entries (clamped to the configured
// occupancy band), which is how the system realises the paper's "maximum of
// 100 and minimum of 70 images each" node occupancy: with targetFill in
// [85, 100] a 15,000-image corpus packs into a 3-level tree exactly as in §4.
//
// STR tiles the points recursively: sort by the first tiling dimension, cut
// into vertical slabs, recurse within each slab on the next dimension, and
// chunk the final runs into leaves. Because the feature space has 37
// dimensions but only on the order of 100-200 leaves, tiling uses only as
// many dimensions as needed (ceil over the slab arithmetic).
func BulkLoad(dim int, cfg Config, items []Item, targetFill int) *Tree {
	t, err := BulkLoadCtx(context.Background(), dim, cfg, items, targetFill, 0)
	if err != nil {
		panic(fmt.Sprintf("rstar: bulk load: %v", err)) // unreachable: ctx never cancels
	}
	return t
}

// BulkLoadCtx is BulkLoad with cancellation and a parallelism knob
// (parallelism <= 0 uses one worker per CPU). The sort phases of the STR
// tiling — where nearly all the build time goes — run concurrently across
// slabs; node creation stays serial so page IDs, and therefore the whole
// tree, are byte-identical at every worker count.
func BulkLoadCtx(ctx context.Context, dim int, cfg Config, items []Item, targetFill, parallelism int) (*Tree, error) {
	cfg = cfg.withDefaults()
	t := &Tree{dim: dim, cfg: cfg, height: 1, fromBulk: true}
	if targetFill <= 0 || targetFill > cfg.MaxFill {
		targetFill = cfg.MaxFill
	}
	if targetFill < cfg.MinFill {
		targetFill = cfg.MinFill
	}
	if len(items) == 0 {
		t.root = t.newNode(true)
		return t, nil
	}
	for _, it := range items {
		if len(it.Point) != dim {
			panic(fmt.Sprintf("rstar: bulk item dim %d into %d-d tree", len(it.Point), dim))
		}
	}

	// The working copy shares the callers' point slices read-only; packBlocks
	// below copies every point into the tree-owned slab, so the finished tree
	// retains no caller memory and callers may reuse their slices.
	own := make([]Item, len(items))
	copy(own, items)

	chunks, err := tileItems(ctx, own, dim, targetFill, 0, par.N(parallelism))
	if err != nil {
		return nil, err
	}
	leaves := make([]*Node, 0, len(chunks))
	for _, chunk := range chunks {
		leaf := t.newNode(true)
		leaf.items = append([]Item(nil), chunk...)
		leaf.rect = nodeMBR(leaf)
		leaves = append(leaves, leaf)
	}
	level := leaves
	for len(level) > 1 {
		level = packInternal(t, level, targetFill)
		t.height++
	}
	t.root = level[0]
	t.size = len(items)
	t.packBlocks()
	return t, nil
}

// tileItems recursively tiles items into leaf-sized runs of at most
// targetFill entries, returning them in tiling order. Sorting mutates the
// items slice in place; recursive calls operate on disjoint subslices, so
// slabs sort concurrently without synchronization and the resulting
// partition is identical to the serial one.
func tileItems(ctx context.Context, items []Item, dim, targetFill, axis, p int) ([][]Item, error) {
	n := len(items)
	if n <= targetFill {
		return [][]Item{items}, nil
	}
	pages := int(math.Ceil(float64(n) / float64(targetFill)))
	// Number of slabs along this axis: ceil(sqrt(pages)) keeps tiles roughly
	// square in the projected plane, the classic STR choice.
	slabs := int(math.Ceil(math.Sqrt(float64(pages))))
	if slabs < 1 {
		slabs = 1
	}
	// The comparator is the relation a < b, 0 where neither key is less (NaN
	// included), and slices.SortStableFunc runs sort.Stable's algorithm, so
	// the tiling is sort.SliceStable's without its reflection-based swaps.
	slices.SortStableFunc(items, func(a, b Item) int {
		switch x, y := a.Point[axis], b.Point[axis]; {
		case x < y:
			return -1
		case y < x:
			return 1
		}
		return 0
	})
	perSlab := int(math.Ceil(float64(n) / float64(slabs)))
	type span struct{ lo, hi int }
	var spans []span
	for lo := 0; lo < n; lo += perSlab {
		hi := lo + perSlab
		if hi > n {
			hi = n
		}
		spans = append(spans, span{lo, hi})
	}
	nextAxis := (axis + 1) % dim
	// Split the worker budget across slabs so the total stays bounded at
	// every recursion depth.
	subP := p / len(spans)
	if subP < 1 {
		subP = 1
	}
	results := make([][][]Item, len(spans))
	err := par.Do(ctx, len(spans), p, func(i int) error {
		slab := items[spans[i].lo:spans[i].hi]
		if slabs == 1 || len(slab) <= targetFill {
			// Chunk directly to avoid infinite recursion on tiny slabs.
			var chunks [][]Item
			for s := 0; s < len(slab); s += targetFill {
				e := s + targetFill
				if e > len(slab) {
					e = len(slab)
				}
				chunks = append(chunks, slab[s:e])
			}
			results[i] = chunks
			return nil
		}
		sub, err := tileItems(ctx, slab, dim, targetFill, nextAxis, subP)
		results[i] = sub
		return err
	})
	if err != nil {
		return nil, err
	}
	var out [][]Item
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}

// packInternal groups consecutive nodes (already spatially coherent from STR
// ordering) into parents of about targetFill children.
func packInternal(t *Tree, nodes []*Node, targetFill int) []*Node {
	var parents []*Node
	for lo := 0; lo < len(nodes); lo += targetFill {
		hi := lo + targetFill
		if hi > len(nodes) {
			hi = len(nodes)
		}
		p := t.newNode(false)
		p.children = append([]*Node(nil), nodes[lo:hi]...)
		for _, c := range p.children {
			c.parent = p
		}
		p.rect = nodeMBR(p)
		parents = append(parents, p)
	}
	// Avoid a root with a single child unless it is the final root.
	if len(parents) >= 2 {
		last := parents[len(parents)-1]
		if len(last.children) == 1 && len(parents[len(parents)-2].children) > 2 {
			prev := parents[len(parents)-2]
			moved := prev.children[len(prev.children)-1]
			prev.children = prev.children[:len(prev.children)-1]
			moved.parent = last
			last.children = append([]*Node{moved}, last.children...)
			prev.rect = nodeMBR(prev)
			last.rect = nodeMBR(last)
		}
	}
	return parents
}

// ItemsOf returns all items stored in the tree, in depth-first leaf order.
func (t *Tree) ItemsOf() []Item {
	return itemsInSubtree(t.root, make([]Item, 0, t.size))
}

// Points returns a map from ItemID to its stored point. Useful for building
// lookup tables after a bulk load.
func (t *Tree) Points() map[ItemID]vec.Vector {
	m := make(map[ItemID]vec.Vector, t.size)
	for _, it := range t.ItemsOf() {
		m[it.ID] = it.Point
	}
	return m
}
