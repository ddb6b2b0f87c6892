package rstar

// This file maintains the tree-owned flat point slab: one contiguous,
// dimension-strided []float64 holding every indexed point in depth-first
// leaf order. Each leaf's items alias their rows (zero-copy vec.Vector
// views), and the leaf's block field exposes its row range so k-NN can score
// a whole leaf with one vec.SquaredDistsTo call. The slab also collapses the
// tree's point storage from one heap allocation per item to one per tree.
// Every internal node gets the same treatment for its children's rectangles:
// a box that bounds them all in one kernel pass.

// packBlocks (re)builds the slab from the current leaves, and the internal
// nodes' boxes. Item points are copied into the slab and the items re-aimed
// at their rows, so whatever memory the points previously referenced is
// released and callers' input slices are never retained.
func (t *Tree) packBlocks() {
	if t.size == 0 {
		t.blocksOK = false
		t.slab = nil
		return
	}
	slab := make([]float64, t.size*t.dim)
	off := 0
	var inner []*Node
	boxed := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.leaf {
			start := off
			for i := range n.items {
				row := slab[off : off+t.dim : off+t.dim]
				copy(row, n.items[i].Point)
				n.items[i].Point = row
				off += t.dim
			}
			n.block = slab[start:off:off]
			return
		}
		inner = append(inner, n)
		boxed += len(n.children)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	t.slab = slab
	t.packBoxes(inner, boxed)
	t.blocksOK = true
}

// packBoxes lays each internal node's children's rectangles out as the box
// vec.MinDistSqChildren reads: for each dimension d, every child's Min[d],
// then every child's Max[d]. All boxes share one allocation of 2·dim floats
// per child, which is not persisted: a load rebuilds it.
func (t *Tree) packBoxes(inner []*Node, children int) {
	all := make([]float64, 2*t.dim*children)
	for _, n := range inner {
		k := len(n.children)
		box := all[: 2*k*t.dim : 2*k*t.dim]
		all = all[2*k*t.dim:]
		for c, ch := range n.children {
			for d := 0; d < t.dim; d++ {
				box[2*k*d+c] = ch.rect.Min[d]
				box[2*k*d+k+c] = ch.rect.Max[d]
			}
		}
		n.box = box
	}
}

// invalidateBlocks drops the leaf-block acceleration, and the children's
// boxes with it, before a structural mutation. Item points keep aliasing the
// old slab (values stay valid; the slab is only garbage once every item has
// migrated elsewhere), but the per-leaf row correspondence is gone, so
// searches revert to per-item scoring and per-child bounds.
func (t *Tree) invalidateBlocks() {
	// The quantized codes and the float32 mirror track the slab row-for-row,
	// so they die with it; those searches then report not-ready and callers
	// fall back to the exact path until the scoring modes are re-enabled.
	t.invalidateQuantized()
	t.invalidateFloat32()
	if !t.blocksOK {
		return
	}
	t.blocksOK = false
	t.slab = nil
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.leaf {
			n.block = nil
			return
		}
		n.box = nil
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
}

// BlocksPacked reports whether the leaf-block acceleration is active
// (exported for tests and diagnostics).
func (t *Tree) BlocksPacked() bool { return t.blocksOK }

// SetBlockScoring toggles the leaf-block batch kernels, and the children's
// boxes, at runtime. Disabling reverts every search to per-item scalar
// scoring and per-child bounds; re-enabling repacks the slab and the boxes.
// Results, SearchStats, and Accounter traffic are identical either way — the
// agreement tests rely on this switch to compare the two paths.
func (t *Tree) SetBlockScoring(enabled bool) {
	if enabled {
		if !t.blocksOK {
			t.packBlocks()
		}
		return
	}
	t.invalidateBlocks()
}
