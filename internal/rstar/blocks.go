package rstar

// This file maintains the tree-owned flat point slab: one contiguous,
// dimension-strided []float64 holding every indexed point in depth-first
// leaf order. Each leaf's items alias their rows (zero-copy vec.Vector
// views), and the leaf's block field exposes its row range so k-NN can score
// a whole leaf with one vec.SquaredDistsTo call. The slab also collapses the
// tree's point storage from one heap allocation per item to one per tree.
// Every internal node gets the same treatment for its children's rectangles:
// a box that bounds them all in one kernel pass.

// packBlocks builds the slab from the leaves, the internal nodes' boxes,
// and every node's slab row range. Item points are copied into the slab and
// the items re-aimed at their rows, so callers' input slices are never
// retained. Every constructor calls it once, last.
func (t *Tree) packBlocks() {
	if t.size == 0 {
		return
	}
	slab := make([]float64, t.size*t.dim)
	off := 0
	var inner []*Node
	boxed := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		n.qlo = off / t.dim
		if n.leaf {
			start := off
			for i := range n.items {
				row := slab[off : off+t.dim : off+t.dim]
				copy(row, n.items[i].Point)
				n.items[i].Point = row
				off += t.dim
			}
			n.block = slab[start:off:off]
		} else {
			inner = append(inner, n)
			boxed += len(n.children)
			for _, c := range n.children {
				walk(c)
			}
		}
		n.qhi = off / t.dim
	}
	walk(t.root)
	t.slab = slab
	t.packBoxes(inner, boxed)
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
