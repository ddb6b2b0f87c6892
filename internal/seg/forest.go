package seg

import (
	"context"

	"qdcbir/internal/core"
	"qdcbir/internal/disk"
	"qdcbir/internal/rstar"
	"qdcbir/internal/vec"
)

// Node is one node of a snapshot's forest: a node of one sealed segment's
// tree.
type Node struct {
	seg  int
	node *rstar.Node
}

// Forest returns the pinned snapshot's sealed segments as a feedback round
// machine's hierarchy: every segment's root is a root, and each segment's
// R*-tree descends exactly as the monolithic structure does. A node's page
// key folds in its segment (segment position << 32 | node page ID), so the
// single segment an adopted corpus becomes keys its nodes as the monolithic
// structure does. Representatives are global IDs with tombstones filtered
// out. Memtable rows are not browsable — they become visible to the feedback
// loop once sealed — but the final round (QueryByExamplesCtx) always sees
// them. Keys name positions in this snapshot only.
func (s *Snapshot) Forest() core.Hierarchy[Node, int] {
	return &forest{snap: s, reps: make(map[uint64][]int)}
}

// FinalizeSession runs a forest session's final round over this snapshot:
// QueryByExamplesCtx with the session's panel and weights.
func (s *Snapshot) FinalizeSession(ctx context.Context, m *core.Machine[Node, int], k int) (*core.Answer, error) {
	return core.Finalize(m, k, func(relevant []int, weights vec.Vector) (*core.Answer, core.Stats, error) {
		res, err := s.QueryByExamplesCtx(ctx, relevant, k, weights)
		return res, core.Stats{}, err
	})
}

type forest struct {
	snap *Snapshot
	reps map[uint64][]int // live global representatives by page key
}

func (f *forest) Roots(dst []Node) []Node {
	for i, sv := range f.snap.segs {
		if root := sv.seg.rfs.Root(); root != nil {
			dst = append(dst, Node{seg: i, node: root})
		}
	}
	return dst
}

// Reps maps a node's live representatives to global IDs once per node: the
// snapshot is immutable, so the list holds for the forest's whole life.
func (f *forest) Reps(n Node) []int {
	key := f.Key(n)
	if reps, ok := f.reps[key]; ok {
		return reps
	}
	sv := f.snap.segs[n.seg]
	var reps []int
	for _, local := range sv.seg.rfs.Reps(n.node, nil) {
		if !sv.tomb.Get(int(local)) {
			reps = append(reps, sv.seg.ids[local])
		}
	}
	f.reps[key] = reps
	return reps
}

func (f *forest) Child(n Node, id int) (Node, bool) {
	sg := f.snap.segs[n.seg].seg
	local := sg.localOf(id)
	if local < 0 {
		return Node{}, false
	}
	c := sg.rfs.ChildContaining(n.node, rstar.ItemID(local))
	return Node{seg: n.seg, node: c}, c != nil
}

func (f *forest) Leaf(n Node) bool  { return n.node.IsLeaf() }
func (f *forest) Size(n Node) int   { return f.snap.segs[n.seg].seg.rfs.SubtreeSize(n.node) }
func (f *forest) Key(n Node) uint64 { return uint64(n.seg)<<32 | uint64(n.node.ID()) }
func (f *forest) Has(id int) bool   { _, ok := f.snap.VectorOf(id); return ok }
func (f *forest) Node(key uint64) (Node, bool) {
	seg := int(key >> 32)
	if seg >= len(f.snap.segs) {
		return Node{}, false
	}
	n := f.snap.segs[seg].seg.rfs.NodeByID(disk.PageID(key & (1<<32 - 1)))
	return Node{seg: seg, node: n}, n != nil
}
