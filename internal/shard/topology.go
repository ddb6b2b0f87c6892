package shard

import (
	"fmt"
	"math"
	"slices"

	"qdcbir/internal/core"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/vec"
)

// NodeInfo is one node of the single-node RFS hierarchy, reduced to exactly
// what distributed planning needs: identity and shape for subtree-restricted
// search, the §3.3 boundary geometry (Center/Diag feed the same BoundaryRatio
// arithmetic rfs.Structure computes from the live rectangle), the full-corpus
// subtree size that caps proportional allocation, and the node's
// representative images for remote feedback sessions.
type NodeInfo struct {
	ID     uint64    `json:"id"`
	Parent int       `json:"parent"` // index into Topology.Nodes; -1 for the root
	Leaf   bool      `json:"leaf"`
	Size   int       `json:"size"` // images under this node in the FULL corpus
	Center []float64 `json:"center"`
	Diag   float64   `json:"diag"`
	Reps   []int     `json:"reps,omitempty"` // representative image IDs, selection order
	// RepLabels carries a leaf's representatives' ground-truth labels,
	// parallel to Reps, so a shard can label candidates stored elsewhere.
	RepLabels []string `json:"rep_labels,omitempty"`
}

// Topology is the full single-node hierarchy every shard carries. Shards hold
// disjoint vector subsets but identical topology tables, so a router can plan
// a finalize round (grouping, expansion, allocation) once and every shard
// interprets node IDs identically. Nodes are stored in pre-order: a node's
// descendants form a contiguous run after it, and Parent always points
// backwards.
type Topology struct {
	Nodes []NodeInfo `json:"nodes"`

	idxOf    map[uint64]int
	children [][]int
	// end[i] is one past the index of node i's last descendant: node i and
	// its descendants are Nodes[i:end[i]].
	end []int
	// repLeaf maps each distinct representative image to the leaf that
	// stores it (every representative is chosen at its own leaf first).
	// Feedback descent (ChildContaining) walks up from the leaf; sessions only
	// ever mark displayed images, and displays draw from representatives, so
	// this map covers everything a remote session needs. repLabel holds their
	// labels. Both are derived by Index, so the table itself holds no maps.
	repLeaf  map[int]uint64
	repLabel map[int]string
}

// TopologyOf extracts the topology table from a built structure. label may be
// nil (no representative labels).
func TopologyOf(s *rfs.Structure, label func(id int) string) *Topology {
	t := &Topology{}
	var walk func(n *rstar.Node, parent int)
	walk = func(n *rstar.Node, parent int) {
		idx := len(t.Nodes)
		r := n.Rect()
		reps := s.Reps(n, nil)
		info := NodeInfo{
			ID:     uint64(n.ID()),
			Parent: parent,
			Leaf:   n.IsLeaf(),
			Size:   s.SubtreeSize(n),
			Center: append([]float64(nil), r.Center()...),
			Diag:   r.Diagonal(),
		}
		for _, id := range reps {
			info.Reps = append(info.Reps, int(id))
			if label != nil && n.IsLeaf() {
				info.RepLabels = append(info.RepLabels, label(int(id)))
			}
		}
		t.Nodes = append(t.Nodes, info)
		for _, c := range n.Children() {
			walk(c, idx)
		}
	}
	walk(s.Root(), -1)
	if err := t.Index(); err != nil {
		panic(fmt.Sprintf("shard: topology of valid structure: %v", err)) // unreachable
	}
	return t
}

// Index builds the derived lookup tables (node-ID index, child lists) after a
// decode, validating the pre-order invariants. Call once before using any
// other method on a deserialized Topology.
func (t *Topology) Index() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("shard: empty topology")
	}
	if t.Nodes[0].Parent != -1 {
		return fmt.Errorf("shard: topology node 0 is not a root (parent %d)", t.Nodes[0].Parent)
	}
	t.idxOf = make(map[uint64]int, len(t.Nodes))
	t.children = make([][]int, len(t.Nodes))
	for i, n := range t.Nodes {
		if _, dup := t.idxOf[n.ID]; dup {
			return fmt.Errorf("shard: duplicate topology node ID %d", n.ID)
		}
		t.idxOf[n.ID] = i
		if i > 0 {
			if n.Parent < 0 || n.Parent >= i {
				return fmt.Errorf("shard: topology node %d parent %d breaks pre-order", i, n.Parent)
			}
			if t.Nodes[n.Parent].Leaf {
				return fmt.Errorf("shard: topology node %d has leaf parent %d", i, n.Parent)
			}
			t.children[n.Parent] = append(t.children[n.Parent], i)
		}
	}
	// A node's descendants follow it in pre-order, so the nodes in
	// [i, end[i]) must number exactly its subtree's.
	t.end = make([]int, len(t.Nodes))
	under := make([]int, len(t.Nodes))
	for i := len(t.Nodes) - 1; i >= 0; i-- {
		t.end[i] = max(t.end[i], i+1)
		under[i]++
		if t.end[i]-i != under[i] {
			return fmt.Errorf("shard: topology node %d's descendants are not contiguous", i)
		}
		if p := t.Nodes[i].Parent; p >= 0 {
			t.end[p] = max(t.end[p], t.end[i])
			under[p] += under[i]
		}
	}
	t.repLeaf = make(map[int]uint64)
	t.repLabel = make(map[int]string)
	for _, n := range t.Nodes {
		if !n.Leaf {
			continue
		}
		if len(n.RepLabels) != 0 && len(n.RepLabels) != len(n.Reps) {
			return fmt.Errorf("shard: leaf %d has %d representatives but %d labels", n.ID, len(n.Reps), len(n.RepLabels))
		}
		for i, id := range n.Reps {
			t.repLeaf[id] = n.ID
			if len(n.RepLabels) != 0 {
				t.repLabel[id] = n.RepLabels[i]
			}
		}
	}
	return nil
}

// RepLabel returns a representative image's label ("" when unknown).
func (t *Topology) RepLabel(id int) string { return t.repLabel[id] }

// Height returns the hierarchy's depth, counting the root as level 1 — the
// single-node tree's Height.
func (t *Topology) Height() int {
	depth := make([]int, len(t.Nodes))
	for i, n := range t.Nodes[1:] {
		depth[i+1] = depth[n.Parent] + 1
	}
	return slices.Max(depth) + 1
}

// RepCount returns the number of distinct representative images — the
// single-node structure's RepCount.
func (t *Topology) RepCount() int { return len(t.repLeaf) }

// RootID returns the root node's page ID.
func (t *Topology) RootID() uint64 { return t.Nodes[0].ID }

// IdxOf resolves a node page ID to its index.
func (t *Topology) IdxOf(id uint64) (int, bool) {
	i, ok := t.idxOf[id]
	return i, ok
}

// Span returns node i's pre-order span [i, hi): the node and its
// descendants, which Index checks are contiguous. Two nodes' spans intersect
// only if one lies under the other.
func (t *Topology) Span(i int) (lo, hi int) { return i, t.end[i] }

// Children returns the child indices of node i (shared; do not modify).
func (t *Topology) Children(i int) []int { return t.children[i] }

// BoundaryRatio mirrors rfs.Structure.BoundaryRatio bit-for-bit: the distance
// from the node centre divided by the node diagonal, with the same
// zero-diagonal conventions.
func (t *Topology) BoundaryRatio(i int, p vec.Vector) float64 {
	n := &t.Nodes[i]
	dist := vec.L2(p, vec.Vector(n.Center))
	if n.Diag == 0 {
		if dist == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return dist / n.Diag
}

// ExpandForQuery mirrors rfs.Structure.ExpandForQuery: while any query point's
// boundary ratio exceeds the threshold, move to the parent.
func (t *Topology) ExpandForQuery(i int, queryPoints []vec.Vector, threshold float64) int {
	cur := i
	for t.Nodes[cur].Parent >= 0 {
		nearBoundary := false
		for _, q := range queryPoints {
			if t.BoundaryRatio(cur, q) > threshold {
				nearBoundary = true
				break
			}
		}
		if !nearBoundary {
			break
		}
		cur = t.Nodes[cur].Parent
	}
	return cur
}

// Hierarchy returns the topology as a feedback round machine's hierarchy:
// nodes are indices, page keys are node IDs, and representatives are the
// full-corpus image IDs. A displayed image is a representative, so the
// child containing it resolves through the representatives' leaf table.
func (t *Topology) Hierarchy() core.Hierarchy[int, int] { return (*topoHierarchy)(t) }

type topoHierarchy Topology

func (h *topoHierarchy) Roots(dst []int) []int       { return append(dst, 0) }
func (h *topoHierarchy) Reps(i int) []int            { return h.Nodes[i].Reps }
func (h *topoHierarchy) Leaf(i int) bool             { return h.Nodes[i].Leaf }
func (h *topoHierarchy) Size(i int) int              { return h.Nodes[i].Size }
func (h *topoHierarchy) Key(i int) uint64            { return h.Nodes[i].ID }
func (h *topoHierarchy) Node(key uint64) (int, bool) { return (*Topology)(h).IdxOf(key) }
func (h *topoHierarchy) Has(id int) bool             { return id >= 0 && id < h.Nodes[0].Size }

// Child walks up from the representative's leaf to node i's child.
func (h *topoHierarchy) Child(i int, repID int) (int, bool) {
	leaf, ok := h.repLeaf[repID]
	if !ok || h.Nodes[i].Leaf {
		return 0, false
	}
	for cur, ok := h.idxOf[leaf]; ok && cur >= 0; cur = h.Nodes[cur].Parent {
		if h.Nodes[cur].Parent == i {
			return cur, true
		}
	}
	return 0, false
}
