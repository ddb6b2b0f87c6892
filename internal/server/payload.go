package server

import (
	"fmt"

	"qdcbir/internal/core"
	"qdcbir/internal/rstar"
)

// Payload is the client download for client-side relevance feedback: the RFS
// hierarchy reduced to representative-image lists (plus display labels). This
// is all the information feedback processing needs — the paper designates
// ~5% of the database as representatives precisely so this payload stays
// small enough to ship to clients (§4).
type Payload struct {
	// Root is the hierarchy with per-node representative IDs.
	Root *PayloadNode `json:"root"`
	// Labels maps representative IDs to display labels (thumbnails in a real
	// deployment).
	Labels map[int]string `json:"labels,omitempty"`
	// Images is the total database size (for sanity checks and result k).
	Images int `json:"images"`
}

// PayloadNode mirrors one RFS node: its page ID (the page key a smart-client
// session orders its frontier by and exports), the images under it (the
// regression guard's subtree size), and its representatives.
type PayloadNode struct {
	ID       uint64         `json:"id"`
	Size     int            `json:"size"`
	Reps     []int          `json:"reps"`
	Children []*PayloadNode `json:"children,omitempty"`
}

// BuildPayload extracts the representative structure from an engine.
func BuildPayload(engine *core.Engine, label Labeler) (*Payload, error) {
	s := engine.RFS()
	labels := make(map[int]string)
	var build func(n *rstar.Node) *PayloadNode
	build = func(n *rstar.Node) *PayloadNode {
		pn := &PayloadNode{ID: uint64(n.ID()), Size: s.SubtreeSize(n)}
		for _, id := range s.Reps(n, nil) {
			pn.Reps = append(pn.Reps, int(id))
			if label != nil {
				if l := label(int(id)); l != "" {
					labels[int(id)] = l
				}
			}
		}
		for _, c := range n.Children() {
			pn.Children = append(pn.Children, build(c))
		}
		return pn
	}
	root := build(s.Root())
	if root == nil || len(root.Reps) == 0 {
		return nil, fmt.Errorf("server: structure has no representatives")
	}
	return &Payload{Root: root, Labels: labels, Images: s.Len()}, nil
}

// Validate checks structural sanity: node IDs are distinct, every node has
// representatives, and every internal node's representatives appear in some
// child's subtree (the property client-side descent depends on).
func (p *Payload) Validate() error {
	if p == nil || p.Root == nil {
		return fmt.Errorf("server: empty payload")
	}
	ids := make(map[uint64]bool)
	var walk func(n *PayloadNode) (map[int]bool, error)
	walk = func(n *PayloadNode) (map[int]bool, error) {
		if len(n.Reps) == 0 {
			return nil, fmt.Errorf("server: node with no representatives")
		}
		if ids[n.ID] {
			return nil, fmt.Errorf("server: payload node id %d repeats", n.ID)
		}
		ids[n.ID] = true
		subtree := make(map[int]bool)
		if len(n.Children) == 0 {
			for _, id := range n.Reps {
				subtree[id] = true
			}
			return subtree, nil
		}
		for _, c := range n.Children {
			sub, err := walk(c)
			if err != nil {
				return nil, err
			}
			for id := range sub {
				subtree[id] = true
			}
		}
		for _, id := range n.Reps {
			if !subtree[id] {
				return nil, fmt.Errorf("server: rep %d not under any child", id)
			}
		}
		return subtree, nil
	}
	_, err := walk(p.Root)
	return err
}

// RepCount returns the number of distinct representatives in the payload.
func (p *Payload) RepCount() int {
	seen := make(map[int]bool)
	var walk func(n *PayloadNode)
	walk = func(n *PayloadNode) {
		for _, id := range n.Reps {
			seen[id] = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if p.Root != nil {
		walk(p.Root)
	}
	return len(seen)
}

// payloadTree is the payload as a feedback round machine's hierarchy. Page
// keys are the node IDs BuildPayload copied from the RFS structure, so a
// smart-client session orders, guards and exports exactly as a hosted one.
type payloadTree struct {
	p      *Payload
	parent map[*PayloadNode]*PayloadNode
	leafOf map[int]*PayloadNode // representative -> the leaf that stores it
	byID   map[uint64]*PayloadNode
}

// Hierarchy indexes a validated payload as a feedback round machine's
// hierarchy: the smart client's backing.
func (p *Payload) Hierarchy() core.Hierarchy[*PayloadNode, int] {
	t := &payloadTree{
		p:      p,
		parent: make(map[*PayloadNode]*PayloadNode),
		leafOf: make(map[int]*PayloadNode),
		byID:   make(map[uint64]*PayloadNode),
	}
	var walk func(n *PayloadNode)
	walk = func(n *PayloadNode) {
		t.byID[n.ID] = n
		if len(n.Children) == 0 {
			for _, id := range n.Reps {
				t.leafOf[id] = n
			}
		}
		for _, c := range n.Children {
			t.parent[c] = n
			walk(c)
		}
	}
	walk(p.Root)
	return t
}

func (t *payloadTree) Roots(dst []*PayloadNode) []*PayloadNode { return append(dst, t.p.Root) }
func (t *payloadTree) Reps(n *PayloadNode) []int               { return n.Reps }
func (t *payloadTree) Leaf(n *PayloadNode) bool                { return len(n.Children) == 0 }
func (t *payloadTree) Size(n *PayloadNode) int                 { return n.Size }
func (t *payloadTree) Key(n *PayloadNode) uint64               { return n.ID }
func (t *payloadTree) Has(id int) bool                         { return id >= 0 && id < t.p.Images }

func (t *payloadTree) Node(key uint64) (*PayloadNode, bool) {
	n, ok := t.byID[key]
	return n, ok
}

// Child walks up from the representative's leaf until the parent is n.
func (t *payloadTree) Child(n *PayloadNode, id int) (*PayloadNode, bool) {
	for cur := t.leafOf[id]; cur != nil; cur = t.parent[cur] {
		if t.parent[cur] == n {
			return cur, true
		}
	}
	return nil, false
}
