package rfs

import (
	"context"
	"fmt"

	"qdcbir/internal/disk"
	"qdcbir/internal/rstar"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// This file is the flat-feature-store integration: structures built over a
// store.FeatureStore index zero-copy row views (no per-vector duplication in
// the Structure), and the point-free TopologySnapshot persists the hierarchy
// without repeating vector data the archive already carries in the store's
// backing array — halving what the old Snapshot wrote, which stored every
// point twice (once in Points, once inside the tree's leaf items).

// BuildStoreCtx constructs the RFS structure over a feature store, with
// cancellation as BuildCtx. Image IDs are the store rows. The structure's
// point table aliases the store's backing array; the tree copies the values
// into its own leaf-block slab. A Float32 store's tree scores its leaves
// with the float32 scorer (see scoreAtPrecision).
func BuildStoreCtx(ctx context.Context, st *store.FeatureStore, cfg BuildConfig) (*Structure, error) {
	s, err := BuildCtx(ctx, st.Views(), cfg)
	if err != nil {
		return nil, err
	}
	if err := s.scoreAtPrecision(st); err != nil {
		return nil, err
	}
	return s, nil
}

// scoreAtPrecision installs the float32 scorer on the tree of a Float32
// store's rows.
func (s *Structure) scoreAtPrecision(st *store.FeatureStore) error {
	if st.Precision() != store.Float32 {
		return nil
	}
	return s.tree.NarrowFloat32()
}

// TopologySnapshot is the point-free serializable form of a Structure: the
// tree topology (leaf item IDs only) plus the representative lists in tree
// pre-order. Vectors live outside, in the feature store the caller
// serializes alongside.
type TopologySnapshot struct {
	Cfg          BuildConfig
	Tree         *rstar.Topology
	RepsPreorder [][]rstar.ItemID
}

// TopologySnapshot captures the structure without point payloads.
func (s *Structure) TopologySnapshot() *TopologySnapshot {
	snap := &TopologySnapshot{
		Cfg:  s.cfg,
		Tree: s.tree.Topology(),
	}
	s.tree.Walk(func(n *rstar.Node, _ int) {
		reps := append([]rstar.ItemID(nil), s.reps[n.ID()]...)
		snap.RepsPreorder = append(snap.RepsPreorder, reps)
	})
	return snap
}

// FromTopologySnapshot reconstructs a Structure from a point-free snapshot
// and the corpus feature store. The resulting structure is identical to what
// FromSnapshot produces from the equivalent full snapshot: page IDs are
// reassigned in the same pre-order and the representative walk is the same.
// As in BuildStoreCtx, a Float32 store's tree scores in float32.
func FromTopologySnapshot(snap *TopologySnapshot, st *store.FeatureStore) (*Structure, error) {
	if snap == nil || snap.Tree == nil {
		return nil, fmt.Errorf("rfs: nil topology snapshot")
	}
	tree, err := rstar.FromTopology(snap.Tree, func(id rstar.ItemID) vec.Vector {
		if id < 0 || int(id) >= st.Len() {
			return nil // wrong dimension → FromTopology reports the bad ID
		}
		return st.At(int(id))
	})
	if err != nil {
		return nil, err
	}
	s := &Structure{
		cfg:    snap.Cfg.withDefaults(),
		tree:   tree,
		points: st.Views(),
	}
	s.index()
	if err := s.attachReps(snap.RepsPreorder); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := s.scoreAtPrecision(st); err != nil {
		return nil, err
	}
	return s, nil
}

// attachReps installs pre-order representative lists onto the indexed tree.
func (s *Structure) attachReps(repsPreorder [][]rstar.ItemID) error {
	s.reps = make(map[disk.PageID][]rstar.ItemID)
	s.repIsSet = make(map[rstar.ItemID]bool)
	i := 0
	var walkErr error
	s.tree.Walk(func(n *rstar.Node, _ int) {
		if walkErr != nil {
			return
		}
		if i >= len(repsPreorder) {
			walkErr = fmt.Errorf("rfs: snapshot has %d rep lists for more nodes", len(repsPreorder))
			return
		}
		s.reps[n.ID()] = repsPreorder[i]
		if n.IsLeaf() {
			for _, id := range repsPreorder[i] {
				if !s.repIsSet[id] {
					s.repIsSet[id] = true
					s.allReps = append(s.allReps, id)
				}
			}
		}
		i++
	})
	if walkErr != nil {
		return walkErr
	}
	if i != len(repsPreorder) {
		return fmt.Errorf("rfs: snapshot has %d rep lists for %d nodes", len(repsPreorder), i)
	}
	return nil
}
