package rfs

import (
	"fmt"

	"qdcbir/internal/rstar"
	"qdcbir/internal/vec"
)

// Snapshot is the serializable form of a Structure. Representative lists are
// stored in tree pre-order, which FromSnapshot re-walks identically, so node
// page-ID reassignment on load is harmless.
type Snapshot struct {
	Cfg    BuildConfig
	Tree   *rstar.TreeSnapshot
	Points []vec.Vector
	// RepsPreorder holds each node's representative list in depth-first
	// pre-order of the tree.
	RepsPreorder [][]rstar.ItemID
}

// Snapshot captures the structure for persistence.
func (s *Structure) Snapshot() *Snapshot {
	snap := &Snapshot{
		Cfg:    s.cfg,
		Tree:   s.tree.Snapshot(),
		Points: s.points,
	}
	s.tree.Walk(func(n *rstar.Node, _ int) {
		reps := append([]rstar.ItemID(nil), s.reps[n.ID()]...)
		snap.RepsPreorder = append(snap.RepsPreorder, reps)
	})
	return snap
}

// FromSnapshot reconstructs a Structure.
func FromSnapshot(snap *Snapshot) (*Structure, error) {
	if snap == nil || snap.Tree == nil {
		return nil, fmt.Errorf("rfs: nil snapshot")
	}
	tree, err := rstar.FromSnapshot(snap.Tree)
	if err != nil {
		return nil, err
	}
	s := &Structure{
		cfg:    snap.Cfg.withDefaults(),
		tree:   tree,
		points: snap.Points,
	}
	s.index()
	if err := s.attachReps(snap.RepsPreorder); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
