// Package seg implements the segmented epoch/snapshot engine for online
// ingest: an LSM-flavored arrangement of immutable sealed segments (each a
// self-contained feature store + R*-tree, optionally SQ8-quantized) plus a
// small mutable memtable that is always scanned exactly. Queries pin a
// Snapshot — an epoch-stamped, reference-counted view of the segment set,
// the memtable prefix, and per-segment tombstones — so writes never stall
// reads and reads never observe a half-applied write.
//
// The engine's core promise is bit-exactness: a k-NN query over (sealed
// segments + memtable − tombstones) returns results bit-identical to the
// same query against a from-scratch single-segment build of the live set.
// This holds because every distance is computed by the same
// position-independent per-row kernels the monolithic engine uses
// (vec.SquaredDistsTo and friends — see the kernel contracts in
// internal/vec), the SQ8 path scores every row it returns with exact
// arithmetic (the codes only decide which rows a popped leaf scores), and a
// snapshot k-NN is one search over the forest of segment trees
// (rstar.KNNForest) whose one selector — fed by every segment and by the
// memtable's block-scored rows — keys rows by (squared distance, global ID),
// as the rebuild's single tree does.
//
// Feedback-driven retrieval (the paper's query decomposition) is served by
// a segmentation-invariant variant: instead of anchoring subqueries to tree
// nodes (whose shapes differ between a segmented corpus and a monolithic
// rebuild), Snapshot.QueryByExamplesCtx clusters the example vectors
// themselves and runs each cluster's multipoint subquery corpus-wide; the
// allocation, merge and ranking are core.FinalRound, the one final-round
// tail every backing runs. See finalize.go.
//
// Lifecycle: Insert appends to the memtable; when the memtable reaches
// Config.SealThreshold rows the inserting writer seals it into a new
// immutable segment (building the tree synchronously — writers pay for
// sealing, readers never do). When the segment count exceeds
// Config.MaxSegments a background compactor merges the two oldest
// segments, dropping tombstoned rows and retraining the quantizer, and
// publishes the merged segment without blocking concurrent writes: deletes
// that land in an input segment during the merge are re-applied to the
// merged segment as tombstones at publish time.
package seg

import (
	"qdcbir/internal/obs"
)

// Config mirrors the monolithic engine's build knobs (qdcbir.Config) plus
// the segmentation policy. The zero value is usable after withDefaults.
type Config struct {
	// Dim is the feature dimensionality; required, fixed for the DB's life.
	Dim int

	// SealThreshold is the memtable row count that triggers sealing into an
	// immutable segment. Default 256.
	SealThreshold int

	// MaxSegments is the sealed-segment count above which background
	// compaction is triggered. Default 4.
	MaxSegments int

	// Quantized enables the SQ8 row filter in sealed segments of float64
	// rows. Falls back silently to exact scoring per segment if training
	// fails, exactly like the monolithic attachQuantizer path; correctness is
	// unaffected because every returned distance is computed exactly.
	Quantized bool

	// BoundaryThreshold is the §3.3 search-area expansion threshold used by
	// snapshot-pinned feedback sessions. Default 0.4.
	BoundaryThreshold float64

	// Seed drives deterministic tree builds and finalize clustering.
	Seed int64

	// RepFraction is the per-node representative sampling fraction for
	// sealed-segment trees. Default 0.05.
	RepFraction float64

	// NodeCapacity is the R*-tree node fan-out for sealed segments.
	// Default 32 (segments are small; the monolithic default of 100 would
	// leave freshly sealed segments a single leaf).
	NodeCapacity int

	// Parallelism bounds how many of a finalize's subqueries run at once and
	// the worker count of a segment build. A k-NN is one search over every
	// segment and does not fan out. Default GOMAXPROCS (resolved by the par
	// package).
	Parallelism int

	// DisableAutoCompact turns off the background compactor; Compact can
	// still be called explicitly. Used by tests and by bulk loads that
	// compact once at the end.
	DisableAutoCompact bool

	// Observer, when non-nil, receives ingest/compaction metrics through
	// its Registry (obs.SegMetrics).
	Observer *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.SealThreshold <= 0 {
		c.SealThreshold = 256
	}
	if c.MaxSegments <= 0 {
		c.MaxSegments = 4
	}
	if c.BoundaryThreshold <= 0 {
		c.BoundaryThreshold = 0.4
	}
	if c.RepFraction <= 0 {
		c.RepFraction = 0.05
	}
	if c.NodeCapacity <= 0 {
		c.NodeCapacity = 32
	}
	return c
}
