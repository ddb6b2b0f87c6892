package qdcbir

import (
	"context"
	"fmt"
	"sync"

	"qdcbir/internal/core"
	"qdcbir/internal/obs"
	"qdcbir/internal/seg"
	"qdcbir/internal/vec"
)

// DynamicConfig configures a Dynamic system: the segmented epoch/snapshot
// engine (internal/seg) wrapped with image labels and archive persistence.
// Zero values take the same defaults the engine applies.
type DynamicConfig struct {
	// Dim is the feature dimensionality. Required for NewDynamic; OpenDynamic
	// and LoadDynamic infer it from the adopted corpus or archive.
	Dim int
	// SealThreshold is the live-row count at which the memtable seals into an
	// immutable segment (default 256).
	SealThreshold int
	// MaxSegments is the sealed-segment count beyond which background
	// compaction kicks in (default 4).
	MaxSegments int

	// Seed, NodeCapacity, RepFraction and BoundaryThreshold play the same
	// roles as in Config; segment trees are built with these knobs so a
	// single sealed segment of the whole corpus is the same structure a
	// monolithic build would produce. Parallelism bounds how many of a
	// finalize's subqueries run at once and a segment build's workers; a
	// k-NN searches every segment in one descent and does not fan out.
	Seed              int64
	NodeCapacity      int
	RepFraction       float64
	BoundaryThreshold float64
	Parallelism       int

	// Quantized enables the per-segment SQ8 row filter. Semantics match
	// Config: quantization is an invisible optimization (every returned
	// distance is exact), inert over float32 rows.
	Quantized bool

	// DisableAutoCompact turns off background compaction (Compact can still
	// be called explicitly). Mostly for tests and benchmarks.
	DisableAutoCompact bool

	// Observer receives ingest metrics (qd_seg_* counters and gauges) when
	// non-nil. Not persisted.
	Observer *obs.Observer
}

func (c DynamicConfig) segConfig() seg.Config {
	return seg.Config{
		Dim:                c.Dim,
		SealThreshold:      c.SealThreshold,
		MaxSegments:        c.MaxSegments,
		Quantized:          c.Quantized,
		BoundaryThreshold:  c.BoundaryThreshold,
		Seed:               c.Seed,
		RepFraction:        c.RepFraction,
		NodeCapacity:       c.NodeCapacity,
		Parallelism:        c.Parallelism,
		DisableAutoCompact: c.DisableAutoCompact,
		Observer:           c.Observer,
	}
}

// Dynamic is an online-ingest retrieval system: the segmented epoch/snapshot
// engine plus a label table mapping image IDs to caller-supplied names.
//
// Concurrency contract: any number of goroutines may query (KNN*, sessions,
// QueryByExamples) while others Insert and Delete — queries pin an immutable
// snapshot and never block on writers. The label table has its own lock and
// is safe for concurrent use.
type Dynamic struct {
	cfg DynamicConfig
	db  *seg.DB

	mu     sync.RWMutex
	labels map[int]string
}

// NewDynamic creates an empty dynamic system of float64 rows. cfg.Dim must be
// positive. One of float32 rows starts from a float32 System (OpenDynamic).
func NewDynamic(cfg DynamicConfig) (*Dynamic, error) {
	db, err := seg.New(cfg.segConfig())
	if err != nil {
		return nil, err
	}
	cfg = dynamicConfigFrom(db.Config(), cfg.Observer)
	return &Dynamic{cfg: cfg, db: db, labels: make(map[int]string)}, nil
}

// dynamicConfigFrom mirrors the engine's resolved knobs back into the root
// config, so Config() and the archive reflect applied defaults.
func dynamicConfigFrom(sc seg.Config, observer *obs.Observer) DynamicConfig {
	return DynamicConfig{
		Dim:                sc.Dim,
		SealThreshold:      sc.SealThreshold,
		MaxSegments:        sc.MaxSegments,
		Seed:               sc.Seed,
		NodeCapacity:       sc.NodeCapacity,
		RepFraction:        sc.RepFraction,
		BoundaryThreshold:  sc.BoundaryThreshold,
		Parallelism:        sc.Parallelism,
		Quantized:          sc.Quantized,
		DisableAutoCompact: sc.DisableAutoCompact,
		Observer:           observer,
	}
}

// OpenDynamic adopts a built (or loaded) monolithic System as a dynamic
// system: the whole corpus becomes one sealed segment — store and tree are
// shared, not rebuilt — and subsequent inserts land in a fresh memtable.
// Queries over the adopted system return exactly what the System returned.
// Zero fields of cfg inherit the System's knobs; cfg.Dim, if set, must match
// the corpus. Labels are seeded with each image's subconcept name.
//
// The System's structures must no longer be mutated after adoption; querying
// the System itself concurrently remains safe (segments are read-only).
func OpenDynamic(sys *System, cfg DynamicConfig) (*Dynamic, error) {
	st := sys.corpus.Store()
	if cfg.Dim == 0 {
		cfg.Dim = st.Dim()
	}
	if st.Len() > 0 && cfg.Dim != st.Dim() {
		return nil, fmt.Errorf("qdcbir: dynamic dim %d does not match corpus dim %d", cfg.Dim, st.Dim())
	}
	if cfg.Seed == 0 {
		cfg.Seed = sys.cfg.Seed
	}
	if cfg.NodeCapacity == 0 {
		cfg.NodeCapacity = sys.cfg.NodeCapacity
	}
	if cfg.RepFraction == 0 {
		cfg.RepFraction = sys.cfg.RepFraction
	}
	if cfg.BoundaryThreshold == 0 {
		cfg.BoundaryThreshold = sys.cfg.BoundaryThreshold
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = sys.cfg.Parallelism
	}
	if !cfg.Quantized {
		cfg.Quantized = sys.cfg.Quantized
	}

	n := st.Len()
	var sealed []seg.SealedInput
	if n > 0 {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		sealed = []seg.SealedInput{{
			IDs:       ids,
			Store:     st,
			Structure: sys.rfs,
		}}
	}
	db, err := seg.Restore(cfg.segConfig(), sealed, seg.MemInput{BaseID: n}, n, 0)
	if err != nil {
		return nil, err
	}
	labels := make(map[int]string, n)
	for i := 0; i < n; i++ {
		if sc := sys.SubconceptOf(i); sc != "" {
			labels[i] = sc
		}
	}
	return &Dynamic{cfg: dynamicConfigFrom(db.Config(), cfg.Observer), db: db, labels: labels}, nil
}

// Config returns the resolved configuration.
func (d *Dynamic) Config() DynamicConfig { return d.cfg }

// DB exposes the underlying segmented engine for snapshot-level access
// (Acquire, sessions, stats).
func (d *Dynamic) DB() *seg.DB { return d.db }

// Stats reports the current snapshot's shape plus lifetime seal/compaction
// counters.
func (d *Dynamic) Stats() seg.Stats { return d.db.Stats() }

// Insert adds one image vector under the given label and returns its ID.
// Never blocks concurrent queries.
func (d *Dynamic) Insert(v vec.Vector, label string) (int, error) {
	id, err := d.db.Insert(v)
	if err != nil {
		return 0, err
	}
	if label != "" {
		d.mu.Lock()
		d.labels[id] = label
		d.mu.Unlock()
	}
	return id, nil
}

// Delete tombstones one image. Pinned snapshots keep seeing the row; new
// snapshots do not. The label is removed immediately — labels describe the
// live set, not pinned history.
func (d *Dynamic) Delete(id int) error {
	if err := d.db.Delete(id); err != nil {
		return err
	}
	d.mu.Lock()
	delete(d.labels, id)
	d.mu.Unlock()
	return nil
}

// LabelOf returns the label of a live image ("" when unknown or unlabeled).
func (d *Dynamic) LabelOf(id int) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.labels[id]
}

// KNN answers a k-nearest-neighbour query against the current snapshot.
func (d *Dynamic) KNN(ctx context.Context, q vec.Vector, k int) ([]seg.Neighbor, error) {
	s := d.db.Acquire()
	defer s.Release()
	return s.KNNCtx(ctx, q, k)
}

// QueryByExamples runs the query-decomposition finalize over the current
// snapshot: the example images are clustered into multiple neighborhoods,
// localized subqueries run per cluster, and the merged display is returned
// (nil weights means unweighted).
func (d *Dynamic) QueryByExamples(ctx context.Context, examples []int, k int, weights vec.Vector) (*core.Answer, error) {
	s := d.db.Acquire()
	defer s.Release()
	return s.QueryByExamplesCtx(ctx, examples, k, weights)
}

// Compact merges all sealed segments into one, inline. Background
// auto-compaction runs regardless unless DisableAutoCompact is set.
func (d *Dynamic) Compact(ctx context.Context) error { return d.db.Compact(ctx) }

// Close stops background compaction and rejects further writes. Pinned
// snapshots remain valid and may drain.
func (d *Dynamic) Close() { d.db.Close() }

// labelsByID snapshots the label table indexed by image ID, "" where an
// image has none, so an archive's bytes do not depend on map iteration order
// (persistence).
func (d *Dynamic) labelsByID() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for id := range d.labels {
		n = max(n, id+1)
	}
	out := make([]string, n)
	for id, label := range d.labels {
		out[id] = label
	}
	return out
}
