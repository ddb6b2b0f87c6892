package seg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qdcbir/internal/bitset"
	"qdcbir/internal/obs"
	"qdcbir/internal/rfs"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// ErrClosed is returned by writes after Close.
var ErrClosed = errors.New("seg: db closed")

// ErrUnknownImage is returned by Delete for IDs that are unallocated or
// already tombstoned.
var ErrUnknownImage = errors.New("seg: unknown or deleted image")

// DB is the segmented epoch/snapshot engine. One writer at a time (guarded
// internally); any number of concurrent readers via Acquire. See the
// package comment for the architecture.
type DB struct {
	cfg     Config
	prec    store.Precision // the precision every row is stored and scanned at
	metrics *obs.SegMetrics

	// mu serializes writers (Insert/Delete/seal/compaction-publish). Readers
	// never take it: they load cur.
	mu     sync.Mutex
	mt     *memtable
	nextID int
	closed bool

	cur atomic.Pointer[Snapshot]

	compacting  atomic.Bool
	wg          sync.WaitGroup
	seals       atomic.Uint64
	compactions atomic.Uint64
}

// New creates an empty DB of float64 rows. A DB of float32 rows starts from
// Restore over float32 stores.
func New(cfg Config) (*DB, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("seg: invalid dimension %d", cfg.Dim)
	}
	cfg = cfg.withDefaults()
	db := &DB{cfg: cfg}
	if cfg.Observer != nil {
		db.metrics = obs.NewSegMetrics(cfg.Observer.Registry(), cfg.Observer.Windows())
	}
	db.mt = newMemtable(cfg.Dim, db.prec, 0)
	db.publishLocked(nil, 0)
	return db, nil
}

// SealedInput is one pre-built segment handed to Restore: the ascending
// global IDs of its rows, the backing store and structure (built with the
// same knobs buildSegment uses), and any tombstoned global IDs.
type SealedInput struct {
	IDs        []int
	Store      *store.FeatureStore
	Structure  *rfs.Structure
	Tombstoned []int
}

// MemInput is the memtable image for Restore: the base global ID, the
// row-major rows (including physically-present tombstoned rows, so slot
// arithmetic is preserved exactly) — float64 in Rows, or float32 in Rows32 —
// and tombstoned slot indices.
type MemInput struct {
	BaseID     int
	Rows       []float64
	Rows32     []float32
	Tombstoned []int
}

// Restore reassembles a DB from previously sealed parts — the load path
// for dynamic archives and the adoption path for wrapping a monolithic
// build as a single sealed segment. Segment ID ranges must be disjoint,
// ascending across the input order, and below mem.BaseID. The DB takes the
// precision of its sealed stores, which must agree, or with none that of the
// memtable rows (float32 when Rows32 is set); memtable rows are added at
// that precision, as Insert adds them.
func Restore(cfg Config, sealed []SealedInput, mem MemInput, nextID int, epoch uint64) (*DB, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("seg: invalid dimension %d", cfg.Dim)
	}
	cfg = cfg.withDefaults()
	db := &DB{cfg: cfg}
	switch {
	case len(sealed) > 0 && sealed[0].Store != nil:
		db.prec = sealed[0].Store.Precision()
	case mem.Rows32 != nil:
		db.prec = store.Float32
	}
	if db.prec == store.Float32 {
		db.cfg.Quantized = false // float32 rows are scored by the float32 scorer
	}
	if cfg.Observer != nil {
		db.metrics = obs.NewSegMetrics(cfg.Observer.Registry(), cfg.Observer.Windows())
	}

	segs := make([]segView, 0, len(sealed))
	maxID := -1
	for si, in := range sealed {
		if len(in.IDs) == 0 || in.Store == nil || in.Structure == nil {
			return nil, fmt.Errorf("seg: restore segment %d is incomplete", si)
		}
		if in.Store.Precision() != db.prec {
			return nil, fmt.Errorf("seg: restore segment %d holds %v rows, segment 0 %v", si, in.Store.Precision(), db.prec)
		}
		if in.Store.Len() != len(in.IDs) {
			return nil, fmt.Errorf("seg: restore segment %d has %d rows for %d ids", si, in.Store.Len(), len(in.IDs))
		}
		if !sort.IntsAreSorted(in.IDs) || in.IDs[0] <= maxID {
			return nil, fmt.Errorf("seg: restore segment %d ids out of order", si)
		}
		maxID = in.IDs[len(in.IDs)-1]
		g := &segment{ids: in.IDs, st: in.Store, rfs: in.Structure}
		sv := segView{seg: g}
		for _, id := range in.Tombstoned {
			local := g.localOf(id)
			if local < 0 {
				return nil, fmt.Errorf("seg: restore segment %d tombstone %d not in segment", si, id)
			}
			if sv.tomb == nil {
				sv.tomb = bitset.New(g.len())
			}
			if sv.tomb.Set(local) {
				sv.nTomb++
			}
		}
		segs = append(segs, sv)
	}

	if mem.BaseID <= maxID {
		return nil, fmt.Errorf("seg: memtable base %d overlaps sealed ids (max %d)", mem.BaseID, maxID)
	}
	if len(mem.Rows)%cfg.Dim != 0 || len(mem.Rows32)%cfg.Dim != 0 {
		return nil, fmt.Errorf("seg: memtable backing not a multiple of dim %d", cfg.Dim)
	}
	db.mt = newMemtable(cfg.Dim, db.prec, mem.BaseID)
	for off := 0; off < len(mem.Rows); off += cfg.Dim {
		db.mt.add(vec.Vector(mem.Rows[off : off+cfg.Dim]))
	}
	row := make(vec.Vector, cfg.Dim)
	for off := 0; off < len(mem.Rows32); off += cfg.Dim {
		db.mt.add(vec.Widen64(mem.Rows32[off:off+cfg.Dim], row))
	}
	for _, slot := range mem.Tombstoned {
		if slot < 0 || slot >= db.mt.rows {
			return nil, fmt.Errorf("seg: memtable tombstone slot %d out of range", slot)
		}
		if db.mt.tomb == nil {
			db.mt.tomb = bitset.New(db.mt.rows)
		}
		if db.mt.tomb.Set(slot) {
			db.mt.nTomb++
		}
	}

	if min := mem.BaseID + db.mt.rows; nextID < min {
		nextID = min
	}
	db.nextID = nextID
	db.publishLocked(segs, epoch)
	return db, nil
}

// Config returns the resolved configuration.
func (db *DB) Config() Config { return db.cfg }

// Precision returns the precision the DB's rows are stored and scanned at.
func (db *DB) Precision() store.Precision { return db.prec }

// Stats is a point-in-time summary for /v1/buildinfo and tooling.
type Stats struct {
	Epoch       uint64
	Segments    int
	MemRows     int
	Tombstones  int
	Live        int
	NextID      int
	Seals       uint64
	Compactions uint64
}

// Stats reports the current snapshot's shape plus lifetime counters.
func (db *DB) Stats() Stats {
	s := db.Acquire()
	defer s.Release()
	db.mu.Lock()
	next := db.nextID
	db.mu.Unlock()
	return Stats{
		Epoch:       s.epoch,
		Segments:    len(s.segs),
		MemRows:     s.mem.rows,
		Tombstones:  s.Tombstones(),
		Live:        s.live,
		NextID:      next,
		Seals:       db.seals.Load(),
		Compactions: db.compactions.Load(),
	}
}

// Acquire pins the current snapshot. The retry loop closes the race where
// a snapshot is swapped out between the load and the refcount increment:
// the pin only counts if the snapshot is still current after taking it
// (the DB itself holds a reference to the current snapshot, so a snapshot
// observed current cannot have been fully released).
func (db *DB) Acquire() *Snapshot {
	for {
		s := db.cur.Load()
		s.refs.Add(1)
		if db.cur.Load() == s {
			return s
		}
		s.release()
	}
}

// publishLocked installs a new current snapshot built from the given
// segment views (sharing the writer's memtable view) and releases the
// previous one. Callers hold db.mu, except the constructors.
func (db *DB) publishLocked(segs []segView, epoch uint64) {
	next := &Snapshot{epoch: epoch, segs: segs, mem: db.mt.view(), db: db}
	for _, sv := range segs {
		next.live += sv.liveLen()
	}
	next.live += next.mem.live()
	next.refs.Store(1) // the DB's own reference
	old := db.cur.Load()
	db.cur.Store(next)
	db.metrics.SnapshotDelta(1)
	if old != nil {
		old.release()
	}
	db.metrics.State(next.epoch, len(next.segs), next.mem.rows, next.Tombstones(), next.live)
}

// Insert adds one image and returns its global ID. If the memtable reaches
// the seal threshold the inserting goroutine seals it synchronously —
// writers pay for sealing; pinned readers are untouched.
func (db *DB) Insert(v vec.Vector) (int, error) {
	if len(v) != db.cfg.Dim {
		return 0, fmt.Errorf("seg: vector dim %d, want %d", len(v), db.cfg.Dim)
	}
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("seg: vector has non-finite component")
		}
		if db.prec == store.Float32 && math.IsInf(float64(float32(x)), 0) {
			return 0, fmt.Errorf("seg: vector component %v is beyond float32 range", x)
		}
	}
	start := time.Now()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	id := db.mt.add(v)
	db.nextID = id + 1
	cur := db.cur.Load()
	if db.mt.rows-db.mt.nTomb >= db.cfg.SealThreshold {
		if err := db.sealLocked(); err != nil {
			return 0, err
		}
	} else {
		db.publishLocked(cur.segs, cur.epoch+1)
	}
	db.metrics.InsertDone(time.Since(start).Nanoseconds())
	db.maybeCompactLocked()
	return id, nil
}

// Delete tombstones one image. The row stays physically present until the
// memtable seals or a compaction rewrites its segment; queries filter it
// immediately from the next epoch on.
func (db *DB) Delete(id int) error {
	start := time.Now()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	cur := db.cur.Load()
	if id >= db.mt.baseID {
		slot := id - db.mt.baseID
		if slot >= db.mt.rows || db.mt.tomb.Get(slot) {
			return fmt.Errorf("%w: %d", ErrUnknownImage, id)
		}
		t := db.mt.tomb.Clone()
		t.Set(slot)
		db.mt.tomb = t
		db.mt.nTomb++
		db.publishLocked(cur.segs, cur.epoch+1)
		db.metrics.DeleteDone(time.Since(start).Nanoseconds())
		return nil
	}
	for i, sv := range cur.segs {
		local := sv.seg.localOf(id)
		if local < 0 {
			continue
		}
		if sv.tomb.Get(local) {
			return fmt.Errorf("%w: %d", ErrUnknownImage, id)
		}
		segs := make([]segView, len(cur.segs))
		copy(segs, cur.segs)
		t := sv.tomb.Clone()
		t.Set(local)
		segs[i] = segView{seg: sv.seg, tomb: t, nTomb: sv.nTomb + 1}
		db.publishLocked(segs, cur.epoch+1)
		db.metrics.DeleteDone(time.Since(start).Nanoseconds())
		db.maybeCompactLocked()
		return nil
	}
	return fmt.Errorf("%w: %d", ErrUnknownImage, id)
}

// sealLocked freezes the memtable's live rows into a new immutable segment
// and starts a fresh memtable. Tombstoned memtable rows are dropped here —
// sealing is the first garbage-collection point.
func (db *DB) sealLocked() error {
	start := time.Now()
	live := db.mt.rows - db.mt.nTomb
	if live == 0 {
		// Nothing to seal; just drop the tombstoned rows.
		db.mt = newMemtable(db.cfg.Dim, db.prec, db.nextID)
		cur := db.cur.Load()
		db.publishLocked(cur.segs, cur.epoch+1)
		return nil
	}
	ids := make([]int, 0, live)
	rows := newMemtable(db.cfg.Dim, db.prec, 0)
	for slot := 0; slot < db.mt.rows; slot++ {
		if db.mt.tomb.Get(slot) {
			continue
		}
		ids = append(ids, db.mt.baseID+slot)
		rows.add(db.mt.row(slot))
	}
	st, err := rows.store()
	if err != nil {
		return err
	}
	g, err := buildSegment(context.Background(), db.cfg, ids, st)
	if err != nil {
		return err
	}
	cur := db.cur.Load()
	segs := make([]segView, len(cur.segs), len(cur.segs)+1)
	copy(segs, cur.segs)
	segs = append(segs, segView{seg: g})
	db.mt = newMemtable(db.cfg.Dim, db.prec, db.nextID)
	db.publishLocked(segs, cur.epoch+1)
	db.seals.Add(1)
	db.metrics.SealDone(time.Since(start).Nanoseconds())
	return nil
}

// maybeCompactLocked kicks the background compactor when the segment count
// exceeds policy. At most one compaction runs at a time.
func (db *DB) maybeCompactLocked() {
	if db.cfg.DisableAutoCompact || db.closed {
		return
	}
	if len(db.cur.Load().segs) <= db.cfg.MaxSegments {
		return
	}
	if !db.compacting.CompareAndSwap(false, true) {
		return
	}
	db.wg.Add(1)
	go func() {
		defer db.wg.Done()
		defer db.compacting.Store(false)
		_ = db.compact(context.Background())
	}()
}

// Compact merges every currently sealed segment into one, dropping
// tombstoned rows and retraining the quantizer, off the query path.
// Writes proceed concurrently: the merge works from a pinned snapshot, and
// at publish time any delete that landed in an input segment during the
// merge is re-applied to the merged segment as a tombstone. Segments
// sealed during the merge are untouched. No-op if a background compaction
// is already running.
func (db *DB) Compact(ctx context.Context) error {
	if !db.compacting.CompareAndSwap(false, true) {
		return nil
	}
	defer db.compacting.Store(false)
	return db.compact(ctx)
}

func (db *DB) compact(ctx context.Context) error {
	start := time.Now()
	pin := db.Acquire()
	defer pin.Release()
	if len(pin.segs) == 0 {
		return nil
	}
	if len(pin.segs) == 1 && pin.segs[0].nTomb == 0 {
		return nil // already fully compacted
	}

	inputs := make(map[*segment]bool, len(pin.segs))
	var ids []int
	rows := newMemtable(db.cfg.Dim, db.prec, 0) // a float32 row narrows back exactly
	for _, sv := range pin.segs {
		inputs[sv.seg] = true
		for local, id := range sv.seg.ids {
			if sv.tomb.Get(local) {
				continue
			}
			ids = append(ids, id)
			rows.add(sv.seg.st.At(local))
		}
	}

	var merged *segment
	if len(ids) > 0 {
		st, err := rows.store()
		if err == nil {
			merged, err = buildSegment(ctx, db.cfg, ids, st)
		}
		if err != nil {
			return err
		}
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	cur := db.cur.Load()
	var segs []segView
	if merged != nil {
		mv := segView{seg: merged}
		// Re-apply deletes that arrived in input segments while we merged:
		// any tombstone in the CURRENT view of an input segment that refers
		// to a row we copied (it was live at pin time) maps into the merged
		// segment.
		for _, sv := range cur.segs {
			if !inputs[sv.seg] || sv.nTomb == 0 {
				continue
			}
			for _, local := range sv.tomb.AppendIndices(nil) {
				ml := merged.localOf(sv.seg.ids[local])
				if ml < 0 {
					continue // was already tombstoned at pin time and dropped
				}
				if mv.tomb == nil {
					mv.tomb = bitset.New(merged.len())
				}
				if mv.tomb.Set(ml) {
					mv.nTomb++
				}
			}
		}
		segs = append(segs, mv)
	}
	for _, sv := range cur.segs {
		if !inputs[sv.seg] {
			segs = append(segs, sv)
		}
	}
	db.publishLocked(segs, cur.epoch+1)
	db.compactions.Add(1)
	db.metrics.CompactDone(time.Since(start).Nanoseconds())
	return nil
}

// Close rejects further writes and waits for any background compaction.
// Pinned snapshots (and Acquire) remain valid for readers draining out.
func (db *DB) Close() {
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
	db.wg.Wait()
}
