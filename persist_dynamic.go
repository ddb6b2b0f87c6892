package qdcbir

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"qdcbir/internal/obs"
	"qdcbir/internal/rfs"
	"qdcbir/internal/seg"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// archiveSegV4 is one sealed segment on the wire: the ascending global IDs,
// the store backing at its native precision (Points for a float64 store,
// Points32 for a float32-precision store — never both), the point-free tree
// topology, and tombstoned global IDs. The SQ8 quantizer is NOT persisted:
// training is deterministic from the segment's rows, so the loader retrains
// it — and even a hypothetically different quantizer could not change
// results, because the SQ8 codes only filter which rows are scored exactly.
type archiveSegV4 struct {
	IDs        []int
	Points     []float64
	Points32   []float32
	RFS        *rfs.TopologySnapshot
	Tombstoned []int
}

// archiveV4 is the dynamic-system wire format: the engine knobs, the sealed
// segments, the memtable image (base ID, row-major rows including tombstoned
// slots at the system's precision — MemRows for float64, MemRows32 for
// float32 — and tombstoned slot indices), the ID allocator and epoch, and
// the label table indexed by image ID. Written by Dynamic.Save
// behind the versioned 4-byte header with version 4; read only by
// LoadDynamic (the static Load rejects it with a pointer here).
//
// The precision is the rows': float32 segment or memtable rows make a
// float32 system. Archives written before LabelsByID carry the table as the
// Labels map, and those written before MemRows32 carry a float32 system's
// memtable rows in MemRows; both still decode.
type archiveV4 struct {
	Dim                int
	SealThreshold      int
	MaxSegments        int
	Seed               int64
	NodeCapacity       int
	RepFraction        float64
	BoundaryThreshold  float64
	Quantized          bool
	DisableAutoCompact bool

	Epoch  uint64
	NextID int
	Segs   []archiveSegV4

	MemBaseID int
	MemRows   []float64
	MemRows32 []float32
	MemTombs  []int

	LabelsByID []string       // "" where an image has no label
	Labels     map[int]string // read only: the table of older archives
}

// Save persists the dynamic system in the version-4 format. The snapshot
// pinned at entry is what travels: concurrent writers are never blocked, and
// rows inserted after the pin simply miss this archive (the persisted NextID
// is taken after the pin, so their IDs are not reused on the restored side
// either).
func (d *Dynamic) Save(w io.Writer) error {
	snap := d.db.Acquire()
	defer snap.Release()
	cfg := d.cfg
	a := archiveV4{
		Dim:                cfg.Dim,
		SealThreshold:      cfg.SealThreshold,
		MaxSegments:        cfg.MaxSegments,
		Seed:               cfg.Seed,
		NodeCapacity:       cfg.NodeCapacity,
		RepFraction:        cfg.RepFraction,
		BoundaryThreshold:  cfg.BoundaryThreshold,
		Quantized:          cfg.Quantized,
		DisableAutoCompact: cfg.DisableAutoCompact,
		Epoch:              snap.Epoch(),
		NextID:             d.db.Stats().NextID,
	}
	a.LabelsByID = d.labelsByID()
	for _, in := range snap.SealedInputs() {
		as := archiveSegV4{
			IDs:        in.IDs,
			RFS:        in.Structure.TopologySnapshot(),
			Tombstoned: in.Tombstoned,
		}
		if in.Store.Precision() == store.Float32 {
			as.Points32 = in.Store.Backing32()
		} else {
			as.Points = in.Store.Backing()
		}
		a.Segs = append(a.Segs, as)
	}
	mem := snap.MemInput()
	a.MemBaseID, a.MemRows, a.MemRows32, a.MemTombs = mem.BaseID, mem.Rows, mem.Rows32, mem.Tombstoned

	if _, err := w.Write(archiveHeader(archiveVersionV4)); err != nil {
		return fmt.Errorf("qdcbir: write header: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(&a); err != nil {
		return fmt.Errorf("qdcbir: encode: %w", err)
	}
	return nil
}

// SaveFile persists the dynamic system to a file.
func (d *Dynamic) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := d.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadDynamic reconstructs a dynamic system from any archive this build
// knows: a version-4 dynamic archive restores segments, memtable,
// tombstones, epoch, and labels; a static archive (versions 0 through 3,
// and 5) loads through the monolithic path and is adopted as a single
// sealed segment via OpenDynamic. observer may be nil; when set it
// receives the restored engine's ingest metrics.
func LoadDynamic(r io.Reader, observer *obs.Observer) (*Dynamic, error) {
	return loadDynamic(r, streamLen(r), observer)
}

// LoadDynamicFile reconstructs a dynamic system from a file.
func LoadDynamicFile(path string, observer *obs.Observer) (*Dynamic, error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return loadDynamic(f, size, observer)
}

// loadDynamic is LoadDynamic over a stream of size bytes (negative when
// unknown).
func loadDynamic(r io.Reader, size int64, observer *obs.Observer) (*Dynamic, error) {
	br := bufio.NewReader(r)
	head, _ := br.Peek(4)
	if len(head) == 4 && bytes.Equal(head[:3], archivePrefix[:]) && head[3] == archiveVersionV4 {
		if _, err := br.Discard(4); err != nil {
			return nil, fmt.Errorf("qdcbir: read header: %w", err)
		}
		return loadDynamicV4(br, observer)
	}
	sys, err := load(br, size)
	if err != nil {
		return nil, err
	}
	return OpenDynamic(sys, DynamicConfig{Observer: observer})
}

// loadDynamicV4 decodes a version-4 payload: each segment's store adopts its
// backing at the persisted precision, the tree is rebuilt point-free from
// the topology snapshot (with the float32 scorer over float32 rows), and
// (for quantized configs) each float64 segment's tree retrains its SQ8
// quantizer — deterministic, and harmless to results either way since every
// distance the SQ8 path returns is exact. The engine then reassembles
// through seg.Restore, which re-applies tombstones.
func loadDynamicV4(r io.Reader, observer *obs.Observer) (*Dynamic, error) {
	var a archiveV4
	if err := gob.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("qdcbir: decode: %w", err)
	}
	cfg := DynamicConfig{
		Dim:                a.Dim,
		SealThreshold:      a.SealThreshold,
		MaxSegments:        a.MaxSegments,
		Seed:               a.Seed,
		NodeCapacity:       a.NodeCapacity,
		RepFraction:        a.RepFraction,
		BoundaryThreshold:  a.BoundaryThreshold,
		Quantized:          a.Quantized,
		DisableAutoCompact: a.DisableAutoCompact,
		Observer:           observer,
	}
	// Any float32 rows make a float32 system. An older archive's float64
	// segments beside them hold rows that system scanned narrowed.
	f32 := a.MemRows32 != nil
	for _, as := range a.Segs {
		f32 = f32 || as.Points32 != nil
	}
	sealed := make([]seg.SealedInput, 0, len(a.Segs))
	for si, as := range a.Segs {
		var st *store.FeatureStore
		var err error
		switch {
		case as.Points32 != nil && as.Points != nil:
			return nil, fmt.Errorf("qdcbir: segment %d carries both float64 and float32 points", si)
		case as.Points32 != nil:
			st, err = store.FromBacking32(a.Dim, as.Points32)
		case f32:
			st, err = store.FromBacking32(a.Dim, vec.Narrow32(as.Points, nil))
		default:
			st, err = store.FromBacking(a.Dim, as.Points)
		}
		if err != nil {
			return nil, fmt.Errorf("qdcbir: segment %d store: %w", si, err)
		}
		structure, err := rfs.FromTopologySnapshot(as.RFS, st)
		if err != nil {
			return nil, fmt.Errorf("qdcbir: segment %d: %w", si, err)
		}
		if cfg.Quantized {
			// Training failure (or a float32 tree) leaves the segment
			// without codes, as in buildSegment.
			_ = structure.Tree().TrainQuantized()
		}
		sealed = append(sealed, seg.SealedInput{IDs: as.IDs, Store: st, Structure: structure, Tombstoned: as.Tombstoned})
	}
	// seg.Restore adds the memtable rows at the segments' precision.
	db, err := seg.Restore(cfg.segConfig(), sealed, seg.MemInput{
		BaseID:     a.MemBaseID,
		Rows:       a.MemRows,
		Rows32:     a.MemRows32,
		Tombstoned: a.MemTombs,
	}, a.NextID, a.Epoch)
	if err != nil {
		return nil, err
	}
	labels := a.Labels // an older archive's table
	if labels == nil {
		labels = make(map[int]string, len(a.LabelsByID))
	}
	for id, label := range a.LabelsByID {
		if label != "" {
			labels[id] = label
		}
	}
	return &Dynamic{cfg: dynamicConfigFrom(db.Config(), observer), db: db, labels: labels}, nil
}
