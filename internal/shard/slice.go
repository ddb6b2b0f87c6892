package shard

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"qdcbir/internal/offheap"
)

// Meta identifies a shard archive and the fleet it belongs to. A router
// refuses to assemble a fleet whose members disagree on any of these fields —
// most importantly CorpusSig (the slices must come from one build of one
// corpus) and Storage (float32 rows are scanned in float32 and float64 rows
// in float64, and the two kinds of distance must never be merged).
type Meta struct {
	ShardIndex     int     `json:"shard_index"`
	ShardCount     int     `json:"shard_count"`
	Images         int     `json:"images"`       // full corpus size
	LocalImages    int     `json:"local_images"` // rows stored on this shard
	Dim            int     `json:"dim"`
	Storage        string  `json:"storage"`         // precision the rows are stored and scanned at: "f64" or "f32"
	ArchiveVersion int     `json:"archive_version"` // shard archive format version
	CorpusSig      uint64  `json:"corpus_sig"`      // signature of (corpus, topology, shard count)
	Boundary       float64 `json:"boundary"`        // §3.3 expansion threshold of the build
	DisplayCount   int     `json:"display_count"`
}

// ArchiveVersion is the shard archive format this package writes and reads.
// Version 1 embedded a whole local system archive beside the rows; version 2
// carries the topology and the rows once.
const ArchiveVersion = 2

// shardMagic opens every shard archive: the qdcbir family byte, 'Q' 'S' for
// "shard", then the format version. Distinct from both the versioned system
// archive prefix (0xD1 'Q' 'D') and bare gob streams, so loaders can sniff
// the kind from the first four bytes.
var shardMagic = [4]byte{0xD1, 'Q', 'S', ArchiveVersion}

// ErrStaleArchive refuses a shard archive written in an older format. Shard
// archives are derived from the system archive, so the remedy is to slice it
// again; there is no upgrade path.
var ErrStaleArchive = errors.New("shard: archive format is no longer supported; re-run qdbuild -shards on the system archive")

// IsArchiveHeader reports whether head (>= 4 bytes) begins a shard archive of
// any format version.
func IsArchiveHeader(head []byte) bool {
	return len(head) >= 4 && head[0] == shardMagic[0] && head[1] == shardMagic[1] &&
		head[2] == shardMagic[2]
}

// Archive is one shard's self-contained form: fleet identity, the full
// single-node topology, and the shard's own rows — each exactly once. Globals,
// LeafID and Labels are per local row (ascending global ID); Rows is in slab
// order (see SlabLayout), which is the order a replica sweeps. Archives are
// produced by the root package's SliceShard and opened by OpenShard.
//
// An archive from ReadArchive holds its rows in a mapping outside the Go heap
// (package offheap), sized for the replica's whole slab: NewReplica adopts
// it, and otherwise Release frees it.
type Archive struct {
	Meta    Meta
	Topo    *Topology
	Globals []int    // global image IDs stored here, ascending
	LeafID  []uint64 // full-tree leaf node ID per local row
	Rows    Rows     // feature rows in slab order, at Meta.Storage precision
	Labels  []string // ground-truth label per local row

	mem *offheap.Region // ReadArchive's slab mapping, until a replica adopts it
}

// Release frees the rows ReadArchive mapped, which are dead afterwards. It
// does nothing once NewReplica has adopted them (Replica.Close frees them
// then) or for an archive built in memory.
func (a *Archive) Release() error {
	if a.mem == nil {
		return nil
	}
	err := a.mem.Free()
	a.mem, a.Rows = nil, Rows{}
	return err
}

// Rows holds a shard's feature rows at their storage precision, Dim values
// per row. Exactly one of F64 and F32 is set.
type Rows struct {
	F64 []float64
	F32 []float32
}

// checkHeader validates everything a reader knows before it reads the rows,
// so no allocation is sized by a count the rest of the archive contradicts.
func (a *Archive) checkHeader() error {
	m := &a.Meta
	if m.ShardCount < 1 || m.ShardIndex < 0 || m.ShardIndex >= m.ShardCount {
		return fmt.Errorf("shard: shard %d of %d is not a valid coordinate", m.ShardIndex, m.ShardCount)
	}
	if m.Storage != "f64" && m.Storage != "f32" {
		return fmt.Errorf("shard: unknown storage precision %q", m.Storage)
	}
	if m.Dim < 1 || m.LocalImages < 1 || m.LocalImages > m.Images || m.Dim > math.MaxInt/layoutOf(*m).bytesPerValue()/m.LocalImages {
		return fmt.Errorf("shard: %d local images of %d at dim %d", m.LocalImages, m.Images, m.Dim)
	}
	if len(a.Globals) != m.LocalImages || len(a.LeafID) != m.LocalImages || len(a.Labels) != m.LocalImages {
		return fmt.Errorf("shard: %d local images but %d globals, %d leaf assignments, %d labels",
			m.LocalImages, len(a.Globals), len(a.LeafID), len(a.Labels))
	}
	for i, g := range a.Globals {
		if g < 0 || g >= m.Images || (i > 0 && g <= a.Globals[i-1]) {
			return fmt.Errorf("shard: global ID %d at row %d is out of order or outside [0,%d)", g, i, m.Images)
		}
	}
	if a.Topo == nil || len(a.Topo.Nodes) == 0 {
		return fmt.Errorf("shard: empty topology")
	}
	for i := range a.Topo.Nodes {
		if len(a.Topo.Nodes[i].Center) != m.Dim {
			return fmt.Errorf("shard: topology node %d has a %d-d center, corpus dim is %d", i, len(a.Topo.Nodes[i].Center), m.Dim)
		}
	}
	return nil
}

// check validates the whole archive: the header, then the rows against it.
func (a *Archive) check() error {
	if err := a.checkHeader(); err != nil {
		return err
	}
	n32, n64 := len(a.Rows.F32), len(a.Rows.F64)
	if n32+n64 != a.Meta.LocalImages*a.Meta.Dim || (a.Meta.Storage == "f32") != (n32 > 0) {
		return fmt.Errorf("shard: %d float32 and %d float64 row values for %d %s rows of dim %d",
			n32, n64, a.Meta.LocalImages, a.Meta.Storage, a.Meta.Dim)
	}
	return nil
}

// Write persists the archive: the 4-byte shard magic, the archive less its
// rows as one gob value, then the rows as raw little-endian values, which a
// reader decodes straight into the slab. Write does not validate; ReadArchive
// refuses an archive whose counts disagree.
func (a *Archive) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(shardMagic[:]); err != nil {
		return fmt.Errorf("shard: write header: %w", err)
	}
	head := *a
	head.Rows = Rows{} // gob writes nothing for empty slices
	if err := gob.NewEncoder(bw).Encode(&head); err != nil {
		return fmt.Errorf("shard: encode: %w", err)
	}
	var rows any = a.Rows.F64
	if a.Rows.F32 != nil {
		rows = a.Rows.F32
	}
	if err := binary.Write(bw, binary.LittleEndian, rows); err != nil {
		return fmt.Errorf("shard: write rows: %w", err)
	}
	return bw.Flush()
}

// readRows decodes len(rows) little-endian values straight into rows,
// through one small buffer.
func readRows[T float32 | float64](r io.Reader, rows []T) error {
	const chunk = 8 << 10 // values per read
	n, size := len(rows), binary.Size(T(0))
	buf := make([]byte, chunk*size)
	for i := 0; i < n; i += chunk {
		part := rows[i:min(i+chunk, n)]
		b := buf[:len(part)*size]
		if _, err := io.ReadFull(r, b); err != nil {
			return fmt.Errorf("shard: rows truncated after %d of %d values: %w", i, n, err)
		}
		switch p := any(part).(type) {
		case []float32:
			for j := range p {
				p[j] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*j:]))
			}
		case []float64:
			for j := range p {
				p[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
			}
		}
	}
	return nil
}

// WriteFile persists the archive to a file.
func (a *Archive) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := a.Write(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadArchive decodes a shard archive stream. Every count in the header is
// checked against the others before the rows are allocated, and the stream
// must end exactly where the rows do. The rows are decoded into a mapping
// sized for the replica's slab (see Archive); a failed read leaves none.
func ReadArchive(r io.Reader) (*Archive, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil || !IsArchiveHeader(head) {
		return nil, fmt.Errorf("shard: not a shard archive (header % x)", head)
	}
	if head[3] != ArchiveVersion {
		return nil, fmt.Errorf("%w (archive version %d, this build reads %d)", ErrStaleArchive, head[3], ArchiveVersion)
	}
	if _, err := br.Discard(4); err != nil {
		return nil, fmt.Errorf("shard: read header: %w", err)
	}
	var a Archive
	if err := gob.NewDecoder(br).Decode(&a); err != nil {
		return nil, fmt.Errorf("shard: decode: %w", err)
	}
	if err := a.checkHeader(); err != nil {
		return nil, err
	}
	lay := layoutOf(a.Meta)
	if a.mem, err = offheap.Alloc(lay.size()); err != nil {
		return nil, fmt.Errorf("shard: slab: %w", err)
	}
	f64, f32, _ := lay.views(a.mem)
	a.Rows = Rows{}
	if a.Meta.Storage == "f32" {
		a.Rows.F32, err = f32, readRows(br, f32)
	} else {
		a.Rows.F64, err = f64, readRows(br, f64)
	}
	if err == nil {
		switch _, rerr := br.ReadByte(); {
		case rerr == nil:
			err = fmt.Errorf("shard: trailing bytes after %d rows", a.Meta.LocalImages)
		case rerr != io.EOF:
			err = fmt.Errorf("shard: read past rows: %w", rerr)
		}
	}
	if err != nil {
		a.Release()
		return nil, err
	}
	return &a, nil
}
