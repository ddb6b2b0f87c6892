package qdcbir

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"qdcbir/internal/rstar"
	"qdcbir/internal/shard"
	"qdcbir/internal/store"
)

// SliceShard partitions the built system's corpus by consistent hash and
// packages shard `index` of `shards`: the FULL system's topology table plus
// the shard's own rows, once, at the store's native precision. Restricted
// searches run against the single-node hierarchy's node IDs, which is what
// makes scatter-gather merges bit-identical to the unsharded result; no
// per-shard tree is built.
func SliceShard(ctx context.Context, sys *System, shards, index int) (*shard.Archive, error) {
	sl, err := NewSlicer(ctx, sys, shards)
	if err != nil {
		return nil, err
	}
	return sl.Slice(ctx, index)
}

// SliceShards packages every shard of an N-way partition.
func SliceShards(ctx context.Context, sys *System, shards int) ([]*shard.Archive, error) {
	sl, err := NewSlicer(ctx, sys, shards)
	if err != nil {
		return nil, err
	}
	out := make([]*shard.Archive, shards)
	for i := range out {
		if out[i], err = sl.Slice(ctx, i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// A Slicer packages the shards of one N-way partition of a built system.
// What every slice shares — the topology table, the corpus signature and the
// partition of the image IDs — is derived once, by NewSlicer; Slice then
// gathers one shard's rows. Slice(i) returns exactly what SliceShard(i)
// does.
type Slicer struct {
	sys     *System
	topo    *shard.Topology
	sig     uint64
	globals [][]int // globals[i]: shard i's global IDs, ascending
}

// NewSlicer prepares the slices of a `shards`-way partition of sys.
func NewSlicer(ctx context.Context, sys *System, shards int) (*Slicer, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: invalid shard count %d", shards)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := sys.Corpus().Store().Len()
	globals := make([][]int, shards)
	for gid := 0; gid < n; gid++ {
		i := shard.Assign(gid, shards)
		globals[i] = append(globals[i], gid)
	}
	topo := shard.TopologyOf(sys.RFS(), sys.SubconceptOf)
	return &Slicer{sys: sys, topo: topo, sig: shardCorpusSignature(sys, topo, shards), globals: globals}, nil
}

// Slice packages shard `index`.
func (sl *Slicer) Slice(ctx context.Context, index int) (*shard.Archive, error) {
	shards := len(sl.globals)
	if index < 0 || index >= shards {
		return nil, fmt.Errorf("shard: index %d outside [0,%d)", index, shards)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sys := sl.sys
	st := sys.Corpus().Store()
	n, dim := st.Len(), st.Dim()
	globals := sl.globals[index]
	if len(globals) == 0 {
		return nil, fmt.Errorf("shard: shard %d of %d holds no images (corpus of %d too small)", index, shards, n)
	}

	// Each archive gets its own table header over the shared nodes: a
	// replica re-indexes the table it is given, and must not do so under
	// another replica reading the same one.
	topo := *sl.topo
	leafID := make([]uint64, len(globals))
	labels := make([]string, len(globals))
	for i, gid := range globals {
		leafID[i] = uint64(sys.RFS().LeafOf(rstar.ItemID(gid)).ID())
		labels[i] = sys.SubconceptOf(gid)
	}
	order, _, err := shard.SlabLayout(&topo, leafID)
	if err != nil {
		return nil, err
	}
	var rows shard.Rows
	if st.Precision() == store.Float32 {
		rows.F32 = gatherRows(st.Backing32(), dim, globals, order)
	} else {
		rows.F64 = gatherRows(st.Backing(), dim, globals, order)
	}
	base := sys.Config()
	return &shard.Archive{
		Meta: shard.Meta{
			ShardIndex:     index,
			ShardCount:     shards,
			Images:         n,
			LocalImages:    len(globals),
			Dim:            dim,
			Storage:        st.Precision().String(),
			ArchiveVersion: shard.ArchiveVersion,
			CorpusSig:      sl.sig,
			Boundary:       base.BoundaryThreshold,
			DisplayCount:   base.DisplayCount,
		},
		Topo:    &topo,
		Globals: globals,
		LeafID:  leafID,
		Rows:    rows,
		Labels:  labels,
	}, nil
}

// gatherRows copies the listed rows of a store backing into slab order:
// slab row i is local row order[i], whose global ID is globals[order[i]].
func gatherRows[T float32 | float64](backing []T, dim int, globals, order []int) []T {
	out := make([]T, 0, len(order)*dim)
	for _, li := range order {
		gid := globals[li]
		out = append(out, backing[gid*dim:(gid+1)*dim]...)
	}
	return out
}

// OpenShard reads a shard archive and assembles the serving replica, whose
// slab is the archive's rows as decoded, in a read-only mapping outside the
// Go heap that the replica owns: Replica.Close frees it. A replica has no
// local engine: the *System result is always nil and remains only for
// callers written against the shape that once carried one.
func OpenShard(r io.Reader) (*shard.Replica, *System, error) {
	a, err := shard.ReadArchive(r)
	if err != nil {
		return nil, nil, err
	}
	rep, err := shard.NewReplica(a)
	if err != nil {
		a.Release()
		return nil, nil, err
	}
	return rep, nil, nil
}

// OpenShardFile reads a shard archive from a file.
func OpenShardFile(path string) (*shard.Replica, *System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return OpenShard(f)
}

// sigChunk is how many bytes of rows shardCorpusSignature hands the hash at
// once.
const sigChunk = 64 << 10

// shardCorpusSignature digests what must be identical across a fleet: the
// shard count, the corpus (size, dimension, precision, every vector bit) and
// the hierarchy shape. Two slices merge safely iff their signatures match.
func shardCorpusSignature(sys *System, topo *shard.Topology, shards int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte("qdshard-sig-1"))
	st := sys.Corpus().Store()
	wu(uint64(shards))
	wu(uint64(st.Len()))
	wu(uint64(st.Dim()))
	h.Write([]byte(st.Precision().String()))
	// The rows go to the hash in large chunks of the same little-endian
	// byte stream: FNV-1a reads it a byte at a time either way.
	chunk := make([]byte, sigChunk)
	if st.Precision() == store.Float32 {
		rows := st.Backing32()
		for len(rows) > 0 {
			m := min(len(rows), sigChunk/4)
			for i, v := range rows[:m] {
				binary.LittleEndian.PutUint32(chunk[4*i:], math.Float32bits(v))
			}
			h.Write(chunk[:4*m])
			rows = rows[m:]
		}
	} else {
		rows := st.Backing()
		for len(rows) > 0 {
			m := min(len(rows), sigChunk/8)
			for i, v := range rows[:m] {
				binary.LittleEndian.PutUint64(chunk[8*i:], math.Float64bits(v))
			}
			h.Write(chunk[:8*m])
			rows = rows[m:]
		}
	}
	wu(uint64(len(topo.Nodes)))
	for _, n := range topo.Nodes {
		wu(n.ID)
		wu(uint64(int64(n.Parent)))
		wu(uint64(n.Size))
	}
	return h.Sum64()
}
