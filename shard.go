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
	if shards < 1 {
		return nil, fmt.Errorf("shard: invalid shard count %d", shards)
	}
	if index < 0 || index >= shards {
		return nil, fmt.Errorf("shard: index %d outside [0,%d)", index, shards)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := sys.Corpus().Store()
	n, dim := st.Len(), st.Dim()
	var globals []int
	for gid := 0; gid < n; gid++ {
		if shard.Assign(gid, shards) == index {
			globals = append(globals, gid)
		}
	}
	if len(globals) == 0 {
		return nil, fmt.Errorf("shard: shard %d of %d holds no images (corpus of %d too small)", index, shards, n)
	}

	topo := shard.TopologyOf(sys.RFS(), sys.SubconceptOf)
	leafID := make([]uint64, len(globals))
	labels := make([]string, len(globals))
	for i, gid := range globals {
		leafID[i] = uint64(sys.RFS().LeafOf(rstar.ItemID(gid)).ID())
		labels[i] = sys.SubconceptOf(gid)
	}
	order, _, err := shard.SlabLayout(topo, leafID)
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
			Precision:      scanPrecision(base),
			Storage:        st.Precision().String(),
			Quantized:      sys.Quantized(),
			ArchiveVersion: shard.ArchiveVersion,
			CorpusSig:      shardCorpusSignature(sys, topo, shards),
			Boundary:       base.BoundaryThreshold,
			DisplayCount:   base.DisplayCount,
		},
		Topo:    topo,
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

// SliceShards packages every shard of an N-way partition.
func SliceShards(ctx context.Context, sys *System, shards int) ([]*shard.Archive, error) {
	out := make([]*shard.Archive, shards)
	for i := 0; i < shards; i++ {
		a, err := SliceShard(ctx, sys, shards, i)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// scanPrecision tags the configuration's distance result mode: "f32" when
// unweighted sweeps run the float32 kernels (Config.Float32), "f64"
// otherwise. This is a property of the scan, not of the storage — a float32
// mode over float64-native data still rounds every distance to float32, so
// two fleets differing only in this tag must never merge.
func scanPrecision(cfg Config) string {
	if cfg.Float32 {
		return "f32"
	}
	return "f64"
}

// OpenShard reads a shard archive and assembles the serving replica, whose
// slab is the archive's rows as decoded. A replica has no local engine: the
// *System result is always nil and remains only for callers written against
// the shape that once carried one.
func OpenShard(r io.Reader) (*shard.Replica, *System, error) {
	a, err := shard.ReadArchive(r)
	if err != nil {
		return nil, nil, err
	}
	rep, err := shard.NewReplica(a)
	return rep, nil, err
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
	if st.Precision() == store.Float32 {
		for _, v := range st.Backing32() {
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
			h.Write(buf[:4])
		}
	} else {
		for _, v := range st.Backing() {
			wu(math.Float64bits(v))
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
