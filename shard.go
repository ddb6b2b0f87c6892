package qdcbir

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"qdcbir/internal/rstar"
	"qdcbir/internal/shard"
	"qdcbir/internal/source"
	"qdcbir/internal/store"
)

// SliceShard partitions the built system's corpus by consistent hash and
// packages shard `index` of `shards`. The returned archive embeds a freshly
// built local system over the shard's rows (same build configuration, local
// tree shape) plus the FULL system's topology table — restricted searches run
// against the single-node hierarchy's node IDs, which is what makes
// scatter-gather merges bit-identical to the unsharded result.
func SliceShard(ctx context.Context, sys *System, shards, index int) (*shard.Archive, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: invalid shard count %d", shards)
	}
	if index < 0 || index >= shards {
		return nil, fmt.Errorf("shard: index %d outside [0,%d)", index, shards)
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

	// Build the local subset as a standalone system under the same
	// configuration. Row order preserves global-ID order, so local row i maps
	// to globals[i].
	batch := &source.Batch{Dim: dim, Labels: make([]string, len(globals))}
	if st.Precision() == store.Float32 {
		backing := st.Backing32()
		batch.Data32 = make([]float32, 0, len(globals)*dim)
		for _, gid := range globals {
			batch.Data32 = append(batch.Data32, backing[gid*dim:(gid+1)*dim]...)
		}
	} else {
		backing := st.Backing()
		batch.Data = make([]float64, 0, len(globals)*dim)
		for _, gid := range globals {
			batch.Data = append(batch.Data, backing[gid*dim:(gid+1)*dim]...)
		}
	}
	for i, gid := range globals {
		batch.Labels[i] = sys.SubconceptOf(gid)
	}
	base := sys.Config()
	local, err := BuildFromSourceContext(ctx, Config{
		Seed:              base.Seed,
		NodeCapacity:      base.NodeCapacity,
		RepFraction:       base.RepFraction,
		BoundaryThreshold: base.BoundaryThreshold,
		DisplayCount:      base.DisplayCount,
		Hierarchy:         base.Hierarchy,
		Parallelism:       base.Parallelism,
		Quantized:         base.Quantized,
		Float32:           base.Float32,
	}, sliceSource{batch})
	if err != nil {
		return nil, fmt.Errorf("shard: build local system: %w", err)
	}
	var sysBuf bytes.Buffer
	if err := local.Save(&sysBuf); err != nil {
		return nil, fmt.Errorf("shard: embed local system: %w", err)
	}

	topo := shard.TopologyOf(sys.RFS(), sys.SubconceptOf)
	leafID := make([]uint64, len(globals))
	for i, gid := range globals {
		leafID[i] = uint64(sys.RFS().LeafOf(rstar.ItemID(gid)).ID())
	}
	a := &shard.Archive{
		Meta: shard.Meta{
			ShardIndex:     index,
			ShardCount:     shards,
			Images:         n,
			LocalImages:    len(globals),
			Dim:            dim,
			Precision:      scanPrecision(base),
			Quantized:      sys.Quantized(),
			ArchiveVersion: ArchiveVersionCurrent,
			CorpusSig:      shardCorpusSignature(sys, topo, shards),
			Boundary:       base.BoundaryThreshold,
			DisplayCount:   base.DisplayCount,
		},
		Topo:    topo,
		Globals: globals,
		LeafID:  leafID,
		Sys:     sysBuf.Bytes(),
	}
	return a, nil
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

// OpenShard reads a shard archive and assembles the serving replica along
// with the standalone system over the shard's local subset (which hosts the
// replica's feedback-session engine).
func OpenShard(r io.Reader) (*shard.Replica, *System, error) {
	a, err := shard.ReadArchive(r)
	if err != nil {
		return nil, nil, err
	}
	sys, err := Load(bytes.NewReader(a.Sys))
	if err != nil {
		return nil, nil, fmt.Errorf("shard: embedded system: %w", err)
	}
	st := sys.Corpus().Store()
	if st.Len() != len(a.Globals) {
		return nil, nil, fmt.Errorf("shard: embedded system holds %d rows, archive lists %d", st.Len(), len(a.Globals))
	}
	if got := scanPrecision(sys.Config()); got != a.Meta.Precision {
		return nil, nil, fmt.Errorf("shard: embedded system scans at %s, archive says %s", got, a.Meta.Precision)
	}
	labels := make([]string, st.Len())
	for li := range labels {
		labels[li] = sys.SubconceptOf(li)
	}
	rep, err := shard.NewReplica(a, shard.LocalRows{
		Dim: st.Dim(),
		N:   st.Len(),
		// The scan mode, not the storage precision, picks the replica's f32
		// kernel path — it must mirror what the single-node tree sweeps.
		F32:    sys.Config().Float32,
		At:     func(li int) []float64 { return st.At(li) },
		Labels: labels,
	})
	if err != nil {
		return nil, nil, err
	}
	return rep, sys, nil
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

// sliceSource adapts an in-memory batch to the source.VectorSource interface.
type sliceSource struct{ b *source.Batch }

func (sliceSource) Format() string                    { return "shard-slice" }
func (s sliceSource) Vectors() (*source.Batch, error) { return s.b, nil }
