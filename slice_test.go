package qdcbir

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"qdcbir/internal/rstar"
	"qdcbir/internal/shard"
	"qdcbir/internal/store"
)

// refSliceShard packages shard index the way slicing did before the slices
// shared one topology table and signature: everything derived afresh for
// this index, the signature hashed a byte at a time.
func refSliceShard(sys *System, shards, index int) (*shard.Archive, error) {
	st := sys.Corpus().Store()
	n, dim := st.Len(), st.Dim()
	var globals []int
	for gid := 0; gid < n; gid++ {
		if shard.Assign(gid, shards) == index {
			globals = append(globals, gid)
		}
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
			Storage:        st.Precision().String(),
			ArchiveVersion: shard.ArchiveVersion,
			CorpusSig:      refCorpusSignature(sys, topo, shards),
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

// refCorpusSignature is FNV-1a, one byte at a time, over the byte stream
// shardCorpusSignature digests.
func refCorpusSignature(sys *System, topo *shard.Topology, shards int) uint64 {
	h := uint64(14695981039346656037)
	b := func(p []byte) {
		for _, c := range p {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	u64 := func(v uint64) { b(binary.LittleEndian.AppendUint64(nil, v)) }
	st := sys.Corpus().Store()
	b([]byte("qdshard-sig-1"))
	u64(uint64(shards))
	u64(uint64(st.Len()))
	u64(uint64(st.Dim()))
	b([]byte(st.Precision().String()))
	if st.Precision() == store.Float32 {
		for _, v := range st.Backing32() {
			b(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
		}
	} else {
		for _, v := range st.Backing() {
			u64(math.Float64bits(v))
		}
	}
	u64(uint64(len(topo.Nodes)))
	for _, n := range topo.Nodes {
		u64(n.ID)
		u64(uint64(int64(n.Parent)))
		u64(uint64(n.Size))
	}
	return h
}

func archiveBytes(t *testing.T, a *shard.Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSliceShardsMatchPerIndex: the slices of one partition, cut by
// SliceShards from one shared topology table and signature, and each cut
// alone by SliceShard, are byte for byte the archives of slicing every index
// from scratch — over float64 and float32-native stores.
func TestSliceShardsMatchPerIndex(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []string{"f64", "f32-native"} {
		sys := precisionSystem(t, mode)
		for _, shards := range []int{2, 3} {
			all, err := SliceShards(ctx, sys, shards)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < shards; i++ {
				tag := fmt.Sprintf("%s %d/%d", mode, i, shards)
				ref, err := refSliceShard(sys, shards, i)
				if err != nil {
					t.Fatal(err)
				}
				want := archiveBytes(t, ref)
				lone, err := SliceShard(ctx, sys, shards, i)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(archiveBytes(t, all[i]), want) {
					t.Errorf("%s: SliceShards archive differs from the per-index one", tag)
				}
				if !bytes.Equal(archiveBytes(t, lone), want) {
					t.Errorf("%s: SliceShard archive differs from the per-index one", tag)
				}
				if !reflect.DeepEqual(all[i].Topo.Nodes, ref.Topo.Nodes) {
					t.Errorf("%s: topology differs", tag)
				}
			}
		}
	}
}

// TestShardCorpusSignatureChunked: hashing the rows in chunks yields the
// digest of FNV-1a fed the same stream one byte at a time, for float64 and
// float32 stores.
func TestShardCorpusSignatureChunked(t *testing.T) {
	for _, mode := range []string{"f64", "f32-native"} {
		sys := precisionSystem(t, mode)
		topo := shard.TopologyOf(sys.RFS(), sys.SubconceptOf)
		for _, shards := range []int{1, 3} {
			got, want := shardCorpusSignature(sys, topo, shards), refCorpusSignature(sys, topo, shards)
			if got != want {
				t.Errorf("%s, %d shards: signature %016x, byte-at-a-time FNV-1a %016x", mode, shards, got, want)
			}
		}
	}
}
