package benchsuite

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"qdcbir/internal/shard"
	"qdcbir/internal/vec"
)

// The shard-leg benchmarks price one /v1/shard/search leg on an in-process
// replica, without the HTTP around it: k = 50 over shard 0 of a three-way
// split, assembled straight from its rows (no system build). One op is one
// Replica.SearchNode. The shapes:
//
//   - f32-clustered: a knn_routed shard — 20,000 × 512 float32 rows from 200
//     Gaussian clusters (σ = 0.3 around N(0, 1) centres), the query a corpus
//     row plus N(0, 0.05²) noise, a root leg;
//   - f32-gaussian: 20,000 × 512 iid N(0, 1) rows and queries, a root leg —
//     no cluster structure for the SQ8 bracket to separate;
//   - f32-leaf: the clustered shard, a leg on one leaf of ~100 rows, the
//     queries near rows of that leaf, as a finalize subquery's are;
//   - f64-37d: 50,000 × 37 float64 rows from 200 clusters, the paper's
//     feature width, a root leg.
const (
	legK           = 50
	legClusters    = 200
	legQueries     = 64
	legLeafSpan    = 3 // clusters per leaf
	legShards      = 3
	legQueryStride = 97
)

type legShape struct {
	rows, dim int // the whole corpus; the shard holds a third of it
	clustered bool
	f32       bool
	leaf      bool // search leaf 0 instead of the root
}

func benchShardLeg(s legShape) func(b *testing.B, _ *fixture) {
	return func(b *testing.B, _ *fixture) {
		rep, node, qs := legShard(b, s)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rep.SearchNode(ctx, node, qs[i%len(qs)], nil, legK); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// legShard builds the replica of s and its queries. Leaves gather
// legLeafSpan clusters' rows under one root, in cluster order.
func legShard(b *testing.B, s legShape) (*shard.Replica, uint64, []vec.Vector) {
	rng := rand.New(rand.NewSource(11))
	centers := make([]float64, legClusters*s.dim)
	for i := range centers {
		centers[i] = rng.NormFloat64()
	}
	leaves := (legClusters + legLeafSpan - 1) / legLeafSpan
	zero := make([]float64, s.dim)
	topo := &shard.Topology{Nodes: []shard.NodeInfo{{ID: 1, Parent: -1, Size: s.rows, Center: zero}}}
	for l := 0; l < leaves; l++ {
		topo.Nodes = append(topo.Nodes, shard.NodeInfo{ID: uint64(l + 2), Parent: 0, Leaf: true, Center: zero})
	}
	a := &shard.Archive{Topo: topo}
	var rows []float64
	var qs []vec.Vector
	row := make([]float64, s.dim)
	for gid := 0; gid < s.rows; gid++ {
		c := rng.Intn(legClusters)
		for d := range row {
			if s.clustered {
				row[d] = centers[c*s.dim+d] + 0.3*rng.NormFloat64()
			} else {
				row[d] = rng.NormFloat64()
			}
			if s.f32 {
				row[d] = float64(float32(row[d]))
			}
		}
		if len(qs) < legQueries && gid%legQueryStride == 0 && (!s.leaf || c < legLeafSpan) {
			q := make(vec.Vector, s.dim)
			for d := range q {
				if s.clustered {
					q[d] = row[d] + 0.05*rng.NormFloat64()
				} else {
					q[d] = rng.NormFloat64()
				}
			}
			qs = append(qs, q)
		}
		if shard.Assign(gid, legShards) != 0 {
			continue
		}
		a.Globals = append(a.Globals, gid)
		a.LeafID = append(a.LeafID, uint64(c/legLeafSpan+2))
		a.Labels = append(a.Labels, fmt.Sprintf("c%03d", c))
		rows = append(rows, row...)
	}
	precision := "f64"
	if s.f32 {
		precision = "f32"
	}
	a.Meta = shard.Meta{ShardCount: legShards, Images: s.rows, LocalImages: len(a.Globals), Dim: s.dim,
		Precision: precision, Storage: precision, ArchiveVersion: shard.ArchiveVersion}
	if err := topo.Index(); err != nil {
		b.Fatal(err)
	}
	order, _, err := shard.SlabLayout(topo, a.LeafID)
	if err != nil {
		b.Fatal(err)
	}
	for _, li := range order {
		r := rows[li*s.dim : (li+1)*s.dim]
		if s.f32 {
			a.Rows.F32 = append(a.Rows.F32, vec.Narrow32(r, nil)...)
		} else {
			a.Rows.F64 = append(a.Rows.F64, r...)
		}
	}
	rep, err := shard.NewReplica(a)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { rep.Close() })
	node := topo.RootID()
	if s.leaf {
		node = 2
	}
	return rep, node, qs
}
