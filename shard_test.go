package qdcbir

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"qdcbir/internal/core"
	"qdcbir/internal/rstar"
	"qdcbir/internal/shard"
	"qdcbir/internal/source"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

var (
	shardSysOnce sync.Once
	shardSys     *System
)

// shardTestConfig is the fleet-test corpus: vector mode for speed, small
// enough to slice eight ways and still exercise multi-level trees.
func shardTestConfig() Config {
	cfg := SmallConfig()
	cfg.VectorMode = true
	cfg.Images = 600
	cfg.Categories = 12
	return cfg
}

func sharedShardSystem(t *testing.T) *System {
	t.Helper()
	shardSysOnce.Do(func() {
		s, err := Build(shardTestConfig())
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		shardSys = s
	})
	if shardSys == nil {
		t.Fatal("shard fixture build failed earlier")
	}
	return shardSys
}

// buildFleet slices sys n ways, round-trips every archive through its
// serialized form, and opens the serving replicas.
func buildFleet(t *testing.T, sys *System, n int) []*shard.Replica {
	t.Helper()
	archives, err := SliceShards(context.Background(), sys, n)
	if err != nil {
		t.Fatalf("SliceShards(%d): %v", n, err)
	}
	reps := make([]*shard.Replica, n)
	total := 0
	for i, a := range archives {
		var buf bytes.Buffer
		if err := a.Write(&buf); err != nil {
			t.Fatalf("shard %d write: %v", i, err)
		}
		rep, local, err := OpenShard(&buf)
		if err != nil {
			t.Fatalf("shard %d open: %v", i, err)
		}
		if local != nil {
			t.Fatalf("shard %d opened with a local system; replicas carry none", i)
		}
		if rep.Meta().LocalImages != a.Meta.LocalImages || rep.Meta().ArchiveVersion != shard.ArchiveVersion {
			t.Fatalf("shard %d meta %+v does not round-trip %+v", i, rep.Meta(), a.Meta)
		}
		if rep.Meta().CorpusSig != archives[0].Meta.CorpusSig {
			t.Fatalf("shard %d corpus signature diverges within one build", i)
		}
		total += a.Meta.LocalImages
		reps[i] = rep
	}
	if total != sys.Len() {
		t.Fatalf("fleet covers %d of %d images", total, sys.Len())
	}
	return reps
}

// fleetSearcher is the in-process equivalent of the router's scatter-gather
// client: every restricted search fans out to all replicas and merges.
type fleetSearcher []*shard.Replica

func (f fleetSearcher) SearchNode(ctx context.Context, nodeID uint64, q vec.Vector, weights []float64, k int) ([]shard.Neighbor, error) {
	lists := make([][]shard.Neighbor, len(f))
	for i, r := range f {
		ns, err := r.SearchNode(ctx, nodeID, q, weights, k)
		if err != nil {
			return nil, err
		}
		lists[i] = ns
	}
	return shard.MergeNeighbors(lists, k), nil
}

// relPointsOf mirrors the router's /v1/query planning: dedup in order, anchor
// each image at its storing leaf, carry its exact vector.
func relPointsOf(sys *System, ids []int) ([]int, []shard.RelPoint) {
	seen := make(map[int]bool, len(ids))
	var dedup []int
	var rel []shard.RelPoint
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		dedup = append(dedup, id)
		rel = append(rel, shard.RelPoint{
			ID:     id,
			NodeID: uint64(sys.RFS().LeafOf(rstar.ItemID(id)).ID()),
			Vec:    sys.Corpus().Vectors[id],
		})
	}
	return dedup, rel
}

// assertResultsEqual demands the distributed finalize is bit-identical to the
// single-node one: same groups, same anchor and search nodes, same image IDs,
// and exactly equal float64 scores.
func assertResultsEqual(t *testing.T, tag string, want *core.Result, got *core.Answer) {
	t.Helper()
	if len(want.Groups) != len(got.Groups) {
		t.Fatalf("%s: %d groups vs %d single-node", tag, len(got.Groups), len(want.Groups))
	}
	for gi, wg := range want.Groups {
		gg := got.Groups[gi]
		if uint64(wg.Node.ID()) != gg.NodeID {
			t.Fatalf("%s group %d: anchor node %d vs %d", tag, gi, gg.NodeID, uint64(wg.Node.ID()))
		}
		if uint64(wg.SearchNode.ID()) != gg.SearchNodeID {
			t.Fatalf("%s group %d: search node %d vs %d", tag, gi, gg.SearchNodeID, uint64(wg.SearchNode.ID()))
		}
		wq := make([]int, len(wg.QueryIDs))
		for i, id := range wg.QueryIDs {
			wq[i] = int(id)
		}
		if !reflect.DeepEqual(wq, gg.QueryIDs) {
			t.Fatalf("%s group %d: query ids %v vs %v", tag, gi, gg.QueryIDs, wq)
		}
		if wg.RankScore != gg.RankScore {
			t.Fatalf("%s group %d: rank score %v vs %v", tag, gi, gg.RankScore, wg.RankScore)
		}
		if len(wg.Images) != len(gg.Images) {
			t.Fatalf("%s group %d: %d images vs %d", tag, gi, len(gg.Images), len(wg.Images))
		}
		for ii, wi := range wg.Images {
			gim := gg.Images[ii]
			if int(wi.ID) != gim.ID || wi.Score != gim.Score {
				t.Fatalf("%s group %d image %d: (%d, %v) vs (%d, %v)",
					tag, gi, ii, gim.ID, gim.Score, int(wi.ID), wi.Score)
			}
		}
	}
}

// TestShardMergeEquivalence is the correctness anchor of the sharded tier:
// over 1, 2, 4, and 8 shards, both the initial k-NN round and the §3.3/§3.4
// finalize round merge to results byte-identical (IDs and distances) to the
// single-node engine — over float64 rows, with and without SQ8, and over the
// same corpus narrowed to float32 rows at import.
func TestShardMergeEquivalence(t *testing.T) {
	modes := []struct {
		name  string
		build func() (*System, error)
	}{
		{"f64", func() (*System, error) { return Build(shardTestConfig()) }},
		{"quantized", func() (*System, error) {
			cfg := shardTestConfig()
			cfg.Quantized = true
			return Build(cfg)
		}},
		{"f32", func() (*System, error) {
			base, err := Build(shardTestConfig())
			if err != nil {
				return nil, err
			}
			return BuildFromSource(shardTestConfig(), source.AtPrecision(source.FromCorpus(base.Corpus()), store.Float32))
		}},
	}
	relevant := []int{3, 9, 9, 12, 200, 201, 430, 430, 77}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			sys, err := mode.build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			eng := sys.Engine()
			ctx := context.Background()
			for _, n := range []int{1, 2, 4, 8} {
				fleet := fleetSearcher(buildFleet(t, sys, n))
				root := fleet[0].Topo().RootID()
				boundary := fleet[0].Meta().Boundary
				for _, k := range []int{10, 50} {
					// Initial retrieval: global k-NN.
					for _, ex := range []int{0, 37, 211} {
						want, err := sys.KNN(ex, k)
						if err != nil {
							t.Fatal(err)
						}
						got, err := fleet.SearchNode(ctx, root, sys.Corpus().Vectors[ex], nil, k)
						if err != nil {
							t.Fatalf("shards=%d scatter knn: %v", n, err)
						}
						if len(got) != len(want) {
							t.Fatalf("shards=%d k=%d ex=%d: %d results vs %d", n, k, ex, len(got), len(want))
						}
						for i := range want {
							if got[i].ID != want[i].ID || got[i].Dist != want[i].Score {
								t.Fatalf("shards=%d k=%d ex=%d rank %d: (%d, %v) vs (%d, %v)",
									n, k, ex, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Score)
							}
						}
					}

					// Post-feedback finalize round.
					ids := make([]rstar.ItemID, len(relevant))
					for i, id := range relevant {
						ids[i] = rstar.ItemID(id)
					}
					want, stats, err := eng.QueryByExamplesCtx(ctx, ids, k, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					_, rel := relPointsOf(sys, relevant)
					got, err := shard.FinalizeScatter(ctx, fleet[0].Topo(), fleet, rel, k, nil, boundary, 0)
					if err != nil {
						t.Fatalf("shards=%d finalize scatter: %v", n, err)
					}
					tag := mode.name + "/finalize"
					assertResultsEqual(t, tag, want, got)
					if stats.Expansions != got.Expansions {
						t.Fatalf("%s shards=%d: %d expansions vs %d", tag, n, got.Expansions, stats.Expansions)
					}
				}
			}
		})
	}
}

// batchSource serves an in-memory batch to BuildFromSource.
type batchSource struct{ b *source.Batch }

func (batchSource) Format() string                    { return "test-batch" }
func (s batchSource) Vectors() (*source.Batch, error) { return s.b, nil }

// precisionSystem rebuilds the shared fleet corpus through one import:
// "f64" is the float64 build itself, "f32-native" imports the rows narrowed
// to float32, and two imports convert the batch once on the way in, where
// they once crossed a storage precision with the other scan precision:
// "f32-scan-over-f64" narrows the float64 rows at import, and
// "f32-storage-f64-scan" widens the float32 rows back at import.
func precisionSystem(t *testing.T, mode string) *System {
	t.Helper()
	base := sharedShardSystem(t)
	if mode == "f64" {
		return base
	}
	var src source.VectorSource = source.FromCorpus(base.Corpus())
	switch mode {
	case "f32-scan-over-f64":
		src = source.AtPrecision(src, store.Float32)
	case "f32-native", "f32-storage-f64-scan":
		st := base.Corpus().Store()
		batch := &source.Batch{
			Dim:    st.Dim(),
			Data32: vec.Narrow32(st.Backing(), nil),
			Labels: make([]string, st.Len()),
		}
		for i := range batch.Labels {
			batch.Labels[i] = base.SubconceptOf(i)
		}
		src = batchSource{batch}
		if mode == "f32-storage-f64-scan" {
			src = source.AtPrecision(src, store.Float64)
		}
	}
	sys, err := BuildFromSource(shardTestConfig(), src)
	if err != nil {
		t.Fatalf("BuildFromSource: %v", err)
	}
	return sys
}

// TestShardMergeEquivalenceWeighted covers the weighted-distance finalize
// path, which always runs the exact float64 kernels: over float64 rows, and
// over float32-native rows that a replica widens chunk by chunk.
func TestShardMergeEquivalenceWeighted(t *testing.T) {
	for _, mode := range []string{"f64", "f32-native"} {
		t.Run(mode, func(t *testing.T) {
			sys := precisionSystem(t, mode)
			dim := len(sys.Corpus().Vectors[0])
			weights := make([]float64, dim)
			for i := range weights {
				weights[i] = 1
			}
			weights[0], weights[3] = 2.5, 0.25
			ids := []rstar.ItemID{5, 41, 300, 301}
			want, _, err := sys.Engine().QueryByExamplesCtx(context.Background(), ids, 30, vec.Vector(weights), nil)
			if err != nil {
				t.Fatal(err)
			}
			fleet := fleetSearcher(buildFleet(t, sys, 4))
			_, rel := relPointsOf(sys, []int{5, 41, 300, 301})
			got, err := shard.FinalizeScatter(context.Background(), fleet[0].Topo(), fleet, rel, 30, weights, fleet[0].Meta().Boundary, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, "weighted", want, got)
		})
	}
}

// TestShardPrecisionModes pins what a replica keeps of its rows against the
// single node, for every import of precisionSystem: the replicas store the
// rows at the precision the import chose, PointInfo hands out each row's
// float64 view bit for bit (a float32 row's exact widening), and a global
// k-NN merges to the single-node answer.
func TestShardPrecisionModes(t *testing.T) {
	storage := map[string]string{"f64": "f64", "f32-native": "f32", "f32-scan-over-f64": "f32", "f32-storage-f64-scan": "f64"}
	for _, mode := range []string{"f64", "f32-native", "f32-scan-over-f64", "f32-storage-f64-scan"} {
		t.Run(mode, func(t *testing.T) {
			sys := precisionSystem(t, mode)
			fleet := fleetSearcher(buildFleet(t, sys, 3))
			st := sys.Corpus().Store()
			if got := fleet[0].Meta().Storage; got != storage[mode] || st.Precision().String() != got {
				t.Fatalf("replicas store %s rows, the single node %v; want %s", got, st.Precision(), storage[mode])
			}
			if sys.RFS().Tree().Float32Scoring() != (st.Precision() == store.Float32) {
				t.Fatalf("%v rows, float32 scorer installed = %v", st.Precision(), sys.RFS().Tree().Float32Scoring())
			}
			for id := 0; id < st.Len(); id++ {
				owners := 0
				for _, rep := range fleet {
					p, ok := rep.PointInfo(id)
					if !ok {
						continue
					}
					owners++
					want := st.At(id)
					for d := range want {
						if math.Float64bits(p.Vec[d]) != math.Float64bits(want[d]) {
							t.Fatalf("image %d dim %d: replica %v, single node %v", id, d, p.Vec[d], want[d])
						}
					}
					if p.Leaf != uint64(sys.RFS().LeafOf(rstar.ItemID(id)).ID()) || p.Label != sys.SubconceptOf(id) {
						t.Fatalf("image %d: leaf %d label %q", id, p.Leaf, p.Label)
					}
				}
				if owners != 1 {
					t.Fatalf("image %d held by %d replicas", id, owners)
				}
			}
			root := fleet[0].Topo().RootID()
			for _, ex := range []int{0, 37, 211} {
				want, err := sys.KNN(ex, 25)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fleet.SearchNode(context.Background(), root, sys.Corpus().Vectors[ex], nil, 25)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i].ID != want[i].ID || got[i].Dist != want[i].Score {
						t.Fatalf("ex=%d rank %d: (%d, %v) vs (%d, %v)", ex, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Score)
					}
				}
			}
			// Argument validation.
			rep, ctx, q := fleet[0], context.Background(), sys.Corpus().Vectors[0]
			if _, err := rep.SearchNode(ctx, root, q, nil, 0); err == nil {
				t.Fatal("k = 0 accepted")
			}
			if _, err := rep.SearchNode(ctx, root, vec.Vector{1, 2}, nil, 5); err == nil {
				t.Fatal("wrong-dim query accepted")
			}
			if _, err := rep.SearchNode(ctx, 1<<60, q, nil, 5); err == nil {
				t.Fatal("unknown node accepted")
			}
			neg := make([]float64, rep.Meta().Dim)
			neg[0] = -1
			if _, err := rep.SearchNode(ctx, root, q, neg, 5); err == nil {
				t.Fatal("negative weight accepted")
			}
		})
	}
}

// TestShardArchiveRejectsGarbage guards the sniffing contract between the
// three on-disk formats.
func TestShardArchiveRejectsGarbage(t *testing.T) {
	if _, err := shard.ReadArchive(bytes.NewReader([]byte("not an archive"))); err == nil {
		t.Fatal("garbage accepted as shard archive")
	}
	if shard.IsArchiveHeader([]byte{0xD1, 'Q', 'D', 3}) {
		t.Fatal("versioned system archive header misdetected as shard archive")
	}
	sys := sharedShardSystem(t)
	if _, err := SliceShard(context.Background(), sys, 0, 0); err == nil {
		t.Fatal("shard count 0 accepted")
	}
	if _, err := SliceShard(context.Background(), sys, 4, 4); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
}

// TestSessionExportRestoreFinalizeParity pins the failover contract behind
// the router: a session exported mid-flight, JSON round-tripped, and restored
// on a fresh engine finalizes bit-identically to the original.
func TestSessionExportRestoreFinalizeParity(t *testing.T) {
	sys := sharedShardSystem(t)
	eng := sys.Engine()
	a := eng.NewSession(rand.New(rand.NewSource(7)))
	for round := 0; round < 3; round++ {
		cands := a.Candidates()
		if len(cands) == 0 {
			t.Fatal("no candidates")
		}
		var marks []rstar.ItemID
		for i, c := range cands {
			if i%3 == 0 {
				marks = append(marks, c.ID)
			}
		}
		if err := a.Feedback(marks); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	st := a.ExportState()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var st2 core.SessionState
	if err := json.Unmarshal(raw, &st2); err != nil {
		t.Fatal(err)
	}
	b, err := eng.RestoreSession(&st2, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatalf("RestoreSession: %v", err)
	}
	if got, want := b.Stats().FeedbackReads, a.Stats().FeedbackReads; got != want {
		t.Fatalf("restored session carries %d feedback reads, original %d", got, want)
	}
	resA, err := a.Finalize(25)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := b.Finalize(25)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA.IDs(), resB.IDs()) {
		t.Fatalf("restored finalize IDs diverge:\n  orig %v\n  rest %v", resA.IDs(), resB.IDs())
	}
	fa, fb := resA.Flat(), resB.Flat()
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("restored finalize score diverges at %d: %+v vs %+v", i, fb[i], fa[i])
		}
	}

	// An export written while states still listed every image ever shown
	// (a field nothing read) imports as if the list were not there.
	old := bytes.Replace(raw, []byte(`{"version":1,`), []byte(`{"version":1,"ever_shown":[0,1,2,3],`), 1)
	if bytes.Equal(old, raw) {
		t.Fatalf("export does not open with its version: %s", raw)
	}
	var stOld core.SessionState
	if err := json.Unmarshal(old, &stOld); err != nil {
		t.Fatalf("export carrying ever_shown: %v", err)
	}
	if !reflect.DeepEqual(stOld, st2) {
		t.Fatalf("export carrying ever_shown decodes to %+v, want %+v", stOld, st2)
	}
	c, err := eng.RestoreSession(&stOld, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatalf("RestoreSession of an export carrying ever_shown: %v", err)
	}
	if again, err := json.Marshal(c.ExportState()); err != nil || !bytes.Equal(again, raw) {
		t.Fatalf("re-export after import (err=%v):\n  got  %s\n  want %s", err, again, raw)
	}

	// Tampered states are rejected, not half-restored.
	bad := st2
	bad.Assign = map[int]uint64{0: 1 << 60}
	bad.Relevant = []int{0}
	if _, err := eng.RestoreSession(&bad, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("state with unknown node accepted")
	}
}

// TestShardSessionParity drives a topology-backed round machine and an
// engine-backed core.Session with the same seed through the same rounds and
// demands identical displays, identical decomposition state, identical
// exported state, and a distributed finalize identical to the single-node
// one.
func TestShardSessionParity(t *testing.T) {
	sys := sharedShardSystem(t)
	topo := shard.TopologyOf(sys.RFS(), sys.SubconceptOf)
	if err := topo.Index(); err != nil {
		t.Fatal(err)
	}
	dc := sys.Config().DisplayCount
	cs := sys.Engine().NewSession(rand.New(rand.NewSource(11)))
	ss := core.NewMachine(topo.Hierarchy(), rand.New(rand.NewSource(11)), dc)
	for round := 0; round < 3; round++ {
		cc := cs.Candidates()
		var sc []int
		for _, c := range ss.Candidates() {
			sc = append(sc, c.ID)
		}
		ccIDs := make([]int, len(cc))
		for i, c := range cc {
			ccIDs[i] = int(c.ID)
		}
		if !reflect.DeepEqual(ccIDs, sc) {
			t.Fatalf("round %d displays diverge:\n  core  %v\n  shard %v", round, ccIDs, sc)
		}
		var coreMarks []rstar.ItemID
		var shardMarks []int
		for i, id := range ccIDs {
			if i%3 == 0 {
				coreMarks = append(coreMarks, rstar.ItemID(id))
				shardMarks = append(shardMarks, id)
			}
		}
		if err := cs.Feedback(coreMarks); err != nil {
			t.Fatal(err)
		}
		if err := ss.Feedback(shardMarks); err != nil {
			t.Fatal(err)
		}
		if len(cs.Frontier()) != len(ss.Frontier()) {
			t.Fatalf("round %d: %d subqueries vs core %d", round, len(ss.Frontier()), len(cs.Frontier()))
		}
	}
	// Retraction keeps the two in lockstep too.
	drop := []int{int(cs.Relevant()[0])}
	cs.Retract([]rstar.ItemID{rstar.ItemID(drop[0])})
	ss.Retract(drop)

	stCore := cs.ExportState()
	stShard := ss.ExportState()
	rawCore, err := json.Marshal(stCore)
	if err != nil {
		t.Fatal(err)
	}
	rawShard, err := json.Marshal(stShard)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawCore, rawShard) {
		t.Fatalf("exported states diverge:\n  core  %s\n  shard %s", rawCore, rawShard)
	}

	// The router's finalize path over the exported shard state equals the
	// single-node session finalize.
	want, err := cs.Finalize(25)
	if err != nil {
		t.Fatal(err)
	}
	fleet := fleetSearcher(buildFleet(t, sys, 4))
	var rel []shard.RelPoint
	for _, id := range stShard.Relevant {
		node, ok := stShard.Assign[id]
		if !ok {
			continue
		}
		rel = append(rel, shard.RelPoint{ID: id, NodeID: node, Vec: sys.Corpus().Vectors[id]})
	}
	got, err := shard.FinalizeScatter(context.Background(), topo, fleet, rel, 25, stShard.Weights, fleet[0].Meta().Boundary, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "session", want, got)

	// A shard session restored from the exported state replays identically to
	// a second restore of the same state (stateless resume).
	r1, err := core.RestoreMachine(topo.Hierarchy(), stShard, rand.New(rand.NewSource(5)), dc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.RestoreMachine(topo.Hierarchy(), stShard, rand.New(rand.NewSource(5)), dc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Candidates(), r2.Candidates()) {
		t.Fatal("restored shard sessions diverge under one seed")
	}
}

// TestNaNQueryAnswersNothing: a query with a NaN component lies at a NaN
// distance from every row, and a NaN distance is never an answer. One such
// query goes, over float64 rows and over float32 rows, to the system's tree,
// to every replica sliced from it, and to a dynamic snapshot over the same
// corpus with rows in its memtable: every answer is empty, so routed and
// single-node answers agree.
func TestNaNQueryAnswersNothing(t *testing.T) {
	const k = 10
	ctx := context.Background()
	for _, mode := range []string{"f64", "f32-native"} {
		sys := precisionSystem(t, mode)
		q := sys.Corpus().Vectors[7].Clone()
		q[2] = math.NaN()
		tree := sys.RFS().Tree()
		if ns, err := tree.KNNSearch(ctx, tree.Root(), nil, rstar.Query{Q: q, K: k}); err != nil || len(ns) != 0 {
			t.Errorf("%s tree (float32 %v): %d rows, err %v", mode, tree.Float32Scoring(), len(ns), err)
		}
		for i, rep := range buildFleet(t, sys, 3) {
			if ns, err := rep.SearchNode(ctx, rep.Topo().RootID(), q, nil, k); err != nil || len(ns) != 0 {
				t.Errorf("%s replica %d: %v, err %v", mode, i, ns, err)
			}
		}
		dyn, err := OpenDynamic(sys, DynamicConfig{DisableAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := dyn.Insert(sys.Corpus().Vectors[i], ""); err != nil {
				t.Fatal(err)
			}
		}
		if st := dyn.Stats(); st.MemRows != 5 {
			t.Fatalf("%s: %d memtable rows, want 5", mode, st.MemRows)
		}
		if ns, err := dyn.KNN(ctx, q, k); err != nil || len(ns) != 0 {
			t.Errorf("%s snapshot: %v, err %v", mode, ns, err)
		}
		dyn.Close()
	}
}
