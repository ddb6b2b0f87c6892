package qdcbir

// This file regenerates every table and figure of the paper's evaluation as
// Go benchmarks, one per artifact (DESIGN.md §4 maps each to its experiment):
//
//	BenchmarkTable1Quality      Table 1  — per-query precision & GTIR, MV vs QD
//	BenchmarkTable2Rounds       Table 2  — per-round quality
//	BenchmarkFig1PCA            Figure 1 — PCA cluster scattering
//	BenchmarkFig4to9Qualitative Figures 4–9 — qualitative top-k retrievals
//	BenchmarkFig10Query         Figure 10 — overall query time vs DB size
//	BenchmarkFig11Iteration     Figure 11 — feedback-iteration time vs DB size
//	BenchmarkSec522GlobalKNN    §5.2.2 contrast — per-round global k-NN cost
//
// plus component microbenchmarks for the substrates. Benchmarks run at quick
// scale so `go test -bench=.` completes in minutes; `cmd/qdbench -scale
// paper` reproduces the full-scale numbers recorded in EXPERIMENTS.md.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"qdcbir/internal/baseline"
	"qdcbir/internal/dataset"
	"qdcbir/internal/experiments"
	"qdcbir/internal/feature"
	"qdcbir/internal/img"
	"qdcbir/internal/obs"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/user"
)

var (
	benchOnce sync.Once
	benchSys  *experiments.System

	vecOnce sync.Once
	vecSys  map[int]*experiments.System
)

func benchSystem(b *testing.B) *experiments.System {
	b.Helper()
	benchOnce.Do(func() { benchSys = experiments.BuildSystem(experiments.QuickConfig()) })
	return benchSys
}

func vectorSystems(b *testing.B) map[int]*experiments.System {
	b.Helper()
	vecOnce.Do(func() {
		vecSys = make(map[int]*experiments.System)
		for _, size := range []int{1000, 4000, 16000} {
			vecSys[size] = experiments.BuildVectorSystem(experiments.QuickConfig(), size)
		}
	})
	return vecSys
}

// BenchmarkTable1Quality regenerates Table 1: the full quality study (11
// queries x simulated users, QD vs MV) on the quick corpus.
func BenchmarkTable1Quality(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := experiments.RunQuality(sys)
		if rep.AvgQDG < 0.5 {
			b.Fatalf("quality collapsed: %v", rep.AvgQDG)
		}
	}
}

// BenchmarkTable2Rounds regenerates Table 2: the same sessions viewed
// per-round (the runner produces both tables; the benchmark guards the
// per-round series).
func BenchmarkTable2Rounds(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := experiments.RunQuality(sys)
		if len(rep.Rounds) != 3 {
			b.Fatal("missing rounds")
		}
	}
}

// BenchmarkFig1PCA regenerates Figure 1: PCA projection of the corpus and
// cluster-separation statistics for the multi-view category.
func BenchmarkFig1PCA(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := experiments.RunFig1(sys, "car")
		if len(rep.Subconcepts) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkFig4to9Qualitative regenerates Figures 4-9: the three computer
// queries' top-k retrievals under MV and QD.
func BenchmarkFig4to9Qualitative(b *testing.B) {
	sys := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := experiments.RunQualitative(sys)
		if len(rep.Cases) != 3 {
			b.Fatal("missing cases")
		}
	}
}

// qdSessionOnce runs one full QD query (browse, 2 feedback rounds, finalize)
// against the system — the unit of Figure 10.
func qdSessionOnce(sys *experiments.System, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	subs := sys.Corpus.Subconcepts()
	target := subs[rng.Intn(len(subs))]
	sim := user.New([]string{target}, sys.Corpus.SubconceptOf, rng)
	sess := sys.Engine.NewSession(rng)
	for round := 0; round < 2; round++ {
		var shown []int
		for d := 0; d < 10; d++ {
			for _, c := range sess.Candidates() {
				shown = append(shown, int(c.ID))
			}
		}
		sim.MaxPerRound = 6
		var marks []rstar.ItemID
		for _, id := range sim.SelectDiverse(shown) {
			marks = append(marks, rstar.ItemID(id))
		}
		if err := sess.Feedback(marks); err != nil {
			return err
		}
	}
	if len(sess.Relevant()) == 0 {
		return nil // unlucky browse; still a full-cost session
	}
	_, err := sess.Finalize(50)
	return err
}

// BenchmarkFig10Query regenerates Figure 10's series: overall query
// processing time per database size.
func BenchmarkFig10Query(b *testing.B) {
	for size, sys := range vectorSystems(b) {
		sys := sys
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := qdSessionOnce(sys, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11Iteration regenerates Figure 11's series: the cost of a
// single feedback iteration (one browse + descent round) per database size.
func BenchmarkFig11Iteration(b *testing.B) {
	for size, sys := range vectorSystems(b) {
		sys := sys
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			subs := sys.Corpus.Subconcepts()
			target := subs[0]
			sim := user.New([]string{target}, sys.Corpus.SubconceptOf, rng)
			sess := sys.Engine.NewSession(rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var shown []int
				for d := 0; d < 10; d++ {
					for _, c := range sess.Candidates() {
						shown = append(shown, int(c.ID))
					}
				}
				sim.MaxPerRound = 6
				var marks []rstar.ItemID
				for _, id := range sim.SelectDiverse(shown) {
					marks = append(marks, rstar.ItemID(id))
				}
				if err := sess.Feedback(marks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSec522GlobalKNN prices one round of traditional relevance feedback
// (a global k-NN through the index with QPM refinement) for the §5.2.2 /
// §1.2 comparison against BenchmarkFig11Iteration.
func BenchmarkSec522GlobalKNN(b *testing.B) {
	for size, sys := range vectorSystems(b) {
		sys := sys
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			tk := baseline.NewTreeKNN(sys.RFS.Tree(), sys.Corpus.Store(), 0, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids := tk.Search(50)
				tk.Feedback(ids[:5])
			}
		})
	}
}

// BenchmarkConcurrentSessions measures query throughput with many parallel
// sessions over one shared read-only RFS structure — the "very large user
// community" scalability claim of §6.
func BenchmarkConcurrentSessions(b *testing.B) {
	sys := vectorSystems(b)[4000]
	var ctr int64
	b.RunParallel(func(pb *testing.PB) {
		seed := atomic.AddInt64(&ctr, 1)
		i := int64(0)
		for pb.Next() {
			i++
			if err := qdSessionOnce(sys, seed*100000+i); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Component microbenchmarks ----

// BenchmarkFeatureExtract prices one 37-d extraction (the corpus builder's
// inner loop).
func BenchmarkFeatureExtract(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	im := img.New(dataset.RenderSize, dataset.RenderSize)
	im.FillVGradient(img.RGB{R: 200, G: 60, B: 40}, img.RGB{R: 20, G: 80, B: 220})
	im.FillEllipse(24, 24, 10, 8, img.RGB{R: 240, G: 240, B: 10})
	im.Speckle(rng, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := feature.Extract(im); len(v) != feature.Dim {
			b.Fatal("bad extraction")
		}
	}
}

// BenchmarkRStarKNN prices a global 10-NN through the index at 16k points.
func BenchmarkRStarKNN(b *testing.B) {
	sys := vectorSystems(b)[16000]
	q := sys.Corpus.Vectors[0]
	tree := sys.RFS.Tree()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ns := tree.KNN(q, 10, nil); len(ns) != 10 {
			b.Fatal("bad kNN")
		}
	}
}

// BenchmarkRFSBuild prices the whole RFS construction (bulk load + two-stage
// representative selection) at 4k vectors.
func BenchmarkRFSBuild(b *testing.B) {
	sys := vectorSystems(b)[4000]
	points := sys.Corpus.Vectors
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := rfs.Build(points, rfs.BuildConfig{Seed: int64(i)})
		if s.RepCount() == 0 {
			b.Fatal("no reps")
		}
	}
}

// BenchmarkMVSearch prices one Multiple-Viewpoints retrieval (4 viewpoints,
// linear scans) at 16k vectors — the per-round cost of the paper's
// comparison baseline.
func BenchmarkMVSearch(b *testing.B) {
	sys := vectorSystems(b)[16000]
	mv := baseline.NewMVSubspaces(sys.Corpus.Store(), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ids := mv.Search(50); len(ids) != 50 {
			b.Fatal("bad MV search")
		}
	}
}

// BenchmarkParallelBuild compares the serial and the one-worker-per-CPU
// build pipeline end to end: corpus rendering + 37-d extraction, STR bulk
// load, and k-means representative selection. Output is byte-identical
// across the two (TestParallelBuildDeterminism); only wall-clock differs.
func BenchmarkParallelBuild(b *testing.B) {
	for _, bc := range []struct {
		name string
		p    int
	}{{"serial", 1}, {"maxprocs", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := parTestConfig(bc.p)
			for i := 0; i < b.N; i++ {
				if _, err := Build(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSystemKNNObserver prices the Observer hook on the hottest read
// path. "none" is the default nil hook — the search runs exactly the
// uninstrumented code (no accounter, no clocks, no atomics) plus one
// nil-check, so it benchmarks the zero-cost-when-nil contract against the
// pre-instrumentation baseline. "live" shows what full telemetry costs: a
// per-call disk.Counter threaded through every node access, two clock reads,
// and a histogram observation.
func BenchmarkSystemKNNObserver(b *testing.B) {
	sys, err := Build(parTestConfig(0))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		sys  *System
	}{
		{"none", sys},
		{"live", sys.WithObserver(obs.New(obs.NewRegistry()))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.sys.KNN(i%bc.sys.Len(), 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelFinalize compares serial vs pooled execution of the final
// localized k-NN subqueries: one QueryByExamples call over example images
// drawn from several subconcepts (several independent subqueries to fan out).
func BenchmarkParallelFinalize(b *testing.B) {
	for _, bc := range []struct {
		name string
		p    int
	}{{"serial", 1}, {"maxprocs", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			sys, err := Build(parTestConfig(bc.p))
			if err != nil {
				b.Fatal(err)
			}
			var relevant []rstar.ItemID
			for i, key := range sys.Corpus().Subconcepts() {
				if i >= 4 {
					break
				}
				for _, id := range sys.Corpus().SubconceptIDs(key)[:3] {
					relevant = append(relevant, rstar.ItemID(id))
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.engine.QueryByExamples(relevant, 60, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
