// Package benchsuite is the regression-harness benchmark suite behind
// `qdbench -json` / `-compare`: a fixed set of named benchmarks over the
// retrieval system and the observability layer, run through testing.Benchmark
// (legal outside `go test`) and emitted in the benchjson schema so runs can
// be diffed across commits.
//
// The suite prices the paths this repository's PRs have promised to keep
// fast: the global k-NN read path with and without an Observer (the
// zero-cost-when-nil contract) and at the paper's largest database size and
// on unprunable embeddings (scale.go), opening a feedback session and its full
// finalize fan-out, the SQ8 candidate selector's drain, the
// sliding-window digest's observe and rotate operations, a routed k-NN and
// one-shot query through an in-process three-shard fleet (routed.go), and
// one shard replica's search leg (shardleg.go).
package benchsuite

import (
	"fmt"
	"regexp"
	"testing"
	"time"

	"qdcbir"
	"qdcbir/internal/benchjson"
	"qdcbir/internal/obs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/source"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// Options configures a suite run.
type Options struct {
	// Filter selects benchmarks by name (regexp; empty runs everything).
	Filter string
	// Description is stamped into the output document.
	Description string
}

// entry is one suite benchmark. Engine benchmarks share the lazily built
// fixture; digest benchmarks ignore it.
type entry struct {
	name string
	fn   func(b *testing.B, fix *fixture)
}

// fixture is the shared system set: one uninstrumented, one observed, one
// searching behind the SQ8 row filter, and one scanning at float32 precision, all
// over the same corpus.
type fixture struct {
	plain     *qdcbir.System
	observed  *qdcbir.System
	quantized *qdcbir.System
	float32p  *qdcbir.System
	relevant  []int // example panel spanning several subconcepts
}

// buildFixture constructs the benchmark corpus: small enough to build in
// about a second, large enough for a multi-level hierarchy and a multi-group
// finalize fan-out.
func buildFixture() (*fixture, error) {
	cfg := qdcbir.SmallConfig()
	cfg.Categories = 8
	cfg.Images = 400
	sys, err := qdcbir.Build(cfg)
	if err != nil {
		return nil, err
	}
	qcfg := cfg
	qcfg.Quantized = true
	qsys, err := qdcbir.Build(qcfg)
	if err != nil {
		return nil, err
	}
	// The float32 system is the same corpus narrowed once at import.
	fsys, err := qdcbir.BuildFromSource(cfg, source.AtPrecision(source.FromCorpus(sys.Corpus()), store.Float32))
	if err != nil {
		return nil, err
	}
	fix := &fixture{
		plain:     sys,
		observed:  sys.WithObserver(obs.New(obs.NewRegistry())),
		quantized: qsys,
		float32p:  fsys,
	}
	for i, key := range sys.Corpus().Subconcepts() {
		if i >= 4 {
			break
		}
		for _, id := range sys.Corpus().SubconceptIDs(key)[:3] {
			fix.relevant = append(fix.relevant, id)
		}
	}
	return fix, nil
}

func benchKNN(sys *qdcbir.System) func(b *testing.B, fix *fixture) {
	return func(b *testing.B, _ *fixture) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.KNN(i%sys.Len(), 10); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// suite returns the benchmark list over the given fixture-backed systems.
func suite(fix *fixture) []entry {
	return []entry{
		{"BenchmarkSystemKNNObserver/none", benchKNN(fix.plain)},
		{"BenchmarkSystemKNNObserver/live", benchKNN(fix.observed)},
		{"BenchmarkSystemKNNScan/exact", benchKNN(fix.plain)},
		{"BenchmarkSystemKNNScan/sq8", benchKNN(fix.quantized)},
		{"BenchmarkSystemKNNScan/f32", benchKNN(fix.float32p)},
		{"BenchmarkSystemKNNScan50k/exact", benchScaleKNN(scaleExact)},
		{"BenchmarkSystemKNNScan50k/sq8", benchScaleKNN(scaleSQ8)},
		{"BenchmarkSystemKNNScanEmbed/sq8", benchScaleKNN(scaleEmbed)},
		{"BenchmarkLeafScanKernel/exact", benchLeafScanF64(featureDim)},
		{"BenchmarkLeafScanKernel/sq8", benchLeafScanSQ8},
		{"BenchmarkLeafScanKernel/f32", benchLeafScanF32(featureDim)},
		{"BenchmarkLeafScanKernelEmbed/f64", benchLeafScanF64(embedDim)},
		{"BenchmarkLeafScanKernelEmbed/f32", benchLeafScanF32(embedDim)},
		{"BenchmarkScanTableFootprint/exact", benchScanTableExact},
		{"BenchmarkScanTableFootprint/sq8", benchScanTableSQ8},
		{"BenchmarkDynamicInsert", benchDynamicInsert},
		{"BenchmarkDynamicKNN/quiescent", benchDynamicKNN},
		{"BenchmarkDynamicKNN/under-writes", benchDynamicKNNUnderWrites},
		{"BenchmarkSessionOpen", benchSessionOpen(fix.plain)},
		{"BenchmarkQueryFinalize/observer=none", benchFinalize(fix.plain)},
		{"BenchmarkQueryFinalize/observer=live", benchFinalize(fix.observed)},
		{"BenchmarkWindowedDigestObserve", benchDigestObserve},
		{"BenchmarkWindowedDigestRotate", benchDigestRotate},
		{"BenchmarkPerfettoExport", benchPerfettoExport},
		{"BenchmarkRoutedKNN", benchRoutedKNN},
		{"BenchmarkRoutedQuery", benchRoutedQuery},
		{"BenchmarkOpenShard", benchOpenShard},
		{"BenchmarkShardLeg/f32-clustered", benchShardLeg(legShape{rows: 20000, dim: embedDim, clustered: true, f32: true})},
		{"BenchmarkShardLeg/f32-gaussian", benchShardLeg(legShape{rows: 20000, dim: embedDim, f32: true})},
		{"BenchmarkShardLeg/f32-leaf", benchShardLeg(legShape{rows: 20000, dim: embedDim, clustered: true, f32: true, leaf: true})},
		{"BenchmarkShardLeg/f64-37d", benchShardLeg(legShape{rows: 50000, dim: featureDim, clustered: true})},
	}
}

// benchSessionOpen prices starting a feedback session, which every hosted
// session and every first round pays: its B/op is what a session holds
// before it has touched a page.
func benchSessionOpen(sys *qdcbir.System) func(b *testing.B, fix *fixture) {
	return func(b *testing.B, _ *fixture) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sys.NewSession(int64(i)) == nil {
				b.Fatal("no session")
			}
		}
	}
}

// benchFinalize prices the localized finalize fan-out via the engine's
// one-shot query path (grouping, boundary expansion, parallel subqueries,
// serial merge).
func benchFinalize(sys *qdcbir.System) func(b *testing.B, fix *fixture) {
	return func(b *testing.B, fix *fixture) {
		ids := make([]rstar.ItemID, len(fix.relevant))
		for i, id := range fix.relevant {
			ids[i] = rstar.ItemID(id)
		}
		eng := sys.Engine()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.QueryByExamples(ids, 60, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The leaf-scan kernel benchmarks price one full leaf-block distance sweep —
// the inner loop of every k-NN — over a synthetic slab, large enough to
// stream from memory the way a big leaf run does. One op = one distance per
// row, every row. The slab dimension is a parameter: featureDim matches the
// paper's extractor, embedDim matches imported embedding corpora.
const (
	leafScanRows = 4096
	featureDim   = 37
	embedDim     = 512
)

// leafScanBlock builds the deterministic synthetic slab and a query drawn
// from the same distribution.
func leafScanBlock(dim int) ([]float64, vec.Vector) {
	data := make([]float64, leafScanRows*dim)
	// Cheap deterministic LCG: no seeding differences across runs.
	state := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for i := range data {
		data[i] = next()
	}
	q := make(vec.Vector, dim)
	for i := range q {
		q[i] = next()
	}
	return data, q
}

// benchLeafScanF64 prices the float64 batch kernel over a dim-wide slab.
func benchLeafScanF64(dim int) func(b *testing.B, _ *fixture) {
	return func(b *testing.B, _ *fixture) {
		data, q := leafScanBlock(dim)
		out := make([]float64, leafScanRows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vec.SquaredDistsTo(q, data, out)
		}
	}
}

// benchLeafScanF32 prices the float32 batch kernel over the same rows
// narrowed once up front — the sweep a float32 corpus runs where a float64
// one runs the float64 kernel.
func benchLeafScanF32(dim int) func(b *testing.B, _ *fixture) {
	return func(b *testing.B, _ *fixture) {
		data, q := leafScanBlock(dim)
		data32 := vec.Narrow32(data, nil)
		q32 := vec.Narrow32(q, nil)
		out := make([]float32, leafScanRows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vec.SquaredDistsTo32(q32, data32, out)
		}
	}
}

// benchLeafScanSQ8 prices the uint8 batch kernel over the same rows: the
// quantized sweep the SQ8 path substitutes for the float kernel.
func benchLeafScanSQ8(b *testing.B, _ *fixture) {
	data, q := leafScanBlock(featureDim)
	qz, err := store.QuantizeBacking(featureDim, data)
	if err != nil {
		b.Fatal(err)
	}
	qc, _ := qz.EncodeQuery(q, nil)
	out := make([]int32, leafScanRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.Uint8SquaredDistsTo(qc, qz.Codes(), out)
	}
}

// benchScanTableExact materializes the float64 scan table each op; its B/op
// is the per-table memory footprint of the exact path.
func benchScanTableExact(b *testing.B, _ *fixture) {
	data, _ := leafScanBlock(featureDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := make([]float64, len(data))
		copy(tbl, data)
		if tbl[0] != data[0] {
			b.Fatal("copy failed")
		}
	}
}

// benchScanTableSQ8 materializes the SQ8 codes table each op; comparing its
// B/op against the exact variant shows the 8x footprint reduction.
func benchScanTableSQ8(b *testing.B, _ *fixture) {
	data, _ := leafScanBlock(featureDim)
	qz, err := store.QuantizeBacking(featureDim, data)
	if err != nil {
		b.Fatal(err)
	}
	codes := qz.Codes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := make([]uint8, len(codes))
		copy(tbl, codes)
		if tbl[0] != codes[0] {
			b.Fatal("copy failed")
		}
	}
}

// benchDigestObserve prices the steady-state sample path: no rotation, one
// mutex acquisition plus a bucket scan.
func benchDigestObserve(b *testing.B, _ *fixture) {
	w := obs.NewWindowedHistogram(nil, obs.DefaultSlotDuration, obs.DefaultSlots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Observe(0.0042)
	}
}

// benchDigestRotate prices the worst-case sample path: every observation
// lands one tick past the previous one, forcing a slot rotation.
func benchDigestRotate(b *testing.B, _ *fixture) {
	w := obs.NewWindowedHistogram(nil, obs.DefaultSlotDuration, obs.DefaultSlots)
	base := time.Unix(1_000_000, 0)
	tick := 0
	w.SetClock(func() time.Time {
		return base.Add(time.Duration(tick) * obs.DefaultSlotDuration)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick++
		w.Observe(0.0042)
	}
}

// benchPerfettoExport prices rendering a full trace ring as trace-event JSON.
func benchPerfettoExport(b *testing.B, _ *fixture) {
	o := obs.New(nil)
	for i := 0; i < obs.DefaultTraceCap; i++ {
		tr := o.StartTrace("query")
		o.FinalizeDone(tr, obs.FinalizeSpan{
			K: 20, Subqueries: 3, DurationNS: 1e6,
			Subspans: []obs.SubquerySpan{{Node: 1, DurationNS: 1e5}, {Node: 2, DurationNS: 2e5}, {Node: 3, DurationNS: 3e5}},
		})
	}
	traces := o.Traces()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if evs := obs.PerfettoEvents(traces); len(evs) == 0 {
			b.Fatal("no events")
		}
	}
}

// fixtureFree names the benchmarks that never touch the engine fixture
// (digest, export, and synthetic-block kernels), so filtered runs over them
// skip the corpus build.
var fixtureFree = map[string]bool{
	"BenchmarkWindowedDigestObserve":    true,
	"BenchmarkWindowedDigestRotate":     true,
	"BenchmarkPerfettoExport":           true,
	"BenchmarkLeafScanKernel/exact":     true,
	"BenchmarkLeafScanKernel/sq8":       true,
	"BenchmarkLeafScanKernel/f32":       true,
	"BenchmarkLeafScanKernelEmbed/f64":  true,
	"BenchmarkLeafScanKernelEmbed/f32":  true,
	"BenchmarkScanTableFootprint/exact": true,
	"BenchmarkScanTableFootprint/sq8":   true,
	"BenchmarkDynamicInsert":            true,
	"BenchmarkDynamicKNN/quiescent":     true,
	"BenchmarkDynamicKNN/under-writes":  true,
	"BenchmarkSystemKNNScan50k/exact":   true,
	"BenchmarkSystemKNNScan50k/sq8":     true,
	"BenchmarkSystemKNNScanEmbed/sq8":   true,
	"BenchmarkRoutedKNN":                true,
	"BenchmarkRoutedQuery":              true,
	"BenchmarkOpenShard":                true,
	"BenchmarkShardLeg/f32-clustered":   true,
	"BenchmarkShardLeg/f32-gaussian":    true,
	"BenchmarkShardLeg/f32-leaf":        true,
	"BenchmarkShardLeg/f64-37d":         true,
}

// needsFixture reports whether any selected benchmark touches the engine
// fixture, so filtered fixture-free runs skip the corpus build.
func needsFixture(names []string) bool {
	for _, n := range names {
		if !fixtureFree[n] {
			return true
		}
	}
	return false
}

// Run executes the suite (optionally filtered) and returns the results as a
// benchjson document. progress, when non-nil, receives one line per
// benchmark.
func Run(opts Options, progress func(format string, args ...any)) (*benchjson.File, error) {
	if progress == nil {
		progress = func(string, ...any) {}
	}
	var filter *regexp.Regexp
	if opts.Filter != "" {
		var err error
		if filter, err = regexp.Compile(opts.Filter); err != nil {
			return nil, fmt.Errorf("benchsuite: bad filter: %w", err)
		}
	}
	// Select against a fixture-less suite first so a digest-only filter can
	// skip the corpus build entirely.
	var selected []string
	for _, e := range suite(&fixture{}) {
		if filter == nil || filter.MatchString(e.name) {
			selected = append(selected, e.name)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("benchsuite: filter %q selects no benchmarks", opts.Filter)
	}
	fix := &fixture{}
	if needsFixture(selected) {
		progress("building benchmark corpus...")
		var err error
		if fix, err = buildFixture(); err != nil {
			return nil, err
		}
	}
	desc := opts.Description
	if desc == "" {
		desc = "qdbench regression-suite run"
	}
	out := benchjson.NewFile(desc)
	sel := make(map[string]bool, len(selected))
	for _, n := range selected {
		sel[n] = true
	}
	for _, e := range suite(fix) {
		if !sel[e.name] {
			continue
		}
		fn := e.fn
		progress("running %s...", e.name)
		r := testing.Benchmark(func(b *testing.B) { fn(b, fix) })
		out.Benchmarks = append(out.Benchmarks, benchjson.Benchmark{
			Name: e.name,
			Result: &benchjson.Metrics{
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			},
		})
		progress("  %s: %d iterations, %.0f ns/op", e.name,
			r.N, float64(r.T.Nanoseconds())/float64(r.N))
	}
	return out, nil
}
