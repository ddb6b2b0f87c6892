package benchsuite

import (
	"sync"
	"testing"

	"qdcbir"
	"qdcbir/internal/source"
)

// The scale benchmarks price the global k-NN where the fixture cannot: 400
// images are four leaves, so every search opens all of them and a descent has
// nothing to skip. SystemKNNScan50k is the paper's largest database size
// (50,000 × 37-d, k = 50; the shape of qdload's embedded_sq8), where the exact
// descent reads ~14 of ~720 nodes and the SQ8 row filter has to ride that
// descent rather than replace it. SystemKNNScanEmbed is the control at the
// other extreme: 2,000 Gaussian rows in 512-d have no cluster structure an MBR
// could bound, every leaf is opened, and the search costs a code sweep of the
// whole corpus plus a MINDIST per node — the worst the filter can do, gated
// so it stays a sweep's price. All three are fixture-free; each system is
// built once per process, on first use.
const (
	scaleRows, scaleK = 50000, 50
	scaleEmbedRows    = 2000
)

// lazySystem builds its system the first time a benchmark asks for it.
type lazySystem struct {
	build func() (*qdcbir.System, error)
	once  sync.Once
	sys   *qdcbir.System
	err   error
}

func (l *lazySystem) get(b *testing.B) *qdcbir.System {
	l.once.Do(func() { l.sys, l.err = l.build() })
	if l.err != nil {
		b.Fatal(l.err)
	}
	return l.sys
}

func build50k(quantized bool) func() (*qdcbir.System, error) {
	return func() (*qdcbir.System, error) {
		return qdcbir.Build(qdcbir.Config{Seed: 1, VectorMode: true, Images: scaleRows, Categories: 150, Quantized: quantized})
	}
}

var (
	scaleExact = &lazySystem{build: build50k(false)}
	scaleSQ8   = &lazySystem{build: build50k(true)}
	scaleEmbed = &lazySystem{build: buildGaussianEmbed}
)

// buildGaussianEmbed builds the SQ8 system over scaleEmbedRows Gaussian rows
// of embedDim dimensions, drawn from the suite's LCG: seed-free and the same
// everywhere.
func buildGaussianEmbed() (*qdcbir.System, error) {
	state := uint64(0xA0761D6478BD642F)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	batch := &source.Batch{Dim: embedDim, Data: make([]float64, scaleEmbedRows*embedDim), Labels: make([]string, scaleEmbedRows)}
	for i := range batch.Data {
		// Sum of twelve uniforms, centred: Gaussian enough to have no
		// clusters.
		var g float64
		for j := 0; j < 12; j++ {
			g += next()
		}
		batch.Data[i] = g - 6
	}
	for i := range batch.Labels {
		batch.Labels[i] = "gauss"
	}
	return qdcbir.BuildFromSource(qdcbir.Config{Seed: 3, Quantized: true}, batchSource{batch})
}

// benchScaleKNN prices System.KNN(k = scaleK) over l's system.
func benchScaleKNN(l *lazySystem) func(b *testing.B, _ *fixture) {
	return func(b *testing.B, _ *fixture) {
		sys := l.get(b)
		n := sys.Len() // the generator rounds per category: a little under scaleRows
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A large prime stride visits rows all over the corpus.
			if _, err := sys.KNN(i*7919%n, scaleK); err != nil {
				b.Fatal(err)
			}
		}
	}
}
