// Package qdcbir is a content-based image retrieval (CBIR) engine built on
// the Query Decomposition model of Hua, Yu & Liu (ICDE 2006): instead of
// refining a single k-nearest-neighbor neighborhood, relevance feedback
// decomposes the query into independent localized subqueries — one per
// semantically relevant cluster — and merges their local results, so images
// with the same meaning but very different appearance are all retrieved.
//
// The package bundles everything the paper's prototype contains: a 37-d
// visual feature extractor (colour moments, wavelet texture, edge structure),
// an R*-tree-based Relevance Feedback Support (RFS) structure with k-means
// representative selection, the query decomposition engine, the comparison
// baselines (Multiple Viewpoints, query point movement, MARS multipoint,
// Qcluster-style), a synthetic Corel-like corpus generator, and the harness
// that regenerates every table and figure of the paper's evaluation.
//
// Quickstart:
//
//	sys, err := qdcbir.Build(qdcbir.SmallConfig())
//	sess := sys.NewSession(1)
//	cands := sess.Candidates()              // browse representative images
//	_ = sess.Feedback(pickRelevant(cands))  // mark what you like
//	res, err := sess.Finalize(40)           // localized k-NN + merge
//
// See the examples/ directory for complete programs.
package qdcbir

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"qdcbir/internal/core"
	"qdcbir/internal/dataset"
	"qdcbir/internal/disk"
	"qdcbir/internal/feature"
	"qdcbir/internal/img"
	"qdcbir/internal/obs"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/source"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// Config controls corpus generation and engine parameters. Zero values take
// the paper's settings via DefaultConfig.
type Config struct {
	// Seed makes the whole system (corpus, clustering, sessions started with
	// a fixed seed) reproducible.
	Seed int64
	// Categories and Images set the synthetic corpus scale (paper: ~150
	// categories, 15,000 images).
	Categories int
	Images     int
	// VectorMode skips rendering: feature vectors are drawn directly from
	// per-subconcept Gaussians. Fast, used for scalability studies; the MV
	// colour channels are unavailable in this mode.
	VectorMode bool
	// WithChannels extracts the four Multiple-Viewpoints colour-channel
	// representations (image mode only); required to run the MV baseline.
	WithChannels bool

	// NodeCapacity is the R*-tree node capacity (paper: 100).
	NodeCapacity int
	// RepFraction is the representative-image fraction (paper: 5%).
	RepFraction float64
	// BoundaryThreshold is the §3.3 search-expansion threshold (paper: 0.4).
	BoundaryThreshold float64
	// DisplayCount is the number of candidates per display (paper GUI: 21).
	DisplayCount int
	// Hierarchy selects the RFS clustering backbone: "str" (default,
	// STR-bulk-loaded R*-tree), "insert" (incremental R* insertion), or
	// "kmeans" (balanced hierarchical k-means; the paper notes any
	// hierarchical clustering works, §3.1).
	Hierarchy string

	// Parallelism bounds the worker pools used for corpus feature
	// extraction, RFS representative selection, STR bulk-load sorting, and
	// the final localized subqueries (<= 0 uses one worker per CPU). Every
	// output — corpus vectors, tree shape, representative sets, query
	// results, simulated I/O counts — is byte-identical at every setting;
	// the knob trades wall-clock time only.
	Parallelism int

	// Quantized enables the SQ8 row filter: the search descends the tree as
	// the exact path does, and at each leaf it opens, the leaf's 8-bit code
	// rows (8x smaller, int-only arithmetic) decide which rows are scored in
	// full precision — a row is skipped only when its code distance proves it
	// lies outside the current k-th distance. Results, node reads and page
	// traces are bit-identical to the exact path. Weighted searches always
	// use the exact path. Off by default.
	Quantized bool

	// Float32 runs unweighted searches at float32 precision: the corpus rows
	// narrow to a float32 mirror once at build time, queries narrow once per
	// search, and the sweeps run the float32 batch kernels (half the memory
	// traffic, twice the SIMD lanes of the float64 path). Unlike Quantized —
	// which is an optimization whose results stay bit-identical to float64 —
	// Float32 is a distinct documented result mode: distances round to
	// float32, so neighbours whose float64 distances differ only below
	// float32 resolution may swap ranks. Within the mode, results are
	// deterministic across platforms, with and without SIMD acceleration.
	// Float32 takes precedence over Quantized; weighted searches always use
	// the exact float64 path. Off by default, and natural for imported
	// float32 embedding corpora (see BuildFromSource), where narrowing loses
	// nothing.
	Float32 bool
}

// DefaultConfig returns the paper's full-scale configuration.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		Categories:        150,
		Images:            15000,
		NodeCapacity:      100,
		RepFraction:       0.05,
		BoundaryThreshold: 0.4,
		DisplayCount:      21,
	}
}

// SmallConfig returns a laptop-friendly configuration (~1,200 images) that
// builds in about a second. The representative fraction is raised so
// representatives-per-leaf matches the paper's geometry at the smaller node
// size.
func SmallConfig() Config {
	c := DefaultConfig()
	c.Categories = 25
	c.Images = 1200
	c.NodeCapacity = 24
	c.RepFraction = 0.2
	return c
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Categories <= 0 {
		c.Categories = d.Categories
	}
	if c.Images <= 0 {
		c.Images = d.Images
	}
	if c.NodeCapacity <= 0 {
		c.NodeCapacity = d.NodeCapacity
	}
	if c.RepFraction <= 0 {
		c.RepFraction = d.RepFraction
	}
	if c.BoundaryThreshold <= 0 {
		c.BoundaryThreshold = d.BoundaryThreshold
	}
	if c.DisplayCount <= 0 {
		c.DisplayCount = d.DisplayCount
	}
	if c.Float32 {
		c.Quantized = false // Float32 selects a precision; SQ8 serves the f64 path
	}
	return c
}

// Query is a semantic evaluation query whose ground truth is the union of
// its target subconcepts.
type Query = dataset.Query

// System is a built retrieval system: corpus, RFS structure, and QD engine.
//
// A System is read-only after Build and safe for concurrent use: any number
// of goroutines may run KNN* searches and drive independent Sessions against
// one System simultaneously. An individual Session is NOT goroutine-safe —
// each models one user's interaction and must be confined to one goroutine
// (or externally synchronized, as internal/server does).
type System struct {
	cfg    Config
	corpus *dataset.Corpus
	rfs    *rfs.Structure
	engine *core.Engine
	// quant is the store-ordered SQ8 quantizer when Config.Quantized built
	// one (the tree holds its own slab-ordered copy of the codes); Save
	// embeds it so loaded systems skip retraining.
	quant *store.Quantized
}

// Build generates the synthetic corpus and constructs the RFS structure and
// query decomposition engine over it.
func Build(cfg Config) (*System, error) {
	return BuildContext(context.Background(), cfg)
}

// BuildContext is Build with cancellation: corpus generation, bulk loading,
// and representative selection all poll ctx and abort early when it is done.
// The Config.Parallelism worker pools run inside this call; a returned System
// is always fully constructed.
func BuildContext(ctx context.Context, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	spec := dataset.SmallSpec(cfg.Seed, cfg.Categories, cfg.Images)
	var corpus *dataset.Corpus
	if cfg.VectorMode {
		corpus = dataset.BuildVectors(spec, 37, 0.02, cfg.Seed+1)
	} else {
		var err error
		corpus, err = dataset.BuildCtx(ctx, spec, dataset.Options{
			Seed:         cfg.Seed + 1,
			WithChannels: cfg.WithChannels,
			Parallelism:  cfg.Parallelism,
		})
		if err != nil {
			return nil, fmt.Errorf("qdcbir: corpus: %w", err)
		}
	}
	if err := corpus.Validate(); err != nil {
		return nil, fmt.Errorf("qdcbir: corpus: %w", err)
	}
	return assemble(ctx, cfg, corpus)
}

// BuildFromSource constructs a system over externally supplied vectors — an
// embedding file opened with source.File, or any other VectorSource — instead
// of the synthetic corpus generator. The batch's labels (when present) become
// the ground truth; its dimension becomes the system dimension. A float32-
// native batch (.fvecs) pairs naturally with Config.Float32, which then scans
// the imported values untouched.
func BuildFromSource(cfg Config, src source.VectorSource) (*System, error) {
	return BuildFromSourceContext(context.Background(), cfg, src)
}

// BuildFromSourceContext is BuildFromSource with cancellation, which covers
// the RFS construction phases exactly as in BuildContext.
func BuildFromSourceContext(ctx context.Context, cfg Config, src source.VectorSource) (*System, error) {
	cfg = cfg.withDefaults()
	batch, err := src.Vectors()
	if err != nil {
		return nil, fmt.Errorf("qdcbir: import %s: %w", src.Format(), err)
	}
	if err := batch.Validate(); err != nil {
		return nil, fmt.Errorf("qdcbir: import %s: %w", src.Format(), err)
	}
	var st *store.FeatureStore
	if batch.Data32 != nil {
		st, err = store.FromBacking32(batch.Dim, batch.Data32)
	} else {
		st, err = store.FromBacking(batch.Dim, batch.Data)
	}
	if err != nil {
		return nil, fmt.Errorf("qdcbir: import %s: %w", src.Format(), err)
	}
	corpus, err := dataset.ReassembleStore(batch.Infos(), st)
	if err != nil {
		return nil, fmt.Errorf("qdcbir: corpus: %w", err)
	}
	// The generator knobs don't describe an imported corpus: record what was
	// actually ingested so Config() (and persisted archives) reflect reality.
	// VectorMode is literal — there are no rendered images, no extractor, and
	// no MV colour channels.
	cfg.VectorMode = true
	cfg.Images = corpus.Len()
	cfg.Categories = len(corpus.Categories())
	return assemble(ctx, cfg, corpus)
}

func assemble(ctx context.Context, cfg Config, corpus *dataset.Corpus) (*System, error) {
	structure, err := rfs.BuildStoreCtx(ctx, corpus.Store(), rfs.BuildConfig{
		RepFraction: cfg.RepFraction,
		Tree:        rstar.Config{MaxFill: cfg.NodeCapacity},
		TargetFill:  cfg.NodeCapacity * 93 / 100,
		Hierarchy:   cfg.Hierarchy,
		Seed:        cfg.Seed + 2,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("qdcbir: rfs: %w", err)
	}
	if err := structure.Validate(); err != nil {
		return nil, fmt.Errorf("qdcbir: rfs: %w", err)
	}
	quant := attachQuantizer(&cfg, corpus, structure, nil)
	if cfg.Float32 {
		// One corpus-side narrowing, shared by every scan consumer (the tree
		// mirrors its own slab inside newEngine). For float32-native imported
		// stores this aliases the original data — no copy, no rounding.
		corpus.Store().MaterializeFloat32()
	}
	return &System{cfg: cfg, corpus: corpus, rfs: structure, engine: newEngine(cfg, structure), quant: quant}, nil
}

// attachQuantizer prepares the SQ8 quantizer of a Quantized config: qz (a
// quantizer restored from an archive) is adopted when given, otherwise one
// is trained in store order — the order Save persists. The tree receives a
// slab-ordered copy of the codes. Quantization is a pure optimization: if
// the corpus can't be quantized (e.g. non-finite features) the flag is
// cleared and the system falls back to exact scoring.
func attachQuantizer(cfg *Config, corpus *dataset.Corpus, structure *rfs.Structure, qz *store.Quantized) *store.Quantized {
	if !cfg.Quantized {
		return nil
	}
	var err error
	if qz == nil {
		qz, err = store.Quantize(corpus.Store())
	}
	if err == nil {
		err = structure.Tree().AdoptQuantized(qz)
	}
	if err != nil {
		cfg.Quantized = false
		return nil
	}
	return qz
}

// newEngine wires the QD engine for a structure under this configuration.
func newEngine(cfg Config, structure *rfs.Structure) *core.Engine {
	return core.NewEngine(structure, core.Config{
		BoundaryThreshold: cfg.BoundaryThreshold,
		DisplayCount:      cfg.DisplayCount,
		Parallelism:       cfg.Parallelism,
		Quantized:         cfg.Quantized,
		Float32:           cfg.Float32,
	})
}

// WithObserver returns a System sharing this one's corpus and RFS structure
// whose engine reports telemetry (metrics and per-query traces) to o. The
// original System is untouched and stays uninstrumented; the two may be used
// concurrently. Observer lives on the engine rather than on Config so that
// persisted archives (Save/Load gob-encode Config) never capture it.
func (s *System) WithObserver(o *obs.Observer) *System {
	ecfg := s.engine.Config()
	ecfg.Observer = o
	return &System{cfg: s.cfg, corpus: s.corpus, rfs: s.rfs, engine: core.NewEngine(s.rfs, ecfg), quant: s.quant}
}

// Len returns the number of images in the corpus.
func (s *System) Len() int { return s.corpus.Len() }

// Config returns the configuration the system was built with.
func (s *System) Config() Config { return s.cfg }

// Quantized reports whether the SQ8 row filter is active (Config asked
// for it and the corpus quantized cleanly). Results are identical either
// way; the flag only describes how global k-NN searches execute.
func (s *System) Quantized() bool { return s.quant != nil }

// SubconceptOf returns an image's ground-truth subconcept key
// ("category/subconcept"), or "" for an unknown ID.
func (s *System) SubconceptOf(id int) string { return s.corpus.SubconceptOf(id) }

// CategoryOf returns an image's ground-truth category, or "".
func (s *System) CategoryOf(id int) string { return s.corpus.CategoryOf(id) }

// Queries returns the paper's 11 Table-1 evaluation queries.
func (s *System) Queries() []Query { return dataset.PaperQueries() }

// GroundTruth returns the relevant image set of a query.
func (s *System) GroundTruth(q Query) map[int]bool { return s.corpus.RelevantSet(q) }

// GroundTruthSize returns |GroundTruth(q)|; the paper retrieves exactly this
// many images per query.
func (s *System) GroundTruthSize(q Query) int { return s.corpus.GroundTruthSize(q) }

// RepresentativeCount returns the number of distinct representative images
// in the RFS structure (~RepFraction of the corpus).
func (s *System) RepresentativeCount() int { return s.rfs.RepCount() }

// TreeHeight returns the RFS hierarchy depth (the paper's corpus yields 3).
func (s *System) TreeHeight() int { return s.rfs.Tree().Height() }

// Scored is one retrieved image with its similarity score (Euclidean
// distance to the local query centroid; smaller is more similar).
type Scored struct {
	ID    int
	Score float64
}

// KNN runs a plain global k-nearest-neighbor search from an example image —
// the traditional single-neighborhood retrieval QD improves upon. Useful as
// a baseline and for browsing.
func (s *System) KNN(exampleImage, k int) ([]Scored, error) {
	return s.KNNContext(context.Background(), exampleImage, k)
}

// KNNContext is KNN with cancellation: the search polls ctx and aborts early
// when it is done.
func (s *System) KNNContext(ctx context.Context, exampleImage, k int) ([]Scored, error) {
	if exampleImage < 0 || exampleImage >= s.corpus.Len() {
		return nil, fmt.Errorf("qdcbir: image %d outside corpus of %d", exampleImage, s.corpus.Len())
	}
	return s.searchKNN(ctx, s.corpus.Vectors[exampleImage], k)
}

// searchKNN runs one observed global k-NN search under the leaf scorer the
// system installed on its tree; SQ8 results are identical to the exact
// descent's.
func (s *System) searchKNN(ctx context.Context, q vec.Vector, k int) ([]Scored, error) {
	o := s.engine.Config().Observer
	var acc disk.Accounter
	var st *rstar.SearchStats
	var t0 time.Time
	if o != nil {
		acc = &disk.Counter{}
		st = &rstar.SearchStats{}
		t0 = time.Now()
	}
	tree := s.rfs.Tree()
	ns, err := tree.KNNSearch(ctx, tree.Root(), nil, rstar.Query{Q: q, K: k, Acc: acc, Stats: st})
	if err != nil {
		return nil, err
	}
	if o != nil {
		o.KNNDone(time.Since(t0), acc.Reads(), st.RerankFallbacks)
	}
	out := make([]Scored, len(ns))
	for i, n := range ns {
		out[i] = Scored{ID: int(n.ID), Score: n.Dist}
	}
	return out, nil
}

// KNNByImage runs query-by-example with an image from outside the corpus:
// its 37-d features are extracted, normalized against the corpus, and
// searched globally. Requires an image-mode system (vector-mode corpora have
// no feature extractor).
func (s *System) KNNByImage(im *img.Image, k int) ([]Scored, error) {
	if s.corpus.Extractor == nil {
		return nil, errors.New("qdcbir: vector-mode system cannot extract image features")
	}
	q := s.corpus.Extractor.ExtractNormalized(im)
	return s.knnVector(q, k)
}

// KNNByRegion is KNNByImage restricted to the region [x0,x1) x [y0,y1) of the
// example image — the paper's §6 contour extension: the user outlines the
// object of interest so background noise stays out of the query. The region
// is clamped to the image bounds; an empty region is an error.
func (s *System) KNNByRegion(im *img.Image, x0, y0, x1, y1, k int) ([]Scored, error) {
	if s.corpus.Extractor == nil {
		return nil, errors.New("qdcbir: vector-mode system cannot extract image features")
	}
	if x1 <= x0 || y1 <= y0 {
		return nil, fmt.Errorf("qdcbir: empty region [%d,%d)x[%d,%d)", x0, x1, y0, y1)
	}
	q := s.corpus.Extractor.Normalize(feature.ExtractRegion(im, x0, y0, x1, y1))
	return s.knnVector(q, k)
}

func (s *System) knnVector(q vec.Vector, k int) ([]Scored, error) {
	if k <= 0 {
		return nil, fmt.Errorf("qdcbir: invalid k=%d", k)
	}
	return s.searchKNN(context.Background(), q, k)
}

// NewSession starts a relevance-feedback session. The seed drives the random
// candidate displays; sessions with equal seeds on the same system replay
// identically.
func (s *System) NewSession(seed int64) *Session {
	return &Session{
		sys:   s,
		inner: s.engine.NewSession(rand.New(rand.NewSource(seed))),
	}
}

// Corpus grants read access to the underlying dataset for advanced use
// (experiment harnesses, custom baselines).
func (s *System) Corpus() *dataset.Corpus { return s.corpus }

// RFS grants read access to the underlying RFS structure.
func (s *System) RFS() *rfs.Structure { return s.rfs }

// Engine grants access to the underlying query-decomposition engine for
// advanced use (the server package and the benchmark suite drive it
// directly).
func (s *System) Engine() *core.Engine { return s.engine }
