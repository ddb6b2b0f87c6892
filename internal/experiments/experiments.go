// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus the ablations DESIGN.md calls out. Each experiment is
// a pure function from a Config to a typed report with a text renderer;
// cmd/qdbench and the repository-level benchmarks are thin wrappers around
// these runners.
//
// Experiment index (see DESIGN.md §4 for the full mapping):
//
//	RunQuality      → Table 1 and Table 2 (precision & GTIR, MV vs QD)
//	RunFig1         → Figure 1 (PCA projection of a scattered category)
//	RunQualitative  → Figures 4–9 (top-k listings for the computer queries)
//	RunEfficiency   → Figures 10 and 11 (+ §5.2.2 I/O accounting)
//	RunAblations    → threshold / representative-fraction / node-capacity /
//	                  feedback-cost ablations
package experiments

import (
	"fmt"
	"math/rand"

	"qdcbir/internal/core"
	"qdcbir/internal/dataset"
	"qdcbir/internal/obs"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/user"
)

// Config scales an experiment run. Zero values are filled by the per-runner
// defaults; the Quick* constructors produce small configurations suitable for
// unit tests and smoke runs, the Paper* constructors reproduce §5 scale.
type Config struct {
	Seed int64

	// Corpus scale (image mode).
	Categories  int
	TotalImages int

	// Simulated-user parameters.
	Users          int     // sessions per query (paper: 20 students)
	Rounds         int     // feedback rounds (paper: 3)
	MarksPerRound  int     // labeling budget per round
	BrowsePerRound int     // random displays a user browses per round (§4 "Random")
	NoiseRate      float64 // user judgment error rate

	// Engine parameters.
	Threshold   float64 // boundary expansion threshold (paper: 0.4)
	RepFraction float64 // representative fraction (paper: 0.05)
	MaxFill     int     // node capacity (paper: 100)
	TargetFill  int     // STR fill (paper band 70–100 → default 93)

	// Parallelism bounds the build and finalize worker pools (<= 0 uses one
	// worker per CPU); every reported number is identical at every setting.
	Parallelism int
	// Observer, when non-nil, collects metrics and traces from every engine
	// the run constructs (cmd/qdbench -stats exposes the snapshot).
	Observer *obs.Observer

	// Quantized puts every global and localized k-NN behind the SQ8 row
	// filter (results are bit-identical to the exact path, so all reported
	// accuracy numbers are unchanged; wall-clock and the filter's counters
	// move).
	Quantized bool
}

func (c Config) withDefaults() Config {
	if c.Categories <= 0 {
		c.Categories = 150
	}
	if c.TotalImages <= 0 {
		c.TotalImages = 15000
	}
	if c.Users <= 0 {
		c.Users = 20
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	if c.MarksPerRound <= 0 {
		c.MarksPerRound = 8
	}
	if c.BrowsePerRound <= 0 {
		c.BrowsePerRound = 15
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.4
	}
	if c.RepFraction <= 0 {
		c.RepFraction = 0.05
	}
	if c.MaxFill <= 0 {
		c.MaxFill = 100
	}
	if c.TargetFill <= 0 {
		c.TargetFill = 93
	}
	return c
}

// PaperConfig reproduces the paper's experimental scale: 15,000 images,
// ~150 categories, 20 users, 3 feedback rounds, threshold 0.4, 5%
// representatives, node capacity 100. The browse budget is raised to match
// the pool: the root holds ~750 representatives (5% of 15k), so paging
// through them at 21 per display takes ~36 displays — the paper's users
// "repeated [random displays] with additional rounds" until satisfied.
func PaperConfig() Config {
	c := Config{Seed: 1, BrowsePerRound: 40}
	return c.withDefaults()
}

// QuickConfig is a scaled-down configuration (~1,200 images, 25 categories,
// 4 users) that exercises every code path in seconds; unit tests and smoke
// runs use it. RepFraction is raised so reps-per-leaf (~4) matches the
// paper's geometry (100-image leaves at 5% give ~5 reps per leaf); keeping
// 5% here would leave one rep per 20-image leaf and make small subconcepts
// unfindable.
func QuickConfig() Config {
	c := Config{
		Seed:        1,
		Categories:  25,
		TotalImages: 1200,
		Users:       4,
		MaxFill:     24,
		TargetFill:  20,
		RepFraction: 0.2,
	}
	return c.withDefaults()
}

// System bundles a built corpus with its RFS structure and QD engine —
// everything the runners need.
type System struct {
	Cfg    Config
	Corpus *dataset.Corpus
	RFS    *rfs.Structure
	Engine *core.Engine
}

// BuildSystem constructs the corpus (image mode; channel vectors included so
// the MV baseline can run) and the RFS structure on top.
func BuildSystem(cfg Config) *System {
	cfg = cfg.withDefaults()
	spec := dataset.SmallSpec(cfg.Seed, cfg.Categories, cfg.TotalImages)
	corpus := dataset.Build(spec, dataset.Options{
		Seed:         cfg.Seed + 1,
		WithChannels: true,
		Parallelism:  cfg.Parallelism,
	})
	return assemble(cfg, corpus)
}

// BuildVectorSystem constructs a vector-mode system of the given size for
// scalability sweeps.
func BuildVectorSystem(cfg Config, size int) *System {
	cfg = cfg.withDefaults()
	categories := cfg.Categories
	spec := dataset.SmallSpec(cfg.Seed, categories, size)
	corpus := dataset.BuildVectors(spec, 37, 0.02, cfg.Seed+1)
	return assemble(cfg, corpus)
}

func assemble(cfg Config, corpus *dataset.Corpus) *System {
	structure := rfs.Build(corpus.Vectors, rfs.BuildConfig{
		RepFraction: cfg.RepFraction,
		Tree:        rstar.Config{MaxFill: cfg.MaxFill},
		TargetFill:  cfg.TargetFill,
		Seed:        cfg.Seed + 2,
		Parallelism: cfg.Parallelism,
	})
	engine := core.NewEngine(structure, core.Config{
		BoundaryThreshold: cfg.Threshold,
		Parallelism:       cfg.Parallelism,
		Observer:          cfg.Observer,
		Quantized:         cfg.Quantized,
	})
	return &System{Cfg: cfg, Corpus: corpus, RFS: structure, Engine: engine}
}

// qdSessionResult captures one simulated QD session.
type qdSessionResult struct {
	roundGTIR []float64 // GTIR of the marked relevant set after each round
	result    *core.Result
	stats     core.Stats
	err       error
}

// runQDSession drives one simulated user through the full QD protocol:
// each round the user browses up to BrowsePerRound random displays, marks
// relevant representatives within the round budget, and the session descends;
// after the last round the query finalizes with k = |ground truth|.
func runQDSession(sys *System, q dataset.Query, rng *rand.Rand) qdSessionResult {
	cfg := sys.Cfg
	sim := user.New(q.Targets, sys.Corpus.SubconceptOf, rng)
	sim.NoiseRate = cfg.NoiseRate
	sess := sys.Engine.NewSession(rng)
	var out qdSessionResult

	for round := 0; round < cfg.Rounds; round++ {
		// Browse the round's display budget first (the GUI's "Random"
		// re-shuffles), then mark with the per-round labeling budget spread
		// across the distinct relevant types noticed (§3.2's walkthrough).
		var shown []int
		seenShown := make(map[int]bool)
		for d := 0; d < cfg.BrowsePerRound; d++ {
			for _, c := range sess.Candidates() {
				if !seenShown[int(c.ID)] {
					seenShown[int(c.ID)] = true
					shown = append(shown, int(c.ID))
				}
			}
		}
		sim.MaxPerRound = cfg.MarksPerRound
		var marks []rstar.ItemID
		for _, id := range sim.SelectDiverse(shown) {
			marks = append(marks, rstar.ItemID(id))
		}
		if err := sess.Feedback(marks); err != nil {
			out.err = err
			return out
		}
		relIDs := make([]int, len(sess.Relevant()))
		for i, id := range sess.Relevant() {
			relIDs[i] = int(id)
		}
		out.roundGTIR = append(out.roundGTIR, gtir(sys.Corpus, q, relIDs))
	}

	k := sys.Corpus.GroundTruthSize(q)
	res, err := sess.Finalize(k)
	if err != nil {
		out.err = fmt.Errorf("finalize %q: %w", q.Name, err)
		return out
	}
	out.result = res
	out.stats = sess.Stats()
	return out
}

// gtir computes the ground-truth inclusion ratio of a retrieval for a query.
func gtir(c *dataset.Corpus, q dataset.Query, ids []int) float64 {
	return metricsGTIR(ids, q.Targets, c.SubconceptOf)
}
