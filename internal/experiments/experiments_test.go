package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// The quick system is expensive enough (corpus render + 4-channel extraction
// + RFS build) to share across tests.
var (
	quickOnce sync.Once
	quickSys  *System
)

func quick(t *testing.T) *System {
	t.Helper()
	quickOnce.Do(func() { quickSys = BuildSystem(QuickConfig()) })
	if quickSys == nil {
		t.Fatal("quick system failed to build")
	}
	return quickSys
}

func TestQuickConfigDefaults(t *testing.T) {
	c := QuickConfig()
	if c.Rounds != 3 || c.Threshold != 0.4 || c.RepFraction != 0.2 {
		t.Errorf("quick config defaults wrong: %+v", c)
	}
	p := PaperConfig()
	if p.TotalImages != 15000 || p.Categories != 150 || p.Users != 20 {
		t.Errorf("paper config wrong: %+v", p)
	}
}

func TestBuildSystemWiring(t *testing.T) {
	sys := quick(t)
	if sys.Corpus.Len() == 0 {
		t.Fatal("empty corpus")
	}
	if sys.RFS.Len() != sys.Corpus.Len() {
		t.Errorf("RFS %d vs corpus %d", sys.RFS.Len(), sys.Corpus.Len())
	}
	if err := sys.RFS.Validate(); err != nil {
		t.Fatalf("RFS: %v", err)
	}
	if sys.Corpus.ChannelVectors == nil {
		t.Error("channel vectors missing; MV baseline needs them")
	}
}

// The headline reproduction at quick scale: QD beats MV on both precision and
// GTIR, and QD's GTIR is near-perfect (Table 1's shape).
func TestQualityShapeMatchesTable1(t *testing.T) {
	sys := quick(t)
	rep := RunQuality(sys)
	if len(rep.PerQry) != 11 {
		t.Fatalf("%d query rows, want 11", len(rep.PerQry))
	}
	if rep.AvgQDP <= rep.AvgMVP {
		t.Errorf("QD precision %.2f not above MV %.2f", rep.AvgQDP, rep.AvgMVP)
	}
	if rep.AvgQDG <= rep.AvgMVG {
		t.Errorf("QD GTIR %.2f not above MV %.2f", rep.AvgQDG, rep.AvgMVG)
	}
	if rep.AvgQDG < 0.9 {
		t.Errorf("QD average GTIR %.2f, paper reports 1.0 — multi-neighborhood coverage failing", rep.AvgQDG)
	}
	if rep.AvgQDP < 0.5 {
		t.Errorf("QD average precision %.2f too low (paper: 0.70)", rep.AvgQDP)
	}
	// Per-query: QD GTIR >= MV GTIR everywhere (Table 1 has QD GTIR = 1 on
	// every row).
	for _, row := range rep.PerQry {
		if row.QDGTIR+1e-9 < row.MVGTIR {
			t.Errorf("query %q: QD GTIR %.2f below MV %.2f", row.Query, row.QDGTIR, row.MVGTIR)
		}
	}
}

// Table 2's shape: QD GTIR is non-decreasing across rounds and reaches its
// final-round value; MV plateaus after round 2.
func TestRoundShapeMatchesTable2(t *testing.T) {
	sys := quick(t)
	rep := RunQuality(sys)
	if len(rep.Rounds) != 3 {
		t.Fatalf("%d rounds", len(rep.Rounds))
	}
	for i := 1; i < len(rep.Rounds); i++ {
		if rep.Rounds[i].QDGTIR+0.05 < rep.Rounds[i-1].QDGTIR {
			t.Errorf("QD GTIR fell between rounds %d and %d: %.2f -> %.2f",
				i, i+1, rep.Rounds[i-1].QDGTIR, rep.Rounds[i].QDGTIR)
		}
	}
	if !rep.Rounds[2].QDPrecisionValid || rep.Rounds[0].QDPrecisionValid {
		t.Error("QD precision validity flags wrong: only the final round runs k-NN")
	}
	// MV's plateau: round-3 GTIR gains over round 2 are marginal.
	if gain := rep.Rounds[2].MVGTIR - rep.Rounds[1].MVGTIR; gain > 0.15 {
		t.Errorf("MV GTIR still improving strongly in round 3 (+%.2f); paper shows a plateau", gain)
	}
	var buf bytes.Buffer
	rep.WriteTable1(&buf)
	rep.WriteTable2(&buf)
	out := buf.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "Table 2") {
		t.Error("table renderers missing headers")
	}
	if !strings.Contains(out, "Average") {
		t.Error("Table 1 missing average row")
	}
}

func TestFig1ClusterScattering(t *testing.T) {
	sys := quick(t)
	rep := RunFig1(sys, "car")
	if len(rep.Subconcepts) != 3 {
		t.Fatalf("car category has %d subconcepts in projection, want 3", len(rep.Subconcepts))
	}
	if rep.Separation <= 1 {
		t.Errorf("separation %.2f <= 1: projected clusters not distinct (Figure 1 shape lost)", rep.Separation)
	}
	if rep.KMeansPurity < 0.8 {
		t.Errorf("projected k-means purity %.2f < 0.8", rep.KMeansPurity)
	}
	if rep.Explained <= 0 || rep.Explained > 1 {
		t.Errorf("explained variance %.2f out of range", rep.Explained)
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Error("renderer missing header")
	}
	// Unknown category degrades gracefully.
	empty := RunFig1(sys, "no-such-category")
	if len(empty.Subconcepts) != 0 {
		t.Error("unknown category produced clusters")
	}
	buf.Reset()
	empty.WriteText(&buf)
	if !strings.Contains(buf.String(), "not present") {
		t.Error("unknown-category renderer wrong")
	}
}

func TestQualitativeFigures(t *testing.T) {
	sys := quick(t)
	rep := RunQualitative(sys)
	if len(rep.Cases) != 3 {
		t.Fatalf("%d cases, want 3 (Figs 4-9)", len(rep.Cases))
	}
	for _, c := range rep.Cases {
		if len(c.QD.Labels) == 0 {
			t.Errorf("%s: QD returned nothing", c.Query.Name)
			continue
		}
		if len(c.QD.Labels) > c.K {
			t.Errorf("%s: QD returned %d > k=%d", c.Query.Name, len(c.QD.Labels), c.K)
		}
		// The figures' point: QD covers at least as many target subconcepts.
		if len(c.QD.Covered) < len(c.MV.Covered) {
			t.Errorf("%s: QD covers %d subconcepts, MV %d", c.Query.Name, len(c.QD.Covered), len(c.MV.Covered))
		}
	}
	// The broadest query ("Computer", 4 subconcepts): QD should cover most.
	last := rep.Cases[2]
	if len(last.QD.Covered) < 3 {
		t.Errorf("Computer: QD covered only %d of %d subconcepts", len(last.QD.Covered), len(last.Query.Targets))
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "Figs 8/9") {
		t.Error("renderer missing figure labels")
	}
}

// TestPaperScaleFinalReads pins §5.2.2 at the paper's scale: at 15,000 and
// 50,000 images the final round's localized subqueries read fewer tree pages
// per query than one round of traditional global k-NN.
func TestPaperScaleFinalReads(t *testing.T) {
	rep := RunEfficiency(PaperConfig(), []int{15000, 50000}, 100)
	for _, p := range rep.Points {
		if p.FinalReads <= 0 || p.FinalReads >= p.GlobalKNNRoundReads {
			t.Errorf("size %d: QD final kNN reads %.1f, global kNN %.1f per round; want final below global",
				p.Size, p.FinalReads, p.GlobalKNNRoundReads)
		}
	}
}

func TestEfficiencySweep(t *testing.T) {
	cfg := QuickConfig()
	rep := RunEfficiency(cfg, []int{500, 1000, 2000}, 10)
	if len(rep.Points) != 3 {
		t.Fatalf("%d size points", len(rep.Points))
	}
	for i, p := range rep.Points {
		if p.OverallTime <= 0 {
			t.Errorf("size %d: zero overall time", p.Size)
		}
		if p.IterationTime <= 0 {
			t.Errorf("size %d: zero iteration time", p.Size)
		}
		if p.IterationTime >= p.OverallTime {
			t.Errorf("size %d: iteration %v not below overall %v", p.Size, p.IterationTime, p.OverallTime)
		}
		if p.FeedbackReads <= 0 || p.FinalReads <= 0 {
			t.Errorf("size %d: missing I/O accounting (%v, %v)", p.Size, p.FeedbackReads, p.FinalReads)
		}
		// §5.2.2: QD feedback touches a tiny fraction of the tree's pages
		// while the traditional global k-NN touches far more per round.
		if p.GlobalKNNRoundReads <= p.FinalReads/10 {
			t.Errorf("size %d: global kNN reads %.1f suspiciously below QD final %.1f",
				p.Size, p.GlobalKNNRoundReads, p.FinalReads)
		}
		// The localized final round touches fewer pages than one round of
		// global k-NN once the corpus is large enough for the subqueries'
		// areas to be a small part of the tree.
		if i == len(rep.Points)-1 && p.GlobalKNNRoundReads <= p.FinalReads {
			t.Errorf("size %d: global kNN reads %.1f per round, not above QD final %.1f",
				p.Size, p.GlobalKNNRoundReads, p.FinalReads)
		}
		if i > 0 && p.TreeNodes <= rep.Points[i-1].TreeNodes {
			t.Errorf("tree did not grow with corpus: %d -> %d", rep.Points[i-1].TreeNodes, p.TreeNodes)
		}
	}
	var buf bytes.Buffer
	rep.WriteFig10(&buf)
	rep.WriteFig11(&buf)
	rep.WriteIO(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 10", "Figure 11", "I/O accounting"} {
		if !strings.Contains(out, want) {
			t.Errorf("renderer missing %q", want)
		}
	}
}

func TestAblations(t *testing.T) {
	cfg := QuickConfig()
	cfg.Users = 2 // ablations sweep many settings; keep the quick run fast
	rep := RunAblations(cfg)
	if len(rep.Thresholds) != 5 || len(rep.Fractions) != 4 || len(rep.Capacities) != 3 {
		t.Fatalf("sweep sizes: %d/%d/%d", len(rep.Thresholds), len(rep.Fractions), len(rep.Capacities))
	}
	// Lower thresholds expand more.
	if rep.Thresholds[0].Expansions < rep.Thresholds[len(rep.Thresholds)-1].Expansions {
		t.Errorf("threshold 0.1 expands less (%.2f) than 0.9 (%.2f)",
			rep.Thresholds[0].Expansions, rep.Thresholds[len(rep.Thresholds)-1].Expansions)
	}
	// More representatives cost more build time and never hurt rep count.
	for i := 1; i < len(rep.Fractions); i++ {
		if rep.Fractions[i].RepCount < rep.Fractions[i-1].RepCount {
			t.Errorf("rep count fell with fraction: %d -> %d",
				rep.Fractions[i-1].RepCount, rep.Fractions[i].RepCount)
		}
	}
	// Bigger nodes give shorter trees.
	for i := 1; i < len(rep.Capacities); i++ {
		if rep.Capacities[i].Height > rep.Capacities[i-1].Height {
			t.Errorf("height grew with capacity: %d -> %d",
				rep.Capacities[i-1].Height, rep.Capacities[i].Height)
		}
	}
	// All build modes work; bulk is not slower than incremental.
	if len(rep.BuildModes) != 3 {
		t.Fatalf("build modes = %d", len(rep.BuildModes))
	}
	if rep.BuildModes[0].BuildTime > rep.BuildModes[1].BuildTime {
		t.Errorf("bulk load (%v) slower than incremental (%v)",
			rep.BuildModes[0].BuildTime, rep.BuildModes[1].BuildTime)
	}
	for _, bm := range rep.BuildModes {
		if bm.GTIR == 0 {
			t.Errorf("%s: zero GTIR", bm.Mode)
		}
	}
	// A bigger buffer pool never lowers the hit rate.
	for i := 1; i < len(rep.Caches); i++ {
		if rep.Caches[i].HitRate+1e-9 < rep.Caches[i-1].HitRate {
			t.Errorf("hit rate fell with capacity: %v -> %v",
				rep.Caches[i-1].HitRate, rep.Caches[i].HitRate)
		}
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "Ablation 3") {
		t.Error("renderer missing sections")
	}
}

func TestExtendedComparison(t *testing.T) {
	sys := quick(t)
	// Two users keep the 6-technique x 11-query sweep fast.
	small := *sys
	small.Cfg.Users = 2
	rep := RunExtended(&small)
	if len(rep.Techniques) != 7 {
		t.Fatalf("%d techniques", len(rep.Techniques))
	}
	byName := map[string]TechniqueQuality{}
	for _, tq := range rep.Techniques {
		byName[tq.Name] = tq
	}
	qd := byName["QD"]
	for name, tq := range byName {
		if name == "QD" {
			continue
		}
		if qd.GTIR <= tq.GTIR {
			t.Errorf("QD GTIR %.2f not above %s %.2f", qd.GTIR, name, tq.GTIR)
		}
	}
	if len(rep.PerQuery) != 11 {
		t.Errorf("per-query rows for %d queries", len(rep.PerQuery))
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "Extended comparison") {
		t.Error("renderer missing header")
	}
}

func TestClientServerReport(t *testing.T) {
	cfg := QuickConfig()
	rep, err := RunClientServer(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PayloadBytes <= 0 || rep.DatabaseBytes <= 0 {
		t.Fatal("sizes not measured")
	}
	if rep.PayloadBytes >= rep.DatabaseBytes {
		t.Errorf("payload %d not smaller than database %d", rep.PayloadBytes, rep.DatabaseBytes)
	}
	if rep.Sessions == 0 {
		t.Fatal("no sessions completed")
	}
	// Thin clients make many requests per session; smart clients exactly one.
	if rep.SmartRequests != 1 {
		t.Errorf("smart client requests = %v, want 1", rep.SmartRequests)
	}
	if rep.ThinRequests < 10 {
		t.Errorf("thin client requests = %v, expected dozens", rep.ThinRequests)
	}
	if rep.MeanServerReads <= 0 {
		t.Error("no server reads measured")
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "Client/server deployment") {
		t.Error("renderer missing header")
	}
}

func TestVideoExperiment(t *testing.T) {
	cfg := QuickConfig()
	rep, err := RunVideo(cfg, 8, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrueCuts != 8 {
		t.Errorf("true cuts = %d", rep.TrueCuts)
	}
	if len(rep.Sigmas) != 5 {
		t.Fatalf("%d sigma points", len(rep.Sigmas))
	}
	// Low sigma over-segments (more shots); high sigma under-segments.
	if rep.Sigmas[0].Shots < rep.Sigmas[len(rep.Sigmas)-1].Shots {
		t.Errorf("shot count did not fall with sigma: %d -> %d",
			rep.Sigmas[0].Shots, rep.Sigmas[len(rep.Sigmas)-1].Shots)
	}
	// At the default sigma (3), segmentation is precise; recall depends on
	// how visually distinct the sampled scene pairs happen to be.
	def := rep.Sigmas[2]
	if def.Precision < 0.8 {
		t.Errorf("sigma=3 precision %.2f below 0.8", def.Precision)
	}
	if def.Recall < 0.6 {
		t.Errorf("sigma=3 recall %.2f below 0.6", def.Recall)
	}
	// Somewhere in the sweep, most true cuts are recoverable.
	bestRecall := 0.0
	for _, p := range rep.Sigmas {
		if p.Recall > bestRecall {
			bestRecall = p.Recall
		}
	}
	if bestRecall < 0.75 {
		t.Errorf("best recall across sweep %.2f below 0.75", bestRecall)
	}
	if rep.LibShots == 0 {
		t.Fatal("no library shots")
	}
	if rep.Retrieval < 0.6 {
		t.Errorf("same-scene retrieval accuracy %.2f", rep.Retrieval)
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "Video extension") {
		t.Error("renderer missing header")
	}
}

func TestQueriesReexport(t *testing.T) {
	if len(Queries()) != 11 {
		t.Error("Queries() should list the 11 Table-1 queries")
	}
}
