package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/vec"
)

// fixture builds an RFS over nBlobs well-separated Gaussian blobs and returns
// the engine plus a blob-label lookup (image id / blobSize).
func fixture(t *testing.T, nBlobs, blobSize int, seed int64) (*Engine, func(rstar.ItemID) int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var pts []vec.Vector
	for b := 0; b < nBlobs; b++ {
		center := make(vec.Vector, 4)
		for j := range center {
			center[j] = float64(b*50 + j)
		}
		for i := 0; i < blobSize; i++ {
			p := center.Clone()
			for j := range p {
				p[j] += rng.NormFloat64()
			}
			pts = append(pts, p)
		}
	}
	s := rfs.Build(pts, rfs.BuildConfig{
		Tree:       rstar.Config{MaxFill: 16, MinFill: 6},
		TargetFill: 14,
		Seed:       seed,
	})
	if err := s.Validate(); err != nil {
		t.Fatalf("rfs: %v", err)
	}
	eng := NewEngine(s, Config{DisplayCount: 21})
	return eng, func(id rstar.ItemID) int { return int(id) / blobSize }
}

// markBlobs runs feedback rounds until the frontier reaches the leaves,
// each round marking every displayed candidate belonging to a wanted blob.
func markBlobs(t *testing.T, sess *Session, blobOf func(rstar.ItemID) int, wanted map[int]bool, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		cands := sess.Candidates()
		var marked []rstar.ItemID
		for _, c := range cands {
			if wanted[blobOf(c.ID)] {
				marked = append(marked, c.ID)
			}
		}
		if err := sess.Feedback(marked); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.BoundaryThreshold != 0.4 {
		t.Errorf("threshold default = %v, paper uses 0.4", c.BoundaryThreshold)
	}
	if c.DisplayCount != 21 {
		t.Errorf("display default = %d, prototype shows 21", c.DisplayCount)
	}
}

func TestCandidatesComeFromRoot(t *testing.T) {
	eng, _ := fixture(t, 4, 40, 1)
	sess := eng.NewSession(rand.New(rand.NewSource(2)))
	cands := sess.Candidates()
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if len(cands) > eng.Config().DisplayCount {
		t.Errorf("%d candidates exceed display limit %d", len(cands), eng.Config().DisplayCount)
	}
	for _, c := range cands {
		if c.Node != eng.RFS().Root() {
			t.Error("initial candidate not anchored at root")
		}
		if !eng.RFS().IsRep(c.ID) {
			t.Errorf("candidate %d is not a representative", c.ID)
		}
	}
}

func TestFeedbackRejectsUndisplayed(t *testing.T) {
	eng, _ := fixture(t, 3, 40, 3)
	sess := eng.NewSession(rand.New(rand.NewSource(1)))
	sess.Candidates()
	if err := sess.Feedback([]rstar.ItemID{99999}); err == nil {
		t.Fatal("undisplayed image accepted")
	}
}

func TestEmptyFeedbackKeepsFrontier(t *testing.T) {
	eng, _ := fixture(t, 3, 40, 4)
	sess := eng.NewSession(rand.New(rand.NewSource(1)))
	sess.Candidates()
	before := len(sess.Frontier())
	if err := sess.Feedback(nil); err != nil {
		t.Fatal(err)
	}
	if len(sess.Frontier()) != before {
		t.Error("empty feedback changed frontier")
	}
	if sess.Stats().Rounds != 1 {
		t.Errorf("rounds = %d", sess.Stats().Rounds)
	}
}

func TestQuerySplitsIntoMultipleSubqueries(t *testing.T) {
	eng, blobOf := fixture(t, 6, 50, 5)
	sess := eng.NewSession(rand.New(rand.NewSource(7)))
	wanted := map[int]bool{0: true, 3: true}
	markBlobs(t, sess, blobOf, wanted, 2)
	if len(sess.Frontier()) < 2 {
		t.Fatalf("frontier has %d nodes after marking two distant blobs; want a split", len(sess.Frontier()))
	}
	// Frontier descended below the root.
	for _, n := range sess.Frontier() {
		if n == eng.RFS().Root() {
			t.Error("frontier still at root after feedback")
		}
	}
}

func TestFinalizeRetrievesMultipleNeighborhoods(t *testing.T) {
	// The headline behaviour: QD returns images from every marked blob,
	// which a single-neighborhood k-NN cannot do.
	eng, blobOf := fixture(t, 6, 50, 6)
	sess := eng.NewSession(rand.New(rand.NewSource(8)))
	wanted := map[int]bool{1: true, 4: true}
	markBlobs(t, sess, blobOf, wanted, 3)
	res, err := sess.Finalize(40)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int{}
	totalImages := 0
	for _, g := range res.Groups {
		for _, im := range g.Images {
			got[blobOf(im.ID)]++
			totalImages++
		}
	}
	if totalImages != 40 {
		t.Errorf("returned %d images, want 40", totalImages)
	}
	if got[1] == 0 || got[4] == 0 {
		t.Fatalf("missing a marked neighborhood: blob counts %v", got)
	}
	// Precision: nearly everything from the wanted blobs.
	if rel := got[1] + got[4]; rel < 36 {
		t.Errorf("only %d of 40 from wanted blobs: %v", rel, got)
	}

	// Contrast: a global k-NN from the centroid of all relevant marks sits
	// between the blobs and misses both clusters' cores.
	var qpts []vec.Vector
	for _, id := range sess.Relevant() {
		qpts = append(qpts, eng.RFS().Point(id))
	}
	global := eng.RFS().Tree().KNN(vec.Centroid(qpts), 40, nil)
	globalHits := 0
	for _, n := range global {
		if wanted[blobOf(n.ID)] {
			globalHits++
		}
	}
	if qd := got[1] + got[4]; globalHits >= qd {
		t.Errorf("global kNN (%d hits) should underperform QD (%d hits) on scattered clusters", globalHits, qd)
	}
}

func TestProportionalAllocation(t *testing.T) {
	eng, blobOf := fixture(t, 6, 50, 9)
	sess := eng.NewSession(rand.New(rand.NewSource(3)))
	// Mark blob 0 aggressively and blob 2 sparingly: at most one candidate
	// per round.
	for r := 0; r < 3; r++ {
		cands := sess.Candidates()
		var marked []rstar.ItemID
		tookSparse := false
		for _, c := range cands {
			switch blobOf(c.ID) {
			case 0:
				marked = append(marked, c.ID)
			case 2:
				if !tookSparse {
					marked = append(marked, c.ID)
					tookSparse = true
				}
			}
		}
		if err := sess.Feedback(marked); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Finalize(30)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, g := range res.Groups {
		for _, im := range g.Images {
			counts[blobOf(im.ID)]++
		}
	}
	if counts[0] <= counts[2] {
		t.Errorf("heavily-marked blob got %d images, lightly-marked got %d; want proportional allocation", counts[0], counts[2])
	}
}

func TestFinalizeErrors(t *testing.T) {
	eng, blobOf := fixture(t, 3, 40, 10)
	sess := eng.NewSession(rand.New(rand.NewSource(4)))
	if _, err := sess.Finalize(10); err == nil {
		t.Fatal("finalize with no feedback succeeded")
	}
	// A finalized session rejects everything.
	sess2 := eng.NewSession(rand.New(rand.NewSource(5)))
	markBlobs(t, sess2, blobOf, map[int]bool{0: true}, 2)
	if _, err := sess2.Finalize(10); err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Finalize(10); err != ErrFinalized {
		t.Errorf("second finalize: %v", err)
	}
	if err := sess2.Feedback(nil); err != ErrFinalized {
		t.Errorf("feedback after finalize: %v", err)
	}
	// Invalid k.
	sess3 := eng.NewSession(rand.New(rand.NewSource(6)))
	markBlobs(t, sess3, blobOf, map[int]bool{0: true}, 1)
	if _, err := sess3.Finalize(0); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestFinalizeRetryAfterFailure: only a returned result consumes a session.
// An invalid k and a cancelled context each leave it as it was, so the retry
// answers — and reports the reads and expansions — exactly like a session
// that finalized once.
func TestFinalizeRetryAfterFailure(t *testing.T) {
	eng, blobOf := fixture(t, 4, 50, 20)
	strict := NewEngine(eng.RFS(), Config{BoundaryThreshold: 1e-9}) // every subquery expands
	play := func() *Session {
		sess := strict.NewSession(rand.New(rand.NewSource(21)))
		markBlobs(t, sess, blobOf, map[int]bool{0: true, 2: true}, 3)
		return sess
	}
	clean, retried := play(), play()
	want, err := clean.Finalize(20)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Stats().Expansions == 0 || clean.Stats().FinalReads == 0 {
		t.Fatalf("fixture finalizes without cost to compare: %+v", clean.Stats())
	}

	if _, err := retried.Finalize(0); err == nil {
		t.Fatal("k=0 accepted")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := retried.FinalizeCtx(cancelled, 20); !errors.Is(err, context.Canceled) {
		t.Fatalf("finalize under a cancelled context: %v", err)
	}
	if st := retried.Stats(); st.FinalReads != 0 || st.Expansions != 0 {
		t.Errorf("failed finalizes left cost behind: %+v", st)
	}
	got, err := retried.Finalize(20)
	if err != nil {
		t.Fatalf("retry after failed finalizes: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("retried finalize differs from a first finalize")
	}
	if retried.Stats() != clean.Stats() {
		t.Errorf("retried session stats %+v, clean session %+v", retried.Stats(), clean.Stats())
	}
	if _, err := retried.Finalize(20); err != ErrFinalized {
		t.Errorf("finalize after a returned result: %v", err)
	}
}

func TestGroupsOrderedByRankScore(t *testing.T) {
	eng, blobOf := fixture(t, 6, 50, 11)
	sess := eng.NewSession(rand.New(rand.NewSource(12)))
	markBlobs(t, sess, blobOf, map[int]bool{0: true, 2: true, 4: true}, 3)
	res, err := sess.Finalize(30)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Groups); i++ {
		if res.Groups[i].RankScore < res.Groups[i-1].RankScore {
			t.Errorf("groups not ordered by rank score at %d", i)
		}
	}
	// Within a group, images are ordered by similarity.
	for gi, g := range res.Groups {
		for i := 1; i < len(g.Images); i++ {
			if g.Images[i].Score < g.Images[i-1].Score {
				t.Errorf("group %d images not ordered at %d", gi, i)
			}
		}
		// RankScore equals the sum of member scores.
		var sum float64
		for _, im := range g.Images {
			sum += im.Score
		}
		if diff := sum - g.RankScore; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("group %d rank score %v != member sum %v", gi, g.RankScore, sum)
		}
	}
}

func TestFlatOrdering(t *testing.T) {
	eng, blobOf := fixture(t, 4, 50, 13)
	sess := eng.NewSession(rand.New(rand.NewSource(14)))
	markBlobs(t, sess, blobOf, map[int]bool{0: true, 2: true}, 3)
	res, err := sess.Finalize(20)
	if err != nil {
		t.Fatal(err)
	}
	flat := res.Flat()
	for i := 1; i < len(flat); i++ {
		if flat[i].Score < flat[i-1].Score {
			t.Fatalf("flat list not sorted at %d", i)
		}
	}
	if len(flat) != len(res.IDs()) {
		t.Errorf("Flat %d vs IDs %d", len(flat), len(res.IDs()))
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, blobOf := fixture(t, 4, 50, 15)
	sess := eng.NewSession(rand.New(rand.NewSource(16)))
	markBlobs(t, sess, blobOf, map[int]bool{1: true}, 2)
	if sess.Stats().FeedbackReads == 0 {
		t.Error("no feedback I/O recorded")
	}
	if sess.Stats().FinalReads != 0 {
		t.Error("final I/O recorded before Finalize — QD must not run k-NN during feedback")
	}
	if _, err := sess.Finalize(10); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.FinalReads == 0 {
		t.Error("no final k-NN I/O recorded")
	}
	if st.Rounds != 2 {
		t.Errorf("rounds = %d", st.Rounds)
	}
	// Localized k-NN touches far fewer pages than the tree holds (§5.2.2).
	if int(st.FinalReads) >= eng.RFS().Tree().NodeCount() {
		t.Errorf("final k-NN read %d pages of a %d-page tree — not localized",
			st.FinalReads, eng.RFS().Tree().NodeCount())
	}
}

func TestSessionDeterminism(t *testing.T) {
	eng, blobOf := fixture(t, 5, 40, 17)
	run := func() []int {
		sess := eng.NewSession(rand.New(rand.NewSource(42)))
		markBlobs(t, sess, blobOf, map[int]bool{0: true, 3: true}, 3)
		res, err := sess.Finalize(20)
		if err != nil {
			t.Fatal(err)
		}
		return res.IDs()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestMoreGroupsThanK(t *testing.T) {
	eng, blobOf := fixture(t, 6, 50, 18)
	sess := eng.NewSession(rand.New(rand.NewSource(19)))
	markBlobs(t, sess, blobOf, map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true}, 3)
	res, err := sess.Finalize(3) // fewer slots than subqueries
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range res.Groups {
		total += len(g.Images)
	}
	if total != 3 {
		t.Errorf("returned %d images for k=3", total)
	}
}

func TestQueryByExamples(t *testing.T) {
	eng, blobOf := fixture(t, 5, 50, 50)
	// Examples from two distant blobs, no session at all (the server half of
	// the §4 client/server split).
	examples := []rstar.ItemID{0, 1, 2, 150, 151}
	res, stats, err := eng.QueryByExamples(examples, 20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	total := 0
	for _, g := range res.Groups {
		for _, im := range g.Images {
			counts[blobOf(im.ID)]++
			total++
		}
	}
	if total != 20 {
		t.Errorf("returned %d of 20", total)
	}
	if counts[0] == 0 || counts[3] == 0 {
		t.Errorf("missed a neighborhood: %v", counts)
	}
	if stats.FinalReads == 0 {
		t.Error("no I/O recorded")
	}
	// Duplicated examples are deduplicated.
	res2, _, err := eng.QueryByExamples([]rstar.ItemID{0, 0, 0, 1}, 10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Groups) == 0 {
		t.Fatal("no groups")
	}
	// Error cases.
	if _, _, err := eng.QueryByExamples(nil, 5, nil, nil); err == nil {
		t.Error("empty examples accepted")
	}
	if _, _, err := eng.QueryByExamples(examples, 0, nil, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := eng.QueryByExamples([]rstar.ItemID{999999}, 5, nil, nil); err == nil {
		t.Error("unknown image accepted")
	}
	if _, _, err := eng.QueryByExamples(examples, 5, vec.Vector{1}, nil); err == nil {
		t.Error("bad weight dim accepted")
	}
	if _, _, err := eng.QueryByExamples(examples, 5, vec.Vector{1, 1, -1, 1}, nil); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestPanelAutoDescendsToLeaves(t *testing.T) {
	// ImageGrouper semantics: once marked, a relevant image's subquery keeps
	// descending one level per round even with no new marks, so after
	// height-1 rounds every subquery is anchored at a leaf.
	eng, blobOf := fixture(t, 4, 50, 40)
	sess := eng.NewSession(rand.New(rand.NewSource(41)))
	markBlobs(t, sess, blobOf, map[int]bool{0: true}, 1) // marks only in round 1
	height := eng.RFS().Tree().Height()
	for r := 0; r < height; r++ {
		if err := sess.Feedback(nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range sess.Frontier() {
		if !n.IsLeaf() {
			t.Errorf("frontier node %d still internal after %d empty rounds", n.ID(), height)
		}
	}
}

func TestRetract(t *testing.T) {
	eng, blobOf := fixture(t, 4, 50, 42)
	sess := eng.NewSession(rand.New(rand.NewSource(43)))
	markBlobs(t, sess, blobOf, map[int]bool{0: true, 2: true}, 2)
	rel := append([]rstar.ItemID(nil), sess.Relevant()...)
	if len(rel) < 2 {
		t.Skip("not enough marks")
	}
	// Retract every mark from blob 2: its branch disappears.
	var fromBlob2 []rstar.ItemID
	for _, id := range rel {
		if blobOf(id) == 2 {
			fromBlob2 = append(fromBlob2, id)
		}
	}
	if len(fromBlob2) == 0 {
		t.Skip("no blob-2 marks")
	}
	sess.Retract(fromBlob2)
	for _, id := range sess.Relevant() {
		if blobOf(id) == 2 {
			t.Fatalf("retracted image %d still relevant", id)
		}
	}
	res, err := sess.Finalize(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Groups {
		for _, im := range g.Images {
			if blobOf(im.ID) == 2 {
				t.Errorf("result contains image %d from retracted blob", im.ID)
			}
		}
	}
	// Retracting everything resets to browsing the root.
	sess2 := eng.NewSession(rand.New(rand.NewSource(44)))
	markBlobs(t, sess2, blobOf, map[int]bool{1: true}, 1)
	sess2.Retract(sess2.Relevant())
	if len(sess2.Frontier()) != 1 || sess2.Frontier()[0] != eng.RFS().Root() {
		t.Error("full retraction did not reset to root")
	}
	// Retracting unknown ids is a no-op.
	before := len(sess2.Frontier())
	sess2.Retract([]rstar.ItemID{99999})
	if len(sess2.Frontier()) != before {
		t.Error("bogus retraction changed state")
	}
}

func TestFeatureWeights(t *testing.T) {
	eng, blobOf := fixture(t, 4, 50, 45)
	sess := eng.NewSession(rand.New(rand.NewSource(46)))
	// Validation.
	if err := sess.SetFeatureWeights(vec.Vector{1, 2}); err == nil {
		t.Error("dim mismatch accepted")
	}
	if err := sess.SetFeatureWeights(vec.Vector{1, 1, -1, 1}); err == nil {
		t.Error("negative weight accepted")
	}
	w := vec.Vector{1, 1, 1, 1}
	if err := sess.SetFeatureWeights(w); err != nil {
		t.Fatal(err)
	}
	// Unit weights reproduce the unweighted result.
	markBlobs(t, sess, blobOf, map[int]bool{0: true}, 2)
	res, err := sess.Finalize(10)
	if err != nil {
		t.Fatal(err)
	}
	sess2 := eng.NewSession(rand.New(rand.NewSource(46)))
	markBlobs(t, sess2, blobOf, map[int]bool{0: true}, 2)
	res2, err := sess2.Finalize(10)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.IDs(), res2.IDs()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("unit weights changed result at %d", i)
		}
	}
	// Nil restores unweighted mode without error.
	sess3 := eng.NewSession(rand.New(rand.NewSource(47)))
	if err := sess3.SetFeatureWeights(nil); err != nil {
		t.Fatal(err)
	}
}

func TestBrowsingCoversWholePool(t *testing.T) {
	// Paging without repetition: browsing ceil(pool/display)+1 displays must
	// show every root representative — the property that makes rare
	// subconcepts findable (§4's "Random" browsing).
	eng, _ := fixture(t, 6, 50, 30)
	sess := eng.NewSession(rand.New(rand.NewSource(31)))
	pool := eng.RFS().Reps(eng.RFS().Root(), nil)
	displays := (len(pool)+20)/21 + 1
	seen := map[rstar.ItemID]bool{}
	for d := 0; d < displays; d++ {
		for _, c := range sess.Candidates() {
			seen[c.ID] = true
		}
	}
	for _, id := range pool {
		if !seen[id] {
			t.Fatalf("representative %d never displayed in %d pages of %d reps", id, displays, len(pool))
		}
	}
}

func TestBoundaryExpansionTriggers(t *testing.T) {
	// With threshold 0 every off-centre query expands: expansions must be
	// recorded and results still valid.
	eng, blobOf := fixture(t, 4, 50, 20)
	strict := NewEngine(eng.RFS(), Config{BoundaryThreshold: 1e-9})
	sess := strict.NewSession(rand.New(rand.NewSource(21)))
	markBlobs(t, sess, blobOf, map[int]bool{0: true}, 3)
	res, err := sess.Finalize(10)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Stats().Expansions == 0 {
		t.Error("no expansions under near-zero threshold")
	}
	for _, g := range res.Groups {
		if g.SearchNode == g.Node {
			t.Error("search node not expanded despite near-zero threshold")
		}
	}
	// A permissive threshold never expands.
	loose := NewEngine(eng.RFS(), Config{BoundaryThreshold: 100})
	sess2 := loose.NewSession(rand.New(rand.NewSource(22)))
	markBlobs(t, sess2, blobOf, map[int]bool{0: true}, 3)
	if _, err := sess2.Finalize(10); err != nil {
		t.Fatal(err)
	}
	if sess2.Stats().Expansions != 0 {
		t.Error("expansions under permissive threshold")
	}
}
