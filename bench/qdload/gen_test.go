package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func fileHash(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// smallRouted is knn_routed with a corpus small enough to hash and boot in a
// test; everything else is the real workload.
func smallRouted() *knnRouted {
	w := newKNNRouted()
	w.rows, w.dim, w.clusters = 1500, 48, 20
	return w
}

// streamHash is the digest of the first n ops of client 0's request stream.
func streamHash(t *testing.T, seed int64, n int) string {
	t.Helper()
	w := smallRouted()
	w.corpus = genClusterCorpus(seed, w.rows, w.dim, w.clusters, w.sigma)
	rng := subRand(seed, "knn_routed-client", 0)
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := 0; i < n; i++ {
		if err := enc.Encode(w.nextOp(rng)); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The generated embedding file and request stream are pure functions of the
// seed. The pinned digests cover only harness-owned generation (math/rand
// and the code in gen.go), never anything the repository under test computes.
func TestSeedDeterminesInputs(t *testing.T) {
	dir := t.TempDir()
	write := func(seed int64, name string) string {
		c := genClusterCorpus(seed, 200, 16, 5, 0.3)
		p := filepath.Join(dir, name)
		if err := c.writeFvecs(p); err != nil {
			t.Fatal(err)
		}
		return fileHash(t, p)
	}
	a, again, b := write(1, "a.fvecs"), write(1, "a2.fvecs"), write(2, "b.fvecs")
	if a != again {
		t.Errorf("same seed wrote different .fvecs files: %s vs %s", a, again)
	}
	if a == b {
		t.Error("seeds 1 and 2 wrote the same .fvecs file: the corpus ignores the seed")
	}
	const wantFvecs = "56fdcd0355eddf1120038d9faf6f42b714b69de052657a382405d886d13377e9"
	if a != wantFvecs {
		t.Errorf(".fvecs digest for seed 1 = %s, pinned %s: generation changed, so results are no longer comparable with earlier runs", a, wantFvecs)
	}

	s1, s1again, s2 := streamHash(t, 1, 300), streamHash(t, 1, 300), streamHash(t, 2, 300)
	if s1 != s1again {
		t.Error("same seed produced different request streams")
	}
	if s1 == s2 {
		t.Error("seeds 1 and 2 produced the same request stream")
	}
	const wantStream = "4112092f09fc23428e269c85ddb90140f03b73d971ea1fa80a4a9a628fb987ad"
	if s1 != wantStream {
		t.Errorf("request stream digest for seed 1 = %s, pinned %s", s1, wantStream)
	}
}

func TestFvecsLayout(t *testing.T) {
	c := genClusterCorpus(3, 7, 5, 2, 0.3)
	p := filepath.Join(t.TempDir(), "c.fvecs")
	if err := c.writeFvecs(p); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(7 * (4 + 4*5)); st.Size() != want {
		t.Errorf("file is %d bytes, want %d (int32 dim + dim float32 per row)", st.Size(), want)
	}
}

func TestOracleMarksOnlyDisplayedImages(t *testing.T) {
	o := newOracle([]string{"bird/owl", "bird/eagle"}, 0)
	round1 := []shown{{1, "bird/owl"}, {2, "car/sedan"}, {3, "bird/eagle"}, {1, "bird/owl"}}
	marks := o.choose(round1)
	if len(marks) != 2 || marks[0] != 1 || marks[1] != 3 {
		t.Fatalf("marks = %v, want [1 3]: targets displayed, each once", marks)
	}
	// An image marked earlier is not marked again; an undisplayed target is
	// never invented.
	marks = o.choose([]shown{{1, "bird/owl"}, {9, "bird/owl"}})
	if len(marks) != 1 || marks[0] != 9 {
		t.Fatalf("second round marks = %v, want [9]", marks)
	}
	// The per-round budget holds.
	var many []shown
	for i := 100; i < 130; i++ {
		many = append(many, shown{i, "bird/owl"})
	}
	if got := len(o.choose(many)); got != o.maxMarks {
		t.Fatalf("marked %d in one round, budget is %d", got, o.maxMarks)
	}
}

func TestOracleAdoptsIntentFromFirstDisplay(t *testing.T) {
	o := newOracle(nil, 2)
	marks := o.choose([]shown{{5, "c001"}, {6, "c002"}, {7, "c003"}, {8, "c001"}})
	if len(marks) != 3 {
		t.Fatalf("marks = %v, want the three images of the first two labels", marks)
	}
	if len(o.targets) != 2 || !o.targets["c001"] || !o.targets["c002"] {
		t.Fatalf("targets = %v, want c001 and c002", o.targets)
	}
	if got := o.choose([]shown{{10, "c003"}}); len(got) != 0 {
		t.Fatalf("marked %v: the intent must not drift after the first display", got)
	}
}

func TestBruteKNNAgreesWithItself(t *testing.T) {
	c := genClusterCorpus(4, 300, 12, 6, 0.3)
	rng := subRand(4, "t", 0)
	q := c.noisyRow(rng, 17, 0.05)
	want := c.bruteKNN(q, 10)
	if want[0].ID != 17 {
		t.Fatalf("nearest neighbour of a noisy row 17 is %d", want[0].ID)
	}
	exact := func(id int) float64 { return c.dist(q, id) }
	if !knnAgrees(want, want, exact) {
		t.Fatal("a reference answer does not agree with itself")
	}
	bad := append([]neighbor(nil), want...)
	bad[3] = neighbor{ID: 299, Dist: c.dist(q, 299)}
	if knnAgrees(bad, want, exact) {
		t.Fatal("an answer holding a far image was accepted")
	}
}

func TestSelfTimesTelescope(t *testing.T) {
	tr := newTracer()
	root := tr.add("server", "http", 0, -1, tr.t0, 100)
	mid := tr.add("core", "finalize", 0, root, tr.t0, 60)
	tr.add("rstar", "knn", 0, mid, tr.t0, 25)
	tr.add("rstar", "knn", 0, mid, tr.t0, 15)
	tr.add("seg", "probe", 1, offPath, tr.t0, 1000)
	by, total := tr.selfTimes()
	if total != 100 || by["server"] != 40 || by["core"] != 20 || by["rstar"] != 40 || by["seg"] != 0 {
		t.Fatalf("self times %v of %v", by, total)
	}
	// Children that took longer than their parent are not scaled to fit: the
	// overshoot stays in the sum, where trace.self_sum_frac shows it.
	tr = newTracer()
	root = tr.add("core", "finalize", 0, -1, tr.t0, 50)
	tr.add("rstar", "knn", 0, root, tr.t0, 40)
	tr.add("rstar", "knn", 0, root, tr.t0, 60)
	by, total = tr.selfTimes()
	if total != 50 || by["core"] != 0 || by["rstar"] != 100 {
		t.Fatalf("overshooting self times %v of %v", by, total)
	}
	m := metrics{}
	finishLayers(tr, m, nil)
	if m["trace.self_sum_frac"] != 2 || m["self.rstar_frac"] != 2 {
		t.Fatalf("self_sum_frac %v, rstar share %v, want 2 and 2", m["trace.self_sum_frac"], m["self.rstar_frac"])
	}
}
