package main

// The smoke test boots the real binaries at a small scale and runs every
// workload briefly, untraced and traced, so a change to a CLI flag, a wire
// field or an allow-listed entry point fails `go test` in the change that
// makes it rather than silently in the benchmark later. It also turns the
// corrupt-expectation hook on: a benchmark whose checks cannot fail checks
// nothing.

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

var (
	testRoot   string
	testBinDir string
	testDefs   *contract
)

func TestMain(m *testing.M) {
	code := func() int {
		var err error
		if testRoot, err = repoRoot(); err != nil {
			println("qdload tests:", err.Error())
			return 1
		}
		if testDefs, err = loadContract(testRoot); err != nil {
			println("qdload tests:", err.Error())
			return 1
		}
		dir, err := os.MkdirTemp("", "qdload-test-")
		if err != nil {
			println("qdload tests:", err.Error())
			return 1
		}
		defer os.RemoveAll(dir)
		testBinDir = filepath.Join(dir, "bin")
		if err := buildBinaries(testRoot, testBinDir); err != nil {
			println("qdload tests:", err.Error())
			return 1
		}
		defer killAllFleets()
		return m.Run()
	}()
	os.Exit(code)
}

// smallWorkloads are the four workloads at a scale a test can afford.
func smallWorkloads() []workload {
	ss := newSessionStatic()
	ss.images, ss.categories, ss.variants, ss.firstMarks = 400, 12, 2, 1
	ss.shape.k = 20
	ss.extraBuild = []string{"-capacity", "24", "-reps", "0.2"}

	kr := smallRouted()
	kr.k, kr.shape.k = 10, 10

	im := newIngestMixed()
	im.images, im.lag, im.k, im.shape.k = 600, 64, 10, 10

	em := newEmbeddedSQ8()
	em.images, em.categories, em.variants, em.firstMarks = 3000, 20, 2, 1
	em.k, em.shape.k = 10, 20
	return []workload{ss, kr, im, em}
}

func smallEnv(t *testing.T, w workload, trace, corrupt bool) *env {
	return &env{
		seed: 5, window: 600 * time.Millisecond, warmup: 100 * time.Millisecond,
		binDir: testBinDir, outDir: filepath.Join(t.TempDir(), w.name()),
		clients: 2, trace: trace, corrupt: corrupt, perLayer: testDefs.PerLayer,
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range smallWorkloads() {
		w := w
		t.Run(w.name(), func(t *testing.T) {
			out, err := runWorkload(w, smallEnv(t, w, false, false))
			if err != nil {
				t.Fatal(err)
			}
			if out.Failed != 0 || !out.Correct {
				t.Fatalf("failed %d of %d: %s", out.Failed, out.Attempted, out.FirstErr)
			}
			if out.Raw["answers_checked"] == 0 {
				t.Error("no answer was checked")
			}
			// The contract's last line needs every end-to-end metric, non-zero.
			if _, err := resultLine(out, testDefs.EndToEnd, out.EndToEnd); err != nil {
				t.Fatal(err)
			}
			for _, d := range testDefs.EndToEnd {
				if out.EndToEnd[d.Name] <= 0 {
					t.Errorf("%s = %v, want a positive measurement", d.Name, out.EndToEnd[d.Name])
				}
			}
		})
	}
}

func TestSmokeTracedPass(t *testing.T) {
	shares := map[string]map[string]float64{}
	for i, first := range smallWorkloads() {
		i, w := i, first
		t.Run(w.name(), func(t *testing.T) {
			// The sum of self times is a ratio of wall-clock timings taken a
			// few milliseconds apart, and tier-1 runs other packages' tests
			// beside this one: a chain that really overshoots does so every
			// time, a preempted span does not, so one clean pass in three is
			// the criterion.
			var e *env
			var out *runOutcome
			for attempt := 1; ; attempt++ {
				var err error
				if attempt > 1 {
					w = smallWorkloads()[i] // a workload value runs once
				}
				e = smallEnv(t, w, true, false)
				if out, err = runWorkload(w, e); err != nil {
					t.Fatal(err)
				}
				if out.Failed != 0 {
					t.Fatalf("failed %d of %d: %s", out.Failed, out.Attempted, out.FirstErr)
				}
				sum := out.PerLayer["trace.self_sum_frac"]
				if sum >= 0.85 && sum <= 1.15 {
					break
				}
				if attempt == 3 {
					t.Fatalf("layer self times sum to %.3f of the traced op time, want within 15 %% of it", sum)
				}
				t.Logf("attempt %d: layer self times sum to %.3f of the traced op time; again", attempt, sum)
			}
			if _, err := resultLine(out, testDefs.PerLayer, out.PerLayer); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(e.outDir, "trace.json")); err != nil {
				t.Errorf("no trace written: %v", err)
			}
			shares[w.name()] = out.PerLayer
		})
	}
	// The asymmetries the workloads exist to show.
	if m := shares["embedded_sq8"]; m != nil {
		if got := m["self.server_frac"] + m["self.router_frac"] + m["self.shard_frac"] + m["self.seg_frac"]; got != 0 {
			t.Errorf("embedded_sq8 charges %.4f of its time to server/router/shard/seg, want 0", got)
		}
		if m["core.knn_reads_in_rounds"] != 0 {
			t.Errorf("feedback rounds charged %.1f tree reads to k-NN, want 0 (paper §3.2)", m["core.knn_reads_in_rounds"])
		}
	}
	for _, name := range []string{"session_static", "knn_routed", "embedded_sq8"} {
		if m := shares[name]; m != nil && m["self.seg_frac"] != 0 {
			t.Errorf("%s charges time to seg, which only ingest_mixed runs", name)
		}
	}
	if m := shares["ingest_mixed"]; m != nil && m["self.seg_frac"] == 0 {
		t.Error("ingest_mixed charges no time to seg")
	}
}

// A damaged expectation must raise failed on every workload.
func TestCorruptExpectationIsCaught(t *testing.T) {
	for _, w := range smallWorkloads() {
		w := w
		t.Run(w.name(), func(t *testing.T) {
			out, err := runWorkload(w, smallEnv(t, w, false, true))
			if err != nil {
				t.Fatal(err)
			}
			if out.Failed == 0 || out.Correct {
				t.Fatalf("failed = %d, correct = %v with a corrupted expectation: the checks cannot fail", out.Failed, out.Correct)
			}
		})
	}
}
