package main

// embedded_sq8: the library user. No HTTP, no JSON, no processes: goroutines
// call the root package on a 50,000-image SQ8 system — mostly global k-NN,
// some scripted feedback sessions. Transport or codec work must not move
// anything here.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"qdcbir"
)

type embeddedSQ8 struct {
	images, categories int
	k                  int
	knnShare           float64
	shape              sessionShape
	variants           int // scripted sessions per paper query
	firstMarks         int // relevant images a script's first round must show

	sys, twin *qdcbir.System // twin: the same corpus scored in float64
	scripts   []script
	order     []int // the seed's shuffle of the scripts
	saved     int64 // bytes System.Save writes for this system
	buildS    float64

	mu      sync.Mutex
	sampled []embeddedSample
	wrong   int
	seen    int
}

// embeddedSample is one SQ8 k-NN answer kept for the bit-identity check
// against the float64 twin.
type embeddedSample struct {
	example int
	got     []qdcbir.Scored
}

func newEmbeddedSQ8() *embeddedSQ8 {
	return &embeddedSQ8{
		images: 50000, categories: 150, k: 50, knnShare: 0.70,
		shape:    sessionShape{rounds: 3, fetches: 4, k: 100},
		variants: 32, firstMarks: 2,
	}
}

func (w *embeddedSQ8) name() string     { return "embedded_sq8" }
func (w *embeddedSQ8) setupReps() int   { return 7 }
func (w *embeddedSQ8) headline() string { return kindKNN }

func (w *embeddedSQ8) config(seed int64, quantized bool) qdcbir.Config {
	return qdcbir.Config{Seed: seed, VectorMode: true, Images: w.images, Categories: w.categories, Quantized: quantized}
}

func (w *embeddedSQ8) prepare(e *env) error {
	resetOwnPeakRSS() // this workload's memory is the harness process's
	return nil
}

// setup is the library user's set-up: Build, then the first correct answer
// (an image is its own nearest neighbour).
func (w *embeddedSQ8) setup(e *env) error {
	t0 := time.Now()
	sys, err := qdcbir.Build(w.config(corpusSeed, true))
	if err != nil {
		return err
	}
	w.buildS = time.Since(t0).Seconds()
	if !sys.Quantized() {
		return fmt.Errorf("corpus did not quantize: the workload would not measure SQ8")
	}
	ns, err := sys.KNNContext(context.Background(), 0, 1)
	if err != nil {
		return err
	}
	if len(ns) != 1 || ns[0].ID != 0 {
		return fmt.Errorf("first answer: image 0 is not its own nearest neighbour: %+v", ns)
	}
	w.sys = sys
	return nil
}

func (w *embeddedSQ8) teardown() { w.sys = nil }

func (w *embeddedSQ8) ready(e *env) error {
	var err error
	if w.twin, err = qdcbir.Build(w.config(corpusSeed, false)); err != nil {
		return err
	}
	// Sessions are scripted on the float64 twin and played on the SQ8 system:
	// the bit-identity contract says the answers are the same.
	if w.scripts, err = buildScripts(w.twin, w.variants, w.firstMarks, w.shape); err != nil {
		return err
	}
	if e.corrupt {
		for i := range w.scripts {
			w.scripts[i].expect[0]++
		}
	}
	w.order = subRand(e.seed, "script-order", 0).Perm(len(w.scripts))
	var buf bytes.Buffer
	if err := w.sys.Save(&buf); err != nil {
		return err
	}
	w.saved = int64(buf.Len())
	return nil
}

func (w *embeddedSQ8) serverPIDs() []int     { return nil }
func (w *embeddedSQ8) scrapeBases() []string { return nil }

func (w *embeddedSQ8) clientFuncs(e *env) []clientFunc {
	n := e.clients
	if n > 2 {
		n = 2
	}
	fs := make([]clientFunc, n)
	for i := range fs {
		i := i
		fs[i] = func(ctx context.Context, rec *recorder) {
			rng := subRand(e.seed, "embedded_sq8-client", i)
			var sampled []embeddedSample
			wrong, seen, knns := 0, 0, 0
			next := i // scripts are taken in the seed's order, so which ones ran does not depend on timing
			for ctx.Err() == nil {
				if rng.Float64() < w.knnShare {
					example := rng.Intn(w.sys.Len())
					rec.attempted++
					t0 := time.Now()
					ns, err := w.sys.KNNContext(ctx, example, w.k)
					if err != nil {
						if ctx.Err() == nil {
							rec.fail(err)
						} else {
							rec.attempted-- // cut off by the window's end, not a failure
						}
						continue
					}
					rec.add(kindKNN, t0)
					if knns++; knns%50 == 1 { // the first, then every fiftieth
						sampled = append(sampled, embeddedSample{example, ns})
					}
					continue
				}
				sc := w.scripts[w.order[next%len(w.order)]]
				next += n
				p, err := playSession(openLibSession(w.sys, sc.seed), w.shape, newOracle(sc.targets, 0), rec)
				if err != nil {
					rec.fail(err)
					continue
				}
				seen++
				if !sameIDs(p.ids, sc.expect) {
					wrong++
				}
			}
			w.mu.Lock()
			w.sampled = append(w.sampled, sampled...)
			w.wrong += wrong
			w.seen += seen
			w.mu.Unlock()
		}
	}
	return fs
}

// verify holds the SQ8 system to its contract: sampled k-NN answers are
// bit-identical to the float64 twin's, and (already counted by the clients)
// every scripted session returned the twin's images.
func (w *embeddedSQ8) verify(e *env) (int, int, error) {
	checked, wrong := w.seen, w.wrong
	for i, s := range w.sampled {
		want, err := w.twin.KNNContext(context.Background(), s.example, w.k)
		if err != nil {
			return 0, 0, err
		}
		if e.corrupt && i == 0 {
			want[0].ID = -1
		}
		checked++
		if len(want) != len(s.got) {
			wrong++
			continue
		}
		for j := range want {
			if want[j] != s.got[j] {
				wrong++
				break
			}
		}
	}
	return checked, wrong, nil
}

func (w *embeddedSQ8) facts() (float64, float64, float64) {
	g, p := scriptQuality(w.scripts).means()
	return float64(w.saved) / float64(w.twin.Len()*37*8), g, p
}
