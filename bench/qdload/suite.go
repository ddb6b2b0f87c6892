package main

// Whole-suite runs: -all (every workload, untraced then traced, into one
// result file that -diff compares) and -selfcheck (does the benchmark agree
// with itself?).

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// suiteResult is one -all result file: the header that decides whether two
// files may be compared, and per workload every metric's value in every run.
type suiteResult struct {
	Header    header                    `json:"header"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"` // one value per untraced run
	PerLayer  map[string]float64   `json:"per_layer,omitempty"`
}

func (s *suiteResult) write(path string) error { return writeJSON(path, s) }

func readSuite(path string) (*suiteResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSuite runs every workload o.runs times untraced and, when traced is
// set, once traced, printing each run's metrics as it goes.
func runSuite(out io.Writer, c *contract, root string, o options, traced bool) (*suiteResult, error) {
	res := &suiteResult{Header: newHeader(root, o.seed, o.seconds), Workloads: map[string]*suiteWorkload{}}
	for _, def := range c.Workloads {
		sw := &suiteWorkload{Correct: true, EndToEnd: map[string][]float64{}}
		res.Workloads[def.Name] = sw
		for run := 0; run < o.runs; run++ {
			w := workloadByName(def.Name)
			if w == nil {
				return nil, fmt.Errorf("BENCHMARK.json names workload %q, which qdload does not have", def.Name)
			}
			r, err := runWorkload(w, newEnv(c, o, w, false))
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "\n%s  run %d/%d  seed %d\n", def.Name, run+1, o.runs, o.seed)
			printMetrics(out, "", c.EndToEnd, r.EndToEnd, true)
			printRaw(out, r)
			for k, v := range r.EndToEnd {
				sw.EndToEnd[k] = append(sw.EndToEnd[k], v)
			}
			sw.Correct = sw.Correct && r.Correct
			sw.Attempted += r.Attempted
			sw.Failed += r.Failed
			res.Header.Noisy = res.Header.Noisy || r.Noisy
		}
		if traced {
			w := workloadByName(def.Name)
			r, err := runWorkload(w, newEnv(c, o, w, true))
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "\n%s  traced pass\n", def.Name)
			printMetrics(out, "", c.PerLayer, r.PerLayer, false)
			sw.PerLayer = r.PerLayer
			sw.Correct = sw.Correct && r.Correct
			sw.Attempted += r.Attempted
			sw.Failed += r.Failed
			res.Header.Noisy = res.Header.Noisy || r.Noisy
		}
	}
	printAsymmetries(out, res)
	return res, nil
}

// printAsymmetries states the predictions the workloads were chosen to make
// visible, with the shares that bear them out (or do not).
func printAsymmetries(out io.Writer, res *suiteResult) {
	share := func(w, layer string) float64 {
		if sw := res.Workloads[w]; sw != nil && sw.PerLayer != nil {
			return sw.PerLayer["self."+layer+"_frac"]
		}
		return math.NaN()
	}
	if math.IsNaN(share("embedded_sq8", layerVec)) {
		return
	}
	fmt.Fprintln(out, "\npredicted asymmetries (self-time share of traced op time)")
	row := func(claim string, ok bool, detail string) {
		verdict := "holds"
		if !ok {
			verdict = "DOES NOT HOLD"
		}
		fmt.Fprintf(out, "  %-62s %-13s %s\n", claim, verdict, detail)
	}
	e := share("embedded_sq8", layerServer) + share("embedded_sq8", layerRouter) + share("embedded_sq8", layerShard)
	row("server + router + shard self time is 0 on embedded_sq8", e == 0, fmt.Sprintf("%.4f", e))
	var segElsewhere float64
	for _, w := range []string{"session_static", "knn_routed", "embedded_sq8"} {
		segElsewhere += share(w, layerSeg)
	}
	row("seg self time is 0 outside ingest_mixed", segElsewhere == 0 && share("ingest_mixed", layerSeg) > 0,
		fmt.Sprintf("elsewhere %.4f, ingest_mixed %.4f", segElsewhere, share("ingest_mixed", layerSeg)))
	vk, vs, ve, vi := share("knn_routed", layerVec), share("session_static", layerVec), share("embedded_sq8", layerVec), share("ingest_mixed", layerVec)
	row("vec share of op time is largest on knn_routed, smallest on session_static", vk > ve && ve > vs,
		fmt.Sprintf("knn_routed %.4f, embedded_sq8 %.4f, session_static %.4f (ingest_mixed's engine is not decomposed below seg: %.4f)", vk, ve, vs, vi))
	var inRounds float64
	for _, w := range []string{"session_static", "embedded_sq8"} {
		inRounds += res.Workloads[w].PerLayer["core.knn_reads_in_rounds"]
	}
	row("feedback rounds run no k-NN (representative reads only, paper §3.2)", inRounds == 0,
		fmt.Sprintf("%.0f tree reads charged to k-NN during rounds; %.2f representative-table reads/round",
			inRounds, res.Workloads["session_static"].PerLayer["core.feedback_reads_per_round"]))
}

// exactPerLayer are the per-layer counts that are pure functions of the seed.
var exactPerLayer = []string{
	"store.native_bytes_per_row", "store.sq8_bytes_per_row",
	"rstar.node_reads_per_knn", "rstar.node_reads_per_local_knn",
	"core.subqueries_per_finalize", "core.final_reads_per_finalize",
	"core.feedback_reads_per_round", "core.expansions_per_finalize",
	"persist.archive_mb",
}

// runSelfcheck runs the suite twice with one seed and once with the next,
// prints every end-to-end metric's disagreement beside its bound, and fails
// when the same-seed pair disagrees beyond a bound, when an exact metric
// differs at all, or when changing the seed changed nothing.
func runSelfcheck(out io.Writer, c *contract, root string, o options) error {
	o.runs = 1
	var sets [3]*suiteResult
	for i := range sets {
		oi := o
		if i == 2 {
			oi.seed = o.seed + 1
		}
		fmt.Fprintf(out, "\n==== selfcheck set %d of 3 (seed %d) ====\n", i+1, oi.seed)
		s, err := runSuite(out, c, root, oi, true)
		if err != nil {
			return err
		}
		if err := s.write(filepath.Join(o.outDir, fmt.Sprintf("selfcheck.%d.json", i+1))); err != nil {
			return err
		}
		sets[i] = s
	}
	a, b, other := sets[0], sets[1], sets[2]
	var problems []string
	seedMoved := false
	fmt.Fprintf(out, "\n==== selfcheck: same-seed disagreement vs bound ====\n")
	for _, def := range c.Workloads {
		wa, wb, wo := a.Workloads[def.Name], b.Workloads[def.Name], other.Workloads[def.Name]
		fmt.Fprintf(out, "%s\n", def.Name)
		if !wa.Correct || !wb.Correct || !wo.Correct {
			problems = append(problems, def.Name+": a run reported failed operations")
		}
		for _, m := range c.EndToEnd {
			va, vb := wa.EndToEnd[m.Name][0], wb.EndToEnd[m.Name][0]
			d := worsening(va, vb, m.Better)
			if w := worsening(vb, va, m.Better); w > d {
				d = w
			}
			verdict := "ok"
			if d > m.Bound {
				verdict = "DISAGREE"
				problems = append(problems, fmt.Sprintf("%s %s: same-seed runs differ by %.3f, bound %.2f", def.Name, m.Name, d, m.Bound))
			}
			fmt.Fprintf(out, "  %-34s %12.6g %12.6g  differ %.4f  bound %.2f  %s\n", m.Name, va, vb, d, m.Bound, verdict)
		}
		for _, name := range exactPerLayer {
			if wa.PerLayer[name] != wb.PerLayer[name] {
				problems = append(problems, fmt.Sprintf("%s %s: exact per-layer count differs between same-seed runs (%v vs %v)",
					def.Name, name, wa.PerLayer[name], wb.PerLayer[name]))
			}
			if wa.PerLayer[name] != wo.PerLayer[name] {
				seedMoved = true
			}
		}
	}
	if !seedMoved {
		problems = append(problems, "seed+1 changed no exact metric on any workload: the generator ignores -seed")
	}
	if len(problems) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Fprintln(out, "\nselfcheck passed")
	return nil
}

// worsening is how much worse `now` is than `base`, as a share of base, in
// the metric's own direction (0 when it is no worse).
func worsening(base, now float64, better string) float64 {
	if base == 0 {
		return 0
	}
	d := (now - base) / math.Abs(base)
	if better == "higher" {
		d = -d
	}
	if d < 0 {
		return 0
	}
	return d
}
