// Command qdload is the repository's end-to-end benchmark: four named
// workloads driven against the shipped binaries (and, for embedded_sq8, the
// library), every answer checked, every metric printed by name with unit,
// direction and bound. BENCHMARK.json at the repository root is the contract
// it runs to; bench/README.md explains the workloads and metrics.
//
//	bash bench/run.sh --workload knn_routed --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload knn_routed --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh -all -seed 1 -o bench/out/base.json
//	bash bench/run.sh -diff old.json new.json
//	bash bench/run.sh -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef is one entry of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract mirrors BENCHMARK.json: the one place metric names, units,
// directions and bounds are written down.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadContract(root string) (*contract, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// repoRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

func workloads() []workload {
	return []workload{newSessionStatic(), newKNNRouted(), newIngestMixed(), newEmbeddedSQ8()}
}

func workloadByName(name string) workload {
	for _, w := range workloads() {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// options are the parsed command-line flags and the two directories a run
// writes to.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	all      bool
	check    bool
	diff     bool
	out      string
	binDir   string
	outDir   string
	runs     int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: session_static | knn_routed | ingest_mixed | embedded_sq8")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 0, "timed window in seconds (0 = BENCHMARK.json run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the per-layer pass (writes bench/out/<workload>/trace.json)")
	flag.BoolVar(&o.all, "all", false, "run every workload, untraced then traced, and write one result file (-o)")
	flag.BoolVar(&o.check, "selfcheck", false, "run the suite twice with one seed and once with another; fail on disagreement")
	flag.BoolVar(&o.diff, "diff", false, "compare two -all result files: qdload -diff old.json new.json")
	flag.StringVar(&o.out, "o", "", "with -all: result file (default bench/out/result.json)")
	flag.IntVar(&o.runs, "runs", 3, "with -all: untraced runs per workload (medians and spread in the result file)")
	flag.Parse()

	if o.diff {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: qdload -diff old.json new.json"))
		}
		if err := runDiff(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	c, err := loadContract(root)
	if err != nil {
		fatal(err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(c.RunSeconds)
	}
	o.binDir = filepath.Join(root, ".bench_build", "bin") // the shipped binaries
	o.outDir = filepath.Join(root, "bench", "out")        // logs, archives, traces, result files

	// No child outlives the harness: SIGINT/SIGTERM kill every process group.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAllFleets()
		os.Exit(130)
	}()

	// The shipped binaries are built from this checkout before any clock starts.
	if err := buildBinaries(root, o.binDir); err != nil {
		fatal(err)
	}

	switch {
	case o.check:
		err = runSelfcheck(os.Stdout, c, root, o)
	case o.all:
		var res *suiteResult
		if res, err = runSuite(os.Stdout, c, root, o, true); err == nil {
			path := o.out
			if path == "" {
				path = filepath.Join(o.outDir, "result.json")
			}
			err = res.write(path)
		}
	default:
		err = runOne(c, root, o)
	}
	killAllFleets()
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	killAllFleets()
	fmt.Fprintln(os.Stderr, "qdload:", err)
	os.Exit(1)
}

func newEnv(c *contract, o options, w workload, trace bool) *env {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if trace {
		// The traced pass shares its run with the in-process layer probes;
		// its served window only feeds scrape deltas, so half is enough.
		window /= 2
	}
	warm := 2 * time.Second
	if window < 4*time.Second {
		warm = window / 2
	}
	return &env{
		seed: o.seed, window: window, warmup: warm,
		binDir: o.binDir, outDir: filepath.Join(o.outDir, w.name()),
		clients: n, trace: trace, perLayer: c.PerLayer,
	}
}

// runOne is the contract's single invocation: one workload, one pass, the
// result object as the last line of standard output.
func runOne(c *contract, root string, o options) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown -workload %q", o.workload)
	}
	hdr := newHeader(root, o.seed, o.seconds)
	out, err := runWorkload(w, newEnv(c, o, w, o.trace == 1))
	if err != nil {
		// An attempt that aborts (no result, as opposed to a result with failed
		// operations) is run once more from nothing. One run in some 290 on
		// the reference sandbox aborted and could not be made to abort again;
		// the error goes to stderr, the attempt's logs are kept, and the raw
		// output counts it, so it is not lost. A second abort ends the run.
		dir := filepath.Join(o.outDir, w.name())
		kept := dir + ".aborted"
		os.RemoveAll(kept)
		os.Rename(dir, kept)
		fmt.Fprintf(os.Stderr, "qdload: %s: attempt aborted: %v (logs kept in %s); running it once more\n", w.name(), err, kept)
		w = workloadByName(o.workload)
		if out, err = runWorkload(w, newEnv(c, o, w, o.trace == 1)); err != nil {
			return err
		}
		out.Raw["aborted_attempts"] = 1
	}
	hdr.Noisy = out.Noisy
	hdr.print(os.Stdout)
	defs, vals := c.EndToEnd, out.EndToEnd
	if o.trace == 1 {
		defs, vals = c.PerLayer, out.PerLayer
	}
	printMetrics(os.Stdout, w.name(), defs, vals, o.trace == 0)
	printRaw(os.Stdout, out)
	if err := writeJSON(filepath.Join(o.outDir, w.name(), fmt.Sprintf("result.trace%d.json", o.trace)),
		struct {
			Header header      `json:"header"`
			Result *runOutcome `json:"result"`
		}{hdr, out}); err != nil {
		return err
	}
	line, err := resultLine(out, defs, vals)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// resultLine renders the contract's last line: exactly correct, attempted,
// failed and metrics, the metrics being every name the list defines.
func resultLine(out *runOutcome, defs []metricDef, vals map[string]float64) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %q is in BENCHMARK.json but was not measured", out.Workload, d.Name)
		}
		ms[d.Name] = mv{v, d.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, ms})
	return string(raw), err
}

func printMetrics(f io.Writer, workload string, defs []metricDef, vals map[string]float64, bounds bool) {
	fmt.Fprintf(f, "\n%s\n", workload)
	for _, d := range defs {
		if bounds {
			fmt.Fprintf(f, "  %-34s %14.6g %-6s %-7s bound %.2f\n", d.Name, vals[d.Name], d.Unit, d.Better, d.Bound)
		} else {
			fmt.Fprintf(f, "  %-34s %14.6g %-6s %s\n", d.Name, vals[d.Name], d.Unit, d.Better)
		}
	}
}

func printRaw(f io.Writer, out *runOutcome) {
	fmt.Fprintf(f, "  %-34s %14.6g %-6s %-7s bound 0 (any rise)\n", "failed_frac", float64(out.Failed)/float64(out.Attempted), "ratio", "lower")
	fmt.Fprintf(f, "  attempted %d  failed %d  correct %v", out.Attempted, out.Failed, out.Correct)
	if out.FirstErr != "" {
		fmt.Fprintf(f, "  first error: %s", out.FirstErr)
	}
	fmt.Fprintln(f)
	keys := make([]string, 0, len(out.Raw))
	for k := range out.Raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(f, "  raw:")
	for _, k := range keys {
		fmt.Fprintf(f, " %s=%.6g", k, out.Raw[k])
	}
	fmt.Fprintln(f)
}

func writeJSON(path string, v interface{}) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
