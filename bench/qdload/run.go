package main

// The workload driver: set-up (repeated, timed), warm-up, the timed window
// with closed-loop clients, the scrapes and /proc readings around it, the
// after-window correctness checks, and metric assembly. Workload-specific
// behaviour lives behind the workload interface.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// env is everything a workload needs from the command line.
type env struct {
	seed    int64
	window  time.Duration
	warmup  time.Duration
	binDir  string
	outDir  string // this workload's own directory under bench/out
	clients int    // min(nproc, 4)
	trace   bool
	// corrupt is the test-only hook of the acceptance criteria: it damages
	// the harness's expectation, so a passing run proves nothing and a run
	// that still reports failed == 0 proves the checks are dead.
	corrupt bool
	// perLayer is BENCHMARK.json's per-layer list: the traced pass reports
	// every name on it, zero where a layer did no work.
	perLayer []metricDef
}

// clientFunc is one load-generating goroutine. It loops until ctx is done,
// recording every completed op into rec.
type clientFunc func(ctx context.Context, rec *recorder)

// workload is one named traffic mix with its own set-up and checks.
type workload interface {
	name() string
	// setupReps is how many times set-up is repeated to take setup_s as a
	// median; the last fleet stays up for the window.
	setupReps() int
	// headline names the op kind whose latency is the workload's headline.
	headline() string
	// prepare generates the seed-derived inputs shared by every set-up
	// repetition (no clock runs).
	prepare(e *env) error
	// setup builds the archives and boots the fleet from nothing; it returns
	// once the first correct reply has arrived. teardown undoes it.
	setup(e *env) error
	teardown()
	// ready runs once after the final set-up, off the clock: in-process
	// twins, scripts, anything the clients need that is not set-up.
	ready(e *env) error
	// serverPIDs are the processes charged for CPU and memory; nil means the
	// harness process itself (the embedded workload).
	serverPIDs() []int
	// scrapeBases are the servers whose /metrics are read around the window.
	scrapeBases() []string
	clientFuncs(e *env) []clientFunc
	// verify runs the after-window correctness checks and returns how many
	// answers it checked and how many were wrong.
	verify(e *env) (checked, wrong int, err error)
	// facts are the exact end-to-end values (archive ratio, quality).
	facts() (archiveRatio, gtir, precision float64)
	// layers runs the in-process per-layer pass (trace mode only).
	layers(e *env, t *tracer, m metrics, s *scrapeDelta) error
}

type metrics map[string]float64

// scrapeDelta is the servers' own /metrics movement across the window.
type scrapeDelta struct {
	before, after []map[string]float64
	mid           [][]map[string]float64 // slice-boundary scrapes (traced pass only), for gauge maxima
	ops           float64                // closed-loop ops completed in the window
}

// max is a gauge's largest reading over every scrape taken.
func (s *scrapeDelta) max(name string) float64 {
	var best float64
	for _, set := range append([][]map[string]float64{s.before, s.after}, s.mid...) {
		var v float64
		for _, m := range set {
			v += m[name]
		}
		if v > best {
			best = v
		}
	}
	return best
}

// delta is a counter's movement across the window, summed over the servers.
func (s *scrapeDelta) delta(name string) float64 {
	var d float64
	for i := range s.after {
		d += s.after[i][name] - s.before[i][name]
	}
	return d
}

// last is a gauge's reading at the window's end, summed over the servers.
func (s *scrapeDelta) last(name string) float64 {
	var v float64
	for _, m := range s.after {
		v += m[name]
	}
	return v
}

// runOutcome is what one workload run produced.
type runOutcome struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Noisy     bool               `json:"noisy"`
	FirstErr  string             `json:"first_error,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Raw carries what the contract's metric lists leave out: sample counts,
	// p99 and max, per-kind figures and the servers' own counters.
	Raw map[string]float64 `json:"raw"`
	// Slices are the same figures per tenth of the window.
	Slices map[string][]float64 `json:"slices,omitempty"`
}

func runWorkload(w workload, e *env) (*runOutcome, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := w.prepare(e); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name(), err)
	}

	// Set-up, repeated from nothing each time; the traced pass sets up once
	// (it reports no setup_s).
	reps := w.setupReps()
	if e.trace {
		reps = 1
	}
	var setups []float64
	defer w.teardown()
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := w.ready(e); err != nil {
		return nil, fmt.Errorf("%s: ready: %w", w.name(), err)
	}

	pids := w.serverPIDs()
	if pids == nil {
		pids = []int{os.Getpid()}
	}
	self := []int{os.Getpid()}
	out := &runOutcome{Workload: w.name(), Raw: map[string]float64{}}

	calibBefore := calibrate()
	runtime.GC()

	// Clients start now and run through warm-up and window; the recorders'
	// clock zero is the window start, so warm-up samples fall out at merge.
	funcs := w.clientFuncs(e)
	start := time.Now()
	t0 := start.Add(e.warmup)
	ctx, cancel := context.WithDeadline(context.Background(), t0.Add(e.window))
	defer cancel()
	recs := make([]*recorder, len(funcs))
	var wg sync.WaitGroup
	for i, f := range funcs {
		recs[i] = &recorder{t0: t0}
		wg.Add(1)
		go func(f clientFunc, r *recorder) {
			defer wg.Done()
			f(ctx, r)
		}(f, recs[i])
	}

	// Slice boundaries: read the servers' CPU clocks at the window start and
	// at the end of every slice, and scrape /metrics at both window edges.
	const slices = 10
	sd := &scrapeDelta{}
	cpuAt := make([]float64, slices+1)
	selfCPU := [2]float64{}
	var steal float64 // seconds stolen from this guest during the window
	var sampleErr error
	for i := 0; i <= slices; i++ {
		at := t0.Add(time.Duration(int64(e.window) * int64(i) / slices))
		time.Sleep(time.Until(at))
		if i == 0 {
			sd.before, sampleErr = scrapeAll(w.scrapeBases())
			selfCPU[0], _ = cpuSeconds(self)
			steal = -stealSeconds()
		}
		c, err := cpuSeconds(pids)
		if err != nil && sampleErr == nil {
			sampleErr = err
		}
		cpuAt[i] = c
		if e.trace && i > 0 && i < slices {
			if mid, err := scrapeAll(w.scrapeBases()); err == nil {
				sd.mid = append(sd.mid, mid)
			}
		}
	}
	wg.Wait()
	selfCPU[1], _ = cpuSeconds(self)
	steal += stealSeconds()
	if sampleErr != nil {
		return nil, fmt.Errorf("%s: sampling: %w", w.name(), sampleErr)
	}
	var err error
	if sd.after, err = scrapeAll(w.scrapeBases()); err != nil {
		return nil, fmt.Errorf("%s: scrape: %w", w.name(), err)
	}
	rss, err := rssPeakMB(pids)
	if err != nil {
		return nil, fmt.Errorf("%s: rss: %w", w.name(), err)
	}
	calibAfter := calibrate()

	win := mergeWindow(recs, e.window, slices)
	for _, r := range recs {
		out.Attempted += r.attempted
		out.Failed += r.failed
		if r.firstErr != nil && out.FirstErr == "" {
			out.FirstErr = r.firstErr.Error()
		}
	}
	checked, wrong, err := w.verify(e)
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", w.name(), err)
	}
	out.Failed += wrong
	out.Raw["answers_checked"] = float64(checked)
	out.Raw["answers_wrong"] = float64(wrong)
	if out.Attempted == 0 {
		return nil, fmt.Errorf("%s: no operation was attempted", w.name())
	}
	out.Correct = out.Failed == 0

	// Throughput and CPU per op are whole-window figures; the per-slice ones
	// go to the raw output.
	ops := win.opsPerSlice()
	sliceLen := e.window.Seconds() / slices
	var tput, cpuPerOp []float64
	var totalOps float64
	for i, n := range ops {
		totalOps += n
		tput = append(tput, n/sliceLen)
		if n > 0 {
			cpuPerOp = append(cpuPerOp, 1e3*(cpuAt[i+1]-cpuAt[i])/n)
		}
	}
	if totalOps == 0 {
		return nil, fmt.Errorf("%s: no closed-loop op completed inside the window", w.name())
	}
	sd.ops = totalOps
	drift := float64(calibAfter-calibBefore) / float64(calibBefore)
	if drift < 0 {
		drift = -drift
	}
	// Noisy: the host changed speed under the window, or the hypervisor took
	// more than 2 % of the guest's CPU time away during it.
	stealFrac := steal / (e.window.Seconds() * float64(runtime.NumCPU()))
	out.Noisy = drift > 0.10 || stealFrac > 0.02

	archive, gtir, precision := w.facts()
	if e.trace {
		m := metrics{}
		m["host.calib_drift_frac"] = drift
		m["host.steal_frac"] = stealFrac
		m["loadgen.cpu_frac"] = (selfCPU[1] - selfCPU[0]) / (e.warmup + e.window).Seconds() / float64(runtime.NumCPU())
		m["loadgen.late_ms_p95"] = win.percentileMS(kindLate, 0.95)
		m["client.write_p50_ms"] = win.percentileMS(kindWrite, 0.50)
		m["client.write_p95_ms"] = win.percentileMS(kindWrite, 0.95)
		m["client.knn_p50_ms"] = win.percentileMS(kindKNN, 0.50)
		m["client.knn_p95_ms"] = win.percentileMS(kindKNN, 0.95)
		m["server.http_floor_us"] = 1e3 * win.percentileMS(kindFloor, 0.50)
		t := newTracer()
		if err := w.layers(e, t, m, sd); err != nil {
			return nil, fmt.Errorf("%s: per-layer pass: %w", w.name(), err)
		}
		finishLayers(t, m, e.perLayer)
		if err := t.writePerfetto(filepath.Join(e.outDir, "trace.json")); err != nil {
			return nil, err
		}
		out.PerLayer = m
	} else {
		out.EndToEnd = map[string]float64{
			"setup_s":                       median(setups),
			"throughput_ops_s":              totalOps / e.window.Seconds(),
			"cpu_ms_per_op":                 1e3 * (cpuAt[slices] - cpuAt[0]) / totalOps,
			"round_p50_ms":                  win.percentileMS(kindRound, 0.50),
			"round_p95_ms":                  win.percentileMS(kindRound, 0.95),
			"finalize_p50_ms":               win.percentileMS(kindFinalize, 0.50),
			"finalize_p95_ms":               win.percentileMS(kindFinalize, 0.95),
			"headline_p50_ms":               win.percentileMS(w.headline(), 0.50),
			"headline_p95_ms":               win.percentileMS(w.headline(), 0.95),
			"rss_peak_mb":                   rss,
			"archive_bytes_per_vector_byte": archive,
			"quality_gtir":                  gtir,
			"quality_precision":             precision,
		}
	}

	// Raw: what the metric lists leave out.
	for i, s := range setups {
		out.Raw[fmt.Sprintf("setup_s.%d", i)] = s
	}
	kinds := make([]string, 0, len(win.byKind))
	for k := range win.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		lat := win.latenciesMS(k)
		out.Raw[k+"_samples"] = float64(len(lat))
		out.Raw[k+"_p50_ms"] = quantileSorted(lat, 0.50)
		out.Raw[k+"_p95_ms"] = quantileSorted(lat, 0.95)
		out.Raw[k+"_p99_ms"] = quantileSorted(lat, 0.99)
		out.Raw[k+"_max_ms"] = lat[len(lat)-1]
	}
	out.Slices = map[string][]float64{"throughput_ops_s": tput, "cpu_ms_per_op": cpuPerOp}
	for _, k := range []string{kindRound, kindFinalize, w.headline()} {
		out.Slices[k+"_p50_ms"] = win.slicePercentilesMS(k, 0.50)
		out.Slices[k+"_p95_ms"] = win.slicePercentilesMS(k, 0.95)
	}
	out.Raw["ops_total"] = totalOps
	out.Raw["cpu_s_servers"] = cpuAt[slices] - cpuAt[0]
	out.Raw["cpu_s_loadgen"] = selfCPU[1] - selfCPU[0]
	out.Raw["host_steal_frac"] = stealFrac
	out.Raw["calib_ms_before"] = float64(calibBefore) / 1e6
	out.Raw["calib_ms_after"] = float64(calibAfter) / 1e6
	out.Raw["rss_peak_mb"] = rss
	for _, name := range []string{"qd_http_requests_total", "qd_http_errors_total", "qd_router_requests_total", "qd_router_errors_total"} {
		if d := sd.delta(name); d != 0 {
			out.Raw["scrape."+name] = d
		}
	}
	return out, nil
}

func scrapeAll(bases []string) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(bases))
	for i, b := range bases {
		m, err := scrape(b)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}
