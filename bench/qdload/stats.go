package main

// Measurement plumbing: per-client latency samples, window percentiles,
// /proc CPU and memory readings, Prometheus scrapes, and the host
// calibration spin.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Op kinds a client records. round, finalize and knn are the closed-loop
// "ops" throughput counts; session is the create-to-finalize aggregate and
// write is the paced writer's op (its rate is the schedule's, so it is never
// counted in throughput).
const (
	kindRound    = "round"
	kindFinalize = "finalize"
	kindKNN      = "knn"
	kindWrite    = "write"
	kindSession  = "session"
	kindFloor    = "floor" // GET /healthz on the client's own connection
	kindLate     = "late"  // how long after its due time the paced writer sent an op
)

func countsAsOp(kind string) bool {
	return kind == kindRound || kind == kindFinalize || kind == kindKNN
}

type sample struct {
	kind string
	end  time.Duration // completion time relative to the window start
	lat  time.Duration
}

// recorder collects one client's samples; each client owns one, so the hot
// path takes no lock. Samples completing before the window opens (warm-up)
// or after it closes are dropped at merge time.
type recorder struct {
	t0      time.Time // window start
	samples []sample
	// attempted/failed count every user-level operation this client tried,
	// inside the window or not: a failure during warm-up is still a failure.
	attempted, failed int
	firstErr          error
}

// add records an op that completes now and began (or, for a paced op, was
// due) at start.
func (r *recorder) add(kind string, start time.Time) {
	now := time.Now()
	r.samples = append(r.samples, sample{kind, now.Sub(r.t0), now.Sub(start)})
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// window is the merged, in-window view of all clients' samples.
type window struct {
	length time.Duration
	slices int
	byKind map[string][]sample
}

func mergeWindow(recs []*recorder, length time.Duration, slices int) *window {
	w := &window{length: length, slices: slices, byKind: map[string][]sample{}}
	for _, r := range recs {
		for _, s := range r.samples {
			if s.end >= 0 && s.end < length {
				w.byKind[s.kind] = append(w.byKind[s.kind], s)
			}
		}
	}
	return w
}

func (w *window) sliceOf(s sample) int {
	i := int(int64(s.end) * int64(w.slices) / int64(w.length))
	if i >= w.slices {
		i = w.slices - 1
	}
	return i
}

// latenciesMS returns one kind's in-window latencies in milliseconds, sorted.
func (w *window) latenciesMS(kind string) []float64 {
	lat := make([]float64, len(w.byKind[kind]))
	for i, s := range w.byKind[kind] {
		lat[i] = float64(s.lat) / 1e6
	}
	sort.Float64s(lat)
	return lat
}

// percentileMS is a latency percentile of one kind over the whole window:
// every sample counts, so a stall that hits a twentieth of the ops shows in
// the p95 whichever part of the window it fell in.
func (w *window) percentileMS(kind string, p float64) float64 {
	return quantileSorted(w.latenciesMS(kind), p)
}

// slicePercentilesMS is the same percentile per slice of the window (0 for a
// slice without samples). It goes to the raw output only: it shows where in
// the window a tail came from.
func (w *window) slicePercentilesMS(kind string, p float64) []float64 {
	per := make([][]float64, w.slices)
	for _, s := range w.byKind[kind] {
		i := w.sliceOf(s)
		per[i] = append(per[i], float64(s.lat)/1e6)
	}
	vals := make([]float64, w.slices)
	for i, lat := range per {
		sort.Float64s(lat)
		vals[i] = quantileSorted(lat, p)
	}
	return vals
}

// opsPerSlice counts throughput ops completing in each slice.
func (w *window) opsPerSlice() []float64 {
	out := make([]float64, w.slices)
	for kind, ss := range w.byKind {
		if !countsAsOp(kind) {
			continue
		}
		for _, s := range ss {
			out[w.sliceOf(s)]++
		}
	}
	return out
}

func quantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// ---- /proc ----

const clockTicksPerSecond = 100 // USER_HZ on every Linux the harness targets

// cpuSeconds returns user+system CPU time consumed so far by the processes.
func cpuSeconds(pids []int) (float64, error) {
	var total float64
	for _, pid := range pids {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the full line.
		rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
		f := strings.Fields(rest)
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc/%d/stat", pid)
		}
		ut, err1 := strconv.ParseFloat(f[11], 64)
		st, err2 := strconv.ParseFloat(f[12], 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("bad /proc/%d/stat", pid)
		}
		total += (ut + st) / clockTicksPerSecond
	}
	return total, nil
}

// stealSeconds is the time the hypervisor ran something else while this
// guest had runnable work (the steal column of /proc/stat), so far.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / clockTicksPerSecond
}

// resetOwnPeakRSS restarts this process's VmHWM high-water mark, so that a
// workload charged to the harness process (embedded_sq8) is not billed for
// what an earlier workload of the same -all run held.
func resetOwnPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssPeakMB sums the processes' peak resident sets (VmHWM).
func rssPeakMB(pids []int) (float64, error) {
	var total float64
	for _, pid := range pids {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		found := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
				if err != nil {
					f.Close()
					return 0, err
				}
				total += kb / 1024
				found = true
				break
			}
		}
		f.Close()
		if !found {
			return 0, fmt.Errorf("no VmHWM for pid %d", pid)
		}
	}
	return total, nil
}

// ---- Prometheus text scrape ----

// scrape reads base/metrics into name -> value. Histogram series keep their
// _sum/_count/_bucket{...} names verbatim; only the unlabelled ones are used.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: HTTP %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// ---- host calibration ----

// calibrate times a fixed loop of harness-owned work: a float32 distance
// sweep over a buffer larger than cache, then heap and map churn. The
// harness runs it before and after each window; drift between the two says
// the host's speed changed under the run (another tenant, throttling) and
// marks it noisy. A register-only spin does not see that kind of change.
func calibrate() time.Duration {
	const dim, rows = 512, 8192 // 16 MB of float32
	buf := make([]float32, dim*rows)
	for i := range buf {
		buf[i] = float32(i%97) * 0.01
	}
	rng := rand.New(rand.NewSource(1))
	best := time.Duration(math.MaxInt64)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		var acc float32
		for r := 0; r < rows; r++ {
			var s float32
			for _, v := range buf[r*dim : (r+1)*dim] {
				s += v * v
			}
			acc += s
		}
		m := make(map[int]int)
		for i := 0; i < 50000; i++ {
			m[rng.Intn(1<<20)] += i
		}
		if d := time.Since(t0); d < best {
			best = d
		}
		calibSink += float64(acc) + float64(len(m))
	}
	return best
}

var calibSink float64
