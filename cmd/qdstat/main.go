// Command qdstat is the live operator view over a qdserve replica or a
// qdrouter fleet front: it polls the target's observability endpoints and
// renders one terminal frame per interval — request rate, per-endpoint
// p50/p95/p99 over the sliding windows, per-shard health and latency (router
// targets), the segmented engine's shape (dynamic servers): epoch, segment
// count, memtable rows, tombstone ratio, and compaction activity — and, when
// the target runs the admission scheduler, the load-shedding state: queue
// depth, shed counts, and an [OVERLOAD] flag while load is actively being
// refused.
//
// Usage:
//
//	qdstat -target http://localhost:8390              # live view, 2s refresh
//	qdstat -target http://localhost:8400 -once        # one frame (scripts/CI)
//	qdstat -target http://localhost:8390 -interval 5s -window 5m
//
// The target kind is auto-detected from /v1/buildinfo: a body with a
// "replicas" field is a router (per-shard sections come from /v1/fleet/*),
// anything else is a single replica.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"qdcbir/internal/obs"
)

func main() {
	var (
		target   = flag.String("target", "http://localhost:8390", "qdserve or qdrouter base URL")
		interval = flag.Duration("interval", 2*time.Second, "refresh interval")
		window   = flag.String("window", "1m", "latency window to display (1m, 5m, 15m)")
		once     = flag.Bool("once", false, "render one frame and exit (no screen clearing)")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-poll HTTP timeout")
	)
	flag.Parse()
	c := &client{
		base: strings.TrimRight(*target, "/"),
		http: &http.Client{Timeout: *timeout},
	}
	kind, err := c.detect()
	if err != nil {
		fmt.Fprintf(os.Stderr, "qdstat: %s unreachable: %v\n", *target, err)
		os.Exit(1)
	}
	var prev *sample
	for {
		s, err := c.poll(kind)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qdstat: poll failed: %v\n", err)
			if *once {
				os.Exit(1)
			}
			time.Sleep(*interval)
			continue
		}
		frame := render(s, prev, *window)
		if !*once {
			fmt.Print("\033[2J\033[H") // clear screen, home cursor
		}
		fmt.Print(frame)
		if *once {
			return
		}
		prev = s
		time.Sleep(*interval)
	}
}

// targetKind distinguishes what qdstat is watching.
type targetKind int

const (
	kindServer targetKind = iota
	kindRouter
)

// client polls one target's observability endpoints.
type client struct {
	base string
	http *http.Client
}

func (c *client) getJSON(path string, out interface{}) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// detect classifies the target by its /v1/buildinfo shape: only the router
// reports a replica count.
func (c *client) detect() (targetKind, error) {
	var bi map[string]json.RawMessage
	if err := c.getJSON("/v1/buildinfo", &bi); err != nil {
		return kindServer, err
	}
	if _, ok := bi["replicas"]; ok {
		return kindRouter, nil
	}
	return kindServer, nil
}

// Wire shapes — the subsets of the server/router response bodies qdstat
// reads, decoded structurally so qdstat never imports the serving tiers.

type latencyBody struct {
	Windows []string          `json:"windows"`
	Digests obs.LatencyReport `json:"digests"`
}

type statsBody struct {
	Metrics  obs.Snapshot  `json:"metrics"`
	Shards   []shardStatus `json:"shards"`
	Requests uint64        `json:"requests"`
}

type shardStatus struct {
	Shard    int `json:"shard"`
	Replicas []struct {
		URL      string `json:"url"`
		Alive    bool   `json:"alive"`
		Requests uint64 `json:"requests"`
		Errors   uint64 `json:"errors"`
	} `json:"replicas"`
}

type buildInfoBody struct {
	Images      int    `json:"images"`
	Shards      int    `json:"shards"`
	Replicas    int    `json:"replicas"`
	Precision   string `json:"precision"`
	Dynamic     bool   `json:"dynamic"`
	Epoch       uint64 `json:"epoch"`
	Segments    int    `json:"segments"`
	MemRows     int    `json:"mem_rows"`
	Tombstones  int    `json:"tombstones"`
	Seals       uint64 `json:"seals"`
	Compactions uint64 `json:"compactions"`
}

type fleetLatencyBody struct {
	Replicas int               `json:"replicas"`
	Errors   []string          `json:"errors"`
	Fleet    obs.LatencyReport `json:"fleet"`
	Shards   []struct {
		Shard   int               `json:"shard"`
		Digests obs.LatencyReport `json:"digests"`
	} `json:"shards"`
}

type slowBody struct {
	Slowest []obs.SlowQuery `json:"slowest"`
}

// sample is one poll of the target, timestamped for rate computation.
type sample struct {
	kind  targetKind
	at    time.Time
	build buildInfoBody
	stats statsBody
	lat   latencyBody
	fleet *fleetLatencyBody // router only
	slow  []obs.SlowQuery
}

// poll gathers one sample. The slow log and fleet digests are best-effort: a
// missing endpoint (older replica) degrades the frame, it does not kill it.
func (c *client) poll(kind targetKind) (*sample, error) {
	s := &sample{kind: kind, at: time.Now()}
	if err := c.getJSON("/v1/buildinfo", &s.build); err != nil {
		return nil, err
	}
	if err := c.getJSON("/v1/stats", &s.stats); err != nil {
		return nil, err
	}
	if err := c.getJSON("/v1/latency", &s.lat); err != nil {
		return nil, err
	}
	if kind == kindRouter {
		var fl fleetLatencyBody
		if err := c.getJSON("/v1/fleet/latency", &fl); err == nil {
			s.fleet = &fl
		}
	}
	var sb slowBody
	if err := c.getJSON("/v1/slow", &sb); err == nil {
		s.slow = sb.Slowest
	}
	return s, nil
}

// ---- rendering ----

// requestCount extracts the sample's cumulative request counter (the QPS
// numerator differs between tiers).
func requestCount(s *sample) uint64 {
	if s.kind == kindRouter {
		return s.stats.Metrics.Counters["qd_router_requests_total"]
	}
	return s.stats.Metrics.Counters["qd_http_requests_total"]
}

// fmtDur renders seconds at operator precision: µs under a millisecond, ms
// under a second, seconds above.
func fmtDur(sec float64) string {
	switch {
	case sec <= 0:
		return "-"
	case sec < 0.001:
		return fmt.Sprintf("%.0fµs", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.1fms", sec*1e3)
	default:
		return fmt.Sprintf("%.2fs", sec)
	}
}

// digestRows renders one latency table: name, count, p50/p95/p99 for the
// chosen window, skipping digests with no samples in it.
func digestRows(b *strings.Builder, rep obs.LatencyReport, window, indent string) {
	names := make([]string, 0, len(rep))
	for name := range rep {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st, ok := rep[name][window]
		if !ok || st.Count == 0 {
			continue
		}
		fmt.Fprintf(b, "%s%-28s %8d  %9s %9s %9s\n",
			indent, name, st.Count, fmtDur(st.P50), fmtDur(st.P95), fmtDur(st.P99))
	}
}

// admissionLine renders the load-shedding view: a replica's scheduler state
// (queue depth, inflight, shed counts) or the router's
// fleet-facing view (single-flight joins, shard sheds observed). Targets
// without the scheduler metrics render nothing. The [OVERLOAD] flag fires
// while load is actively being refused — sheds advanced since the previous
// sample, or requests are queued right now.
func admissionLine(b *strings.Builder, s, prev *sample) {
	ctrs := s.stats.Metrics.Counters
	if s.kind == kindRouter {
		joins, okJ := ctrs["qd_router_singleflight_total"]
		sheds, okS := ctrs["qd_router_sheds_total"]
		if !okJ && !okS {
			return
		}
		flag := ""
		if prev != nil && sheds > prev.stats.Metrics.Counters["qd_router_sheds_total"] {
			flag = "  [OVERLOAD]"
		}
		fmt.Fprintf(b, "admission: %d knn single-flight joins, %d shard sheds observed%s\n", joins, sheds, flag)
		return
	}
	sheds, ok := ctrs["qd_sched_shed_total"]
	if !ok {
		return
	}
	gs := s.stats.Metrics.Gauges
	depth := gs["qd_sched_queue_depth"]
	overload := depth > 0
	if prev != nil && sheds > prev.stats.Metrics.Counters["qd_sched_shed_total"] {
		overload = true
	}
	flag := ""
	if overload {
		flag = "  [OVERLOAD]"
	}
	fmt.Fprintf(b, "admission: queue %d, inflight %d, %d shed, %d queued-deadline%s\n",
		depth, gs["qd_sched_inflight"], sheds, ctrs["qd_sched_deadline_queued_total"], flag)
}

// render lays out one frame. prev (the previous sample) turns cumulative
// request counters into a rate; nil renders "-" for QPS.
func render(s *sample, prev *sample, window string) string {
	var b strings.Builder
	title := "replica"
	if s.kind == kindRouter {
		title = "router"
	}
	fmt.Fprintf(&b, "qdstat — %s  %s\n", title, s.at.Format("15:04:05"))

	qps := "-"
	if prev != nil {
		dt := s.at.Sub(prev.at).Seconds()
		if dn := requestCount(s) - requestCount(prev); dt > 0 {
			qps = fmt.Sprintf("%.1f", float64(dn)/dt)
		}
	}
	switch s.kind {
	case kindRouter:
		fmt.Fprintf(&b, "fleet: %d shards, %d replicas, %d images (%s)   qps %s\n",
			s.build.Shards, s.build.Replicas, s.build.Images, s.build.Precision, qps)
	default:
		fmt.Fprintf(&b, "corpus: %d images (%s)   qps %s\n", s.build.Images, s.build.Precision, qps)
	}

	if s.build.Dynamic {
		tombRatio := 0.0
		if total := s.build.Images + s.build.Tombstones; total > 0 {
			tombRatio = float64(s.build.Tombstones) / float64(total)
		}
		compacting := ""
		if prev != nil && s.build.Compactions > prev.build.Compactions {
			compacting = "  [compacting]"
		}
		fmt.Fprintf(&b, "engine: epoch %d, %d segments, %d memtable rows, tombstones %.1f%%, %d seals, %d compactions%s\n",
			s.build.Epoch, s.build.Segments, s.build.MemRows, tombRatio*100,
			s.build.Seals, s.build.Compactions, compacting)
	}

	admissionLine(&b, s, prev)

	fmt.Fprintf(&b, "\nlatency (%s window)\n", window)
	fmt.Fprintf(&b, "  %-28s %8s  %9s %9s %9s\n", "digest", "count", "p50", "p95", "p99")
	digestRows(&b, s.lat.Digests, window, "  ")

	if s.kind == kindRouter {
		fmt.Fprintf(&b, "\nshards\n")
		for _, ss := range s.stats.Shards {
			live, total := 0, len(ss.Replicas)
			var reqs, errs uint64
			for _, rep := range ss.Replicas {
				if rep.Alive {
					live++
				}
				reqs += rep.Requests
				errs += rep.Errors
			}
			health := "up"
			switch {
			case live == 0:
				health = "DOWN"
			case live < total:
				health = "degraded"
			}
			p99 := "-"
			if s.fleet != nil {
				for _, fs := range s.fleet.Shards {
					if fs.Shard != ss.Shard {
						continue
					}
					// The replica's own view of its query endpoint.
					if st, ok := fs.Digests["endpoint:/v1/shard/search"][window]; ok && st.Count > 0 {
						p99 = fmtDur(st.P99)
					}
				}
			}
			fmt.Fprintf(&b, "  shard %-3d %-9s %d/%d replicas  %8d reqs  %5d errs  search p99 %s\n",
				ss.Shard, health, live, total, reqs, errs, p99)
		}
		if s.fleet != nil && len(s.fleet.Errors) > 0 {
			fmt.Fprintf(&b, "  scrape errors: %d (first: %s)\n", len(s.fleet.Errors), s.fleet.Errors[0])
		}
	}

	if len(s.slow) > 0 {
		fmt.Fprintf(&b, "\nslowest requests\n")
		n := len(s.slow)
		if n > 5 {
			n = 5
		}
		for _, q := range s.slow[:n] {
			trace := ""
			if q.TraceID != 0 {
				trace = fmt.Sprintf("  trace %d", q.TraceID)
			}
			fmt.Fprintf(&b, "  %9s  %-24s %3d  %s%s\n",
				fmtDur(float64(q.DurationNS)/1e9), q.Endpoint, q.Status, q.RequestID, trace)
		}
	}
	return b.String()
}
