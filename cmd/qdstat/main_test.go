package main

import (
	"strings"
	"testing"
	"time"

	"qdcbir/internal/obs"
)

func routerSample(at time.Time, requests uint64) *sample {
	return &sample{
		kind: kindRouter,
		at:   at,
		build: buildInfoBody{
			Images: 600, Shards: 3, Replicas: 4, Precision: "f32",
		},
		stats: statsBody{
			Metrics: obs.Snapshot{
				Counters: map[string]uint64{
					"qd_router_requests_total":     requests,
					"qd_router_singleflight_total": 12,
					"qd_router_sheds_total":        requests / 50, // advances with load
				},
			},
			Shards: []shardStatus{
				{Shard: 0, Replicas: []struct {
					URL      string `json:"url"`
					Alive    bool   `json:"alive"`
					Requests uint64 `json:"requests"`
					Errors   uint64 `json:"errors"`
				}{
					{URL: "http://a", Alive: true, Requests: 40},
					{URL: "http://b", Alive: false, Requests: 2, Errors: 2},
				}},
				{Shard: 1, Replicas: []struct {
					URL      string `json:"url"`
					Alive    bool   `json:"alive"`
					Requests uint64 `json:"requests"`
					Errors   uint64 `json:"errors"`
				}{
					{URL: "http://c", Alive: true, Requests: 41},
				}},
			},
		},
		lat: latencyBody{
			Windows: []string{"1m", "5m", "15m"},
			Digests: obs.LatencyReport{
				"endpoint:/v1/knn": {
					"1m": {Count: 120, P50: 0.0021, P95: 0.0093, P99: 0.0147},
				},
				"router:fanout": {
					"1m": {Count: 120, P50: 0.0004, P95: 0.0011, P99: 0.0019},
				},
				"quiet:digest": {
					"1m": {Count: 0},
				},
			},
		},
		fleet: &fleetLatencyBody{
			Replicas: 3,
			Errors:   []string{"http://b: connection refused"},
			Shards: []struct {
				Shard   int               `json:"shard"`
				Digests obs.LatencyReport `json:"digests"`
			}{
				{Shard: 0, Digests: obs.LatencyReport{
					"endpoint:/v1/shard/search": {"1m": {Count: 40, P99: 0.0042}},
				}},
			},
		},
		slow: []obs.SlowQuery{
			{RequestID: "rt-9", Endpoint: "/v1/query", Status: 200, DurationNS: 31_500_000, TraceID: 7},
		},
	}
}

// TestRenderRouterFrame pins the operator-facing layout: fleet header with a
// QPS computed from counter deltas, the latency table with empty digests
// skipped, per-shard health with degraded detection and fleet-scraped p99,
// scrape-error surfacing, and the slow-request tail with trace references.
func TestRenderRouterFrame(t *testing.T) {
	now := time.Now()
	prev := routerSample(now.Add(-2*time.Second), 100)
	cur := routerSample(now, 150)

	frame := render(cur, prev, "1m")
	for _, want := range []string{
		"qdstat — router",
		"fleet: 3 shards, 4 replicas, 600 images (f32)   qps 25.0",
		"endpoint:/v1/knn",
		"router:fanout",
		"admission: 12 knn single-flight joins, 3 shard sheds observed  [OVERLOAD]",
		"shard 0   degraded  1/2 replicas",
		"search p99 4.2ms",
		"shard 1   up        1/1 replicas",
		"scrape errors: 1 (first: http://b: connection refused)",
		"slowest requests",
		"/v1/query",
		"trace 7",
	} {
		if !strings.Contains(frame, want) {
			t.Fatalf("frame missing %q:\n%s", want, frame)
		}
	}
	if strings.Contains(frame, "quiet:digest") {
		t.Fatalf("empty digest rendered:\n%s", frame)
	}
	// First frame has no previous sample: the rate renders as "-".
	first := render(cur, nil, "1m")
	if !strings.Contains(first, "qps -") {
		t.Fatalf("first frame must show no rate:\n%s", first)
	}
}

// TestRenderDynamicEngineLine pins the segmented-engine line a dynamic replica
// adds: epoch, segment count, memtable rows, tombstone ratio, and the
// [compacting] flag derived from the compaction-counter delta.
func TestRenderDynamicEngineLine(t *testing.T) {
	mk := func(compactions uint64) *sample {
		return &sample{
			kind: kindServer,
			at:   time.Now(),
			build: buildInfoBody{
				Images: 900, Precision: "f32",
				Dynamic: true, Epoch: 12, Segments: 5, MemRows: 137,
				Tombstones: 100, Seals: 9, Compactions: compactions,
			},
			stats: statsBody{Metrics: obs.Snapshot{
				Counters: map[string]uint64{"qd_http_requests_total": 10},
			}},
		}
	}
	prev, cur := mk(3), mk(4)
	frame := render(cur, prev, "1m")
	for _, want := range []string{
		"qdstat — replica",
		"corpus: 900 images (f32)",
		"engine: epoch 12, 5 segments, 137 memtable rows, tombstones 10.0%, 9 seals, 4 compactions  [compacting]",
	} {
		if !strings.Contains(frame, want) {
			t.Fatalf("frame missing %q:\n%s", want, frame)
		}
	}
	// No compaction delta → flag absent.
	if steady := render(cur, mk(4), "1m"); strings.Contains(steady, "[compacting]") {
		t.Fatalf("steady frame flagged compacting:\n%s", steady)
	}
}

// TestRenderAdmissionLine pins the replica-side scheduler view: queue depth
// and inflight gauges, shed/deadline counters, and the [OVERLOAD] flag
// raised by a shed delta or a non-empty queue — and absent entirely on
// replicas without a scheduler.
func TestRenderAdmissionLine(t *testing.T) {
	mk := func(sheds uint64, depth int64) *sample {
		return &sample{
			kind:  kindServer,
			at:    time.Now(),
			build: buildInfoBody{Images: 500, Precision: "f64"},
			stats: statsBody{Metrics: obs.Snapshot{
				Counters: map[string]uint64{
					"qd_http_requests_total":         10,
					"qd_sched_shed_total":            sheds,
					"qd_sched_deadline_queued_total": 2,
				},
				Gauges: map[string]int64{
					"qd_sched_queue_depth": depth,
					"qd_sched_inflight":    4,
				},
			}},
		}
	}
	frame := render(mk(8, 0), mk(5, 0), "1m")
	want := "admission: queue 0, inflight 4, 8 shed, 2 queued-deadline  [OVERLOAD]"
	if !strings.Contains(frame, want) {
		t.Fatalf("frame missing %q:\n%s", want, frame)
	}
	// Steady state (no shed delta, empty queue): no flag.
	if steady := render(mk(8, 0), mk(8, 0), "1m"); strings.Contains(steady, "[OVERLOAD]") {
		t.Fatalf("steady frame flagged overload:\n%s", steady)
	}
	// A non-empty queue alone raises the flag.
	if queued := render(mk(8, 3), mk(8, 0), "1m"); !strings.Contains(queued, "queue 3") || !strings.Contains(queued, "[OVERLOAD]") {
		t.Fatalf("queued frame missing flag:\n%s", queued)
	}
	// No scheduler metrics → no admission line.
	plain := &sample{kind: kindServer, at: time.Now(), stats: statsBody{Metrics: obs.Snapshot{
		Counters: map[string]uint64{"qd_http_requests_total": 10},
	}}}
	if f := render(plain, nil, "1m"); strings.Contains(f, "admission:") {
		t.Fatalf("scheduler-less frame rendered admission line:\n%s", f)
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[float64]string{
		0:        "-",
		0.000045: "45µs",
		0.0042:   "4.2ms",
		1.53:     "1.53s",
	}
	for in, want := range cases {
		if got := fmtDur(in); got != want {
			t.Fatalf("fmtDur(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRequestCount(t *testing.T) {
	s := &sample{kind: kindRouter, stats: statsBody{Metrics: obs.Snapshot{
		Counters: map[string]uint64{
			"qd_router_requests_total": 7,
			"qd_http_requests_total":   99,
		},
	}}}
	if got := requestCount(s); got != 7 {
		t.Fatalf("router counter: %d", got)
	}
	s.kind = kindServer
	if got := requestCount(s); got != 99 {
		t.Fatalf("server counter: %d", got)
	}
}
