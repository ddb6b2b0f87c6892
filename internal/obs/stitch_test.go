package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestRemoteRecorderNilSafe(t *testing.T) {
	var rec *RemoteRecorder
	rec.Span("x", time.Now(), nil) // must not panic
	if rec.Trace() != nil {
		t.Fatal("nil recorder must yield nil trace")
	}
}

func TestRemoteRecorderOffsets(t *testing.T) {
	rec := NewRemoteRecorder()
	start := time.Now()
	rec.Span("work", start, map[string]int64{"k": 5})
	tr := rec.Trace()
	if tr == nil || len(tr.Spans) != 1 {
		t.Fatalf("trace: %+v", tr)
	}
	sp := tr.Spans[0]
	if sp.Name != "work" || sp.OffsetNS < 0 || sp.DurationNS < 0 {
		t.Fatalf("span: %+v", sp)
	}
	if tr.DurationNS < sp.OffsetNS+sp.DurationNS {
		t.Fatalf("trace duration %d shorter than its span end %d", tr.DurationNS, sp.OffsetNS+sp.DurationNS)
	}
}

func TestStitchNilSafe(t *testing.T) {
	var st *Stitch
	st.Span("a", 0, 1, nil)
	st.RPC(0, "b", 0, 1, &RemoteTrace{DurationNS: 1})
	if st.RequestID() != "" || st.Since() != 0 {
		t.Fatal("nil stitch accessors must zero")
	}
	if st.ShardBreakdown() != nil || st.Finish(nil) != nil {
		t.Fatal("nil stitch must finish to nil")
	}
}

// TestStitchRPCRebase checks the clock-skew-free re-basing: shard child spans
// land centered inside the RPC window, and spans that would overrun it clamp
// — nesting holds by construction.
func TestStitchRPCRebase(t *testing.T) {
	st := NewStitch(1, "req-1", "knn", 4)
	const (
		rpcOff = int64(1_000_000)  // RPC starts 1ms into the trace
		rpcDur = int64(10_000_000) // and lasts 10ms
	)
	remote := &RemoteTrace{
		DurationNS: 6_000_000, // shard-side handling: 6ms → 4ms slack, 2ms each side
		Spans: []RemoteSpan{
			{Name: "search", OffsetNS: 0, DurationNS: 2_000_000, Args: map[string]int64{"k": 50, "scanned": 6685}},
			{Name: "overrun", OffsetNS: 10_000_000, DurationNS: 10_000_000},
		},
	}
	st.RPC(2, "POST /v1/shard/search", rpcOff, rpcDur, remote)
	done := st.Finish(nil)
	if len(done.Spans) != 3 {
		t.Fatalf("want RPC + 2 children, got %d spans", len(done.Spans))
	}
	rpc := done.Spans[0]
	if rpc.Track != 3 {
		t.Fatalf("shard 2 must draw on track 3, got %d", rpc.Track)
	}
	if rpc.Args["shard"] != 2 {
		t.Fatalf("rpc args: %+v", rpc.Args)
	}
	child := done.Spans[1]
	if child.Name != "search" || child.Track != 3 {
		t.Fatalf("child: %+v", child)
	}
	// The shard's integer args widen into the stitched span's map, unchanged.
	if len(child.Args) != 2 || child.Args["k"] != int64(50) || child.Args["scanned"] != int64(6685) {
		t.Fatalf("child args: %+v", child.Args)
	}
	// slack/2 = 2ms centering: child offset = 1ms + 2ms + 0.
	if child.OffsetNS != rpcOff+2_000_000 {
		t.Fatalf("child offset %d, want %d", child.OffsetNS, rpcOff+2_000_000)
	}
	end := rpcOff + rpcDur
	over := done.Spans[2]
	if over.OffsetNS > end || over.OffsetNS+over.DurationNS > end {
		t.Fatalf("overrunning child escaped the RPC window: %+v (end %d)", over, end)
	}
	for _, sp := range done.Spans {
		if sp.OffsetNS < rpcOff {
			t.Fatalf("span %q precedes its RPC window: %+v", sp.Name, sp)
		}
	}
}

func TestStitchShardBreakdown(t *testing.T) {
	st := NewStitch(9, "req-9", "query", 2)
	st.Span("fan-out", 0, 9_000_000, nil)
	st.RPC(0, "POST /v1/shard/search", 0, 4_000_000, nil)
	st.RPC(0, "POST /v1/shard/points", 4_000_000, 2_000_000, nil)
	st.RPC(1, "POST /v1/shard/search", 0, 8_000_000, &RemoteTrace{
		DurationNS: 7_000_000,
		Spans:      []RemoteSpan{{Name: "search", OffsetNS: 0, DurationNS: 7_000_000}},
	})
	legs := st.ShardBreakdown()
	if len(legs) != 2 {
		t.Fatalf("legs: %+v", legs)
	}
	byShard := map[int]ShardLeg{}
	for _, l := range legs {
		byShard[l.Shard] = l
	}
	if l := byShard[0]; l.Calls != 2 || l.TotalNS != 6_000_000 || l.SlowestNS != 4_000_000 {
		t.Fatalf("shard 0 leg: %+v", l)
	}
	// Shard 1's reported child span must not double-count into the RPC total.
	if l := byShard[1]; l.Calls != 1 || l.TotalNS != 8_000_000 {
		t.Fatalf("shard 1 leg: %+v", l)
	}
}

func TestStitchFinishError(t *testing.T) {
	st := NewStitch(3, "req-3", "query", 1)
	done := st.Finish(errTest)
	if done.Error != "boom" || done.RequestID != "req-3" || done.Shards != 1 {
		t.Fatalf("stitched: %+v", done)
	}
	if done.DurationNS < 0 {
		t.Fatalf("negative duration: %d", done.DurationNS)
	}
}

var errTest = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestStitchRingEvictionAndOrder(t *testing.T) {
	r := NewStitchRing(2)
	r.Add(nil) // ignored
	for i := uint64(1); i <= 3; i++ {
		r.Add(&Stitched{ID: i})
	}
	got := r.Snapshot(0)
	if len(got) != 2 || got[0].ID != 3 || got[1].ID != 2 {
		t.Fatalf("ring snapshot: %+v", got)
	}
	if lim := r.Snapshot(1); len(lim) != 1 || lim[0].ID != 3 {
		t.Fatalf("limited snapshot: %+v", lim)
	}
	var nilRing *StitchRing
	nilRing.Add(&Stitched{})
	if nilRing.Snapshot(0) != nil {
		t.Fatal("nil ring must be inert")
	}
}

// stitchedFixture is a deterministic 2-shard trace for the export golden
// checks: a root, router-side fan-out and merge, one RPC per shard with one
// child each.
func stitchedFixture() *Stitched {
	return &Stitched{
		ID:         42,
		RequestID:  "rt-7",
		Kind:       "knn",
		Start:      time.Unix(1000, 0),
		DurationNS: 20_000_000,
		Shards:     2,
		Spans: []StitchSpan{
			{Name: "fan-out", Track: 0, OffsetNS: 1_000_000, DurationNS: 15_000_000},
			{Name: "POST /v1/shard/search", Track: 1, OffsetNS: 2_000_000, DurationNS: 10_000_000, Args: map[string]any{"shard": 0}},
			{Name: "search", Track: 1, OffsetNS: 3_000_000, DurationNS: 8_000_000},
			{Name: "POST /v1/shard/search", Track: 2, OffsetNS: 2_000_000, DurationNS: 13_000_000, Args: map[string]any{"shard": 1}},
			{Name: "search", Track: 2, OffsetNS: 4_000_000, DurationNS: 9_000_000},
			{Name: "merge", Track: 0, OffsetNS: 16_000_000, DurationNS: 1_000_000},
		},
	}
}

// TestPerfettoStitchedExport checks the trace-event output end to end:
// process/thread metadata, per-shard track naming, span nesting by time
// containment, and monotone timestamps relative to the trace base.
func TestPerfettoStitchedExport(t *testing.T) {
	events := PerfettoStitchedEvents([]*Stitched{stitchedFixture()})
	base := float64(time.Unix(1000, 0).UnixNano()) / 1e3

	threadNames := map[uint64]string{}
	var spans []TraceEvent
	var root *TraceEvent
	for i := range events {
		ev := events[i]
		if ev.PID != 42 {
			t.Fatalf("event on wrong pid: %+v", ev)
		}
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				threadNames[ev.TID] = ev.Args["name"].(string)
			}
		case "X":
			if ev.Name == "routed knn" {
				root = &events[i]
			}
			spans = append(spans, ev)
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if root == nil {
		t.Fatal("no root span")
	}
	if root.Args["request_id"] != "rt-7" {
		t.Fatalf("root args: %+v", root.Args)
	}
	if threadNames[0] != "router" || threadNames[1] != "shard 0" || threadNames[2] != "shard 1" {
		t.Fatalf("track names: %+v", threadNames)
	}
	rootEnd := root.TS + root.Dur
	for _, sp := range spans {
		if sp.TS < base {
			t.Fatalf("span %q precedes trace base: ts %v < %v", sp.Name, sp.TS, base)
		}
		if sp.TS < root.TS || sp.TS+sp.Dur > rootEnd {
			t.Fatalf("span %q escapes the root: %+v", sp.Name, sp)
		}
	}
	// Shard child spans nest inside their RPC span on the same track.
	byTrack := map[uint64][]TraceEvent{}
	for _, sp := range spans {
		byTrack[sp.TID] = append(byTrack[sp.TID], sp)
	}
	for _, tid := range []uint64{1, 2} {
		tr := byTrack[tid]
		if len(tr) != 2 {
			t.Fatalf("track %d: want RPC + child, got %d spans", tid, len(tr))
		}
		rpc, child := tr[0], tr[1]
		if child.TS < rpc.TS || child.TS+child.Dur > rpc.TS+rpc.Dur {
			t.Fatalf("track %d child %q escapes its RPC: rpc=%+v child=%+v", tid, child.Name, rpc, child)
		}
	}
}

// TestWritePerfettoStitchedDegenerate: empty and nil inputs must still emit a
// loadable trace-event file, and nil traces inside the slice are skipped.
func TestWritePerfettoStitchedDegenerate(t *testing.T) {
	for _, traces := range [][]*Stitched{nil, {}, {nil}} {
		var buf bytes.Buffer
		if err := WritePerfettoStitched(&buf, traces); err != nil {
			t.Fatalf("write: %v", err)
		}
		var f TraceEventFile
		if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
			t.Fatalf("output not valid JSON: %v", err)
		}
		if f.TraceEvents == nil {
			t.Fatal("traceEvents must be [], not null")
		}
		if len(f.TraceEvents) != 0 {
			t.Fatalf("degenerate input produced events: %+v", f.TraceEvents)
		}
	}
}

func TestSlowLogOrderingAndCap(t *testing.T) {
	l := NewSlowLog(3)
	for _, d := range []int64{50, 10, 90, 30, 70} {
		l.Record(SlowQuery{RequestID: "r", DurationNS: d})
	}
	got := l.Slowest()
	if len(got) != 3 {
		t.Fatalf("cap not enforced: %d entries", len(got))
	}
	if got[0].DurationNS != 90 || got[1].DurationNS != 70 || got[2].DurationNS != 50 {
		t.Fatalf("not slowest-first: %+v", got)
	}
	var nilLog *SlowLog
	nilLog.Record(SlowQuery{})
	if nilLog.Slowest() != nil {
		t.Fatal("nil log must be inert")
	}
}
