package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// This file renders retained traces in the Chrome trace-event JSON format,
// which Perfetto (ui.perfetto.dev) and chrome://tracing open directly. Each
// trace becomes one process (pid = trace ID): the strictly nested spans —
// session, feedback rounds, finalize, merge — share the main track (tid 0),
// where complete ("X") events nest by time containment, while the finalize
// phase's localized subqueries each get their own thread track because they
// run in parallel and would otherwise partially overlap as siblings. The
// span offsets recorded by the engine (OffsetNS fields, relative to the
// trace start) become absolute microsecond timestamps.

// TraceEvent is one Chrome trace-event record. Only the fields the complete
// ("X") and metadata ("M") phases need are modeled.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds, "X" only
	PID  uint64         `json:"pid"`
	TID  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceEventFile is the JSON-object form of the trace-event format.
type TraceEventFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// mainTID is the per-trace track holding the strictly nested spans.
const mainTID = 0

// us converts nanoseconds to trace-event microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// PerfettoEvents converts retained traces to trace-event records.
func PerfettoEvents(traces []*Trace) []TraceEvent {
	var events []TraceEvent
	for _, t := range traces {
		if t == nil {
			continue
		}
		base := t.Start.UnixNano()
		label := t.Kind + " #" + strconv.FormatUint(t.ID, 10)
		if t.Label != "" {
			label += " (" + t.Label + ")"
		}
		events = append(events, TraceEvent{
			Name: "process_name", Ph: "M", PID: t.ID, TID: mainTID,
			Args: map[string]any{"name": label},
		})
		events = append(events, TraceEvent{
			Name: t.Kind, Cat: "query", Ph: "X",
			TS: us(base), Dur: us(t.DurationNS), PID: t.ID, TID: mainTID,
			Args: map[string]any{"id": t.ID, "label": t.Label, "rounds": len(t.Rounds)},
		})
		for _, r := range t.Rounds {
			events = append(events, TraceEvent{
				Name: fmt.Sprintf("round %d", r.Round), Cat: "feedback", Ph: "X",
				TS: us(base + r.OffsetNS), Dur: us(r.DurationNS), PID: t.ID, TID: mainTID,
				Args: map[string]any{
					"marked": r.Marked, "relevant": r.Relevant,
					"subqueries": r.Subqueries, "reps_displayed": r.RepsDisplayed,
					"page_reads": r.PageReads,
				},
			})
		}
		if f := t.Finalize; f != nil {
			events = append(events, TraceEvent{
				Name: "finalize", Cat: "finalize", Ph: "X",
				TS: us(base + f.OffsetNS), Dur: us(f.DurationNS), PID: t.ID, TID: mainTID,
				Args: map[string]any{
					"k": f.K, "subqueries": f.Subqueries, "expansions": f.Expansions,
					"page_reads": f.PageReads, "heap_pops": f.HeapPops,
				},
			})
			for i, sq := range f.Subspans {
				tid := uint64(i + 1) // one track per parallel subquery
				events = append(events, TraceEvent{
					Name: "thread_name", Ph: "M", PID: t.ID, TID: tid,
					Args: map[string]any{"name": fmt.Sprintf("subquery %d", i+1)},
				})
				events = append(events, TraceEvent{
					Name: fmt.Sprintf("subquery node=%d", sq.Node), Cat: "subquery", Ph: "X",
					TS: us(base + sq.OffsetNS), Dur: us(sq.DurationNS), PID: t.ID, TID: tid,
					Args: map[string]any{
						"query_images": sq.QueryImages, "allocated": sq.Allocated,
						"expanded": sq.Expanded, "heap_pops": sq.HeapPops,
						"nodes_read": sq.NodesRead, "page_accesses": sq.PageAccesses,
						"quantized": sq.Quantized, "codes_scanned": sq.CodesScanned,
						"reranked": sq.Reranked, "rerank_fallbacks": sq.RerankFallbacks,
					},
				})
			}
			events = append(events, TraceEvent{
				Name: "merge", Cat: "finalize", Ph: "X",
				TS: us(base + f.MergeOffsetNS), Dur: us(f.MergeNS), PID: t.ID, TID: mainTID,
			})
		}
	}
	return events
}

// WritePerfetto writes the traces as a Chrome/Perfetto trace-event JSON
// object, loadable as-is by ui.perfetto.dev or chrome://tracing.
func WritePerfetto(w io.Writer, traces []*Trace) error {
	events := PerfettoEvents(traces)
	if events == nil {
		events = []TraceEvent{}
	}
	return json.NewEncoder(w).Encode(TraceEventFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// PerfettoStitchedEvents converts stitched cross-process traces to
// trace-event records. Each trace is one process (pid = trace ID) whose
// threads are the participating processes: tid 0 is the router's track, tid
// s+1 is shard s's. Span offsets are already on one clock (the router's), so
// nesting within a track is plain time containment, as in the single-node
// export.
func PerfettoStitchedEvents(traces []*Stitched) []TraceEvent {
	var events []TraceEvent
	for _, t := range traces {
		if t == nil {
			continue
		}
		base := t.Start.UnixNano()
		label := "routed " + t.Kind + " (" + t.RequestID + ")"
		events = append(events, TraceEvent{
			Name: "process_name", Ph: "M", PID: t.ID, TID: mainTID,
			Args: map[string]any{"name": label},
		})
		rootArgs := map[string]any{"request_id": t.RequestID, "shards": t.Shards}
		if t.Error != "" {
			rootArgs["error"] = t.Error
		}
		events = append(events, TraceEvent{
			Name: "routed " + t.Kind, Cat: "router", Ph: "X",
			TS: us(base), Dur: us(t.DurationNS), PID: t.ID, TID: mainTID,
			Args: rootArgs,
		})
		named := map[int]bool{0: true}
		events = append(events, TraceEvent{
			Name: "thread_name", Ph: "M", PID: t.ID, TID: mainTID,
			Args: map[string]any{"name": trackName(0)},
		})
		for _, sp := range t.Spans {
			tid := uint64(sp.Track)
			if !named[sp.Track] {
				named[sp.Track] = true
				events = append(events, TraceEvent{
					Name: "thread_name", Ph: "M", PID: t.ID, TID: tid,
					Args: map[string]any{"name": trackName(sp.Track)},
				})
			}
			cat := "router"
			if sp.Track > 0 {
				cat = "shard"
			}
			events = append(events, TraceEvent{
				Name: sp.Name, Cat: cat, Ph: "X",
				TS: us(base + sp.OffsetNS), Dur: us(sp.DurationNS), PID: t.ID, TID: tid,
				Args: sp.Args,
			})
		}
	}
	return events
}

// WritePerfettoStitched writes stitched traces in the Chrome/Perfetto
// trace-event JSON form.
func WritePerfettoStitched(w io.Writer, traces []*Stitched) error {
	events := PerfettoStitchedEvents(traces)
	if events == nil {
		events = []TraceEvent{}
	}
	return json.NewEncoder(w).Encode(TraceEventFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}
