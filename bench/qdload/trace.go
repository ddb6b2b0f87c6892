package main

// The traced pass records one span per call into a layer's public entry:
// {name, op, parent, start, end}, kept in memory and written once at exit as
// Chrome/Perfetto trace-event JSON — the same format the servers'
// /v1/traces?format=perfetto emits, so both load side by side.
//
// The boundaries of one op are called one after another on the same inputs,
// from the outermost (the HTTP round trip) inward (the kernel sweep), not
// nested in real time; `parent` carries the logical nesting. A layer's self
// time is its boundary's duration minus its children's (selfTimes).

import (
	"encoding/json"
	"os"
	"time"
)

type span struct {
	name   string
	layer  string
	op     int
	parent int // index into tracer.spans; -1 for an op's outermost boundary, offPath for a span outside every sum
	start  time.Duration
	dur    time.Duration
}

type tracer struct {
	t0    time.Time
	spans []span
	off   bool // measure the same calls without recording (trace.overhead_frac)
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// call times f as one boundary of op and returns the span's index and
// duration. With the tracer off it still times f but records nothing.
func (t *tracer) call(layer, name string, op, parent int, f func()) (int, time.Duration) {
	start := time.Now()
	f()
	d := time.Since(start)
	if t.off {
		return -1, d
	}
	t.spans = append(t.spans, span{name: name, layer: layer, op: op, parent: parent, start: start.Sub(t.t0), dur: d})
	return len(t.spans) - 1, d
}

// add records a span measured elsewhere (an HTTP op timed by a recorder).
func (t *tracer) add(layer, name string, op, parent int, start time.Time, dur time.Duration) int {
	t.spans = append(t.spans, span{name: name, layer: layer, op: op, parent: parent, start: start.Sub(t.t0), dur: dur})
	return len(t.spans) - 1
}

// selfTimes sums, per layer, each on-path span's duration minus its direct
// children's, floored at zero. Nothing is rescaled: where the children of a
// span (measured by calling them again, one after another) took longer than
// the span itself, its self time is zero and the excess stays in the sum, so
// sum over the layers exceeds total by exactly the time the chain fails to
// account for. finishLayers reports that ratio as trace.self_sum_frac.
func (t *tracer) selfTimes() (byLayer map[string]time.Duration, total time.Duration) {
	kids := make([]time.Duration, len(t.spans))
	onPath := make([]bool, len(t.spans))
	for i, s := range t.spans { // a span's parent is always recorded before it
		switch {
		case s.parent == -1: // an op's outermost boundary
			onPath[i] = true
			total += s.dur
		case s.parent >= 0 && onPath[s.parent]:
			onPath[i] = true
			kids[s.parent] += s.dur
		}
	}
	byLayer = map[string]time.Duration{}
	for i, s := range t.spans {
		if onPath[i] && s.dur > kids[i] {
			byLayer[s.layer] += s.dur - kids[i]
		}
	}
	return byLayer, total
}

// writePerfetto flushes the spans as trace-event JSON ("X" complete events,
// microsecond timestamps, one track per layer).
func (t *tracer) writePerfetto(path string) error {
	type event struct {
		Name string                 `json:"name"`
		Cat  string                 `json:"cat"`
		Ph   string                 `json:"ph"`
		TS   float64                `json:"ts"`
		Dur  float64                `json:"dur"`
		PID  int                    `json:"pid"`
		TID  int                    `json:"tid"`
		Args map[string]interface{} `json:"args"`
	}
	tids := map[string]int{}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		tid, ok := tids[s.layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.layer] = tid
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
			PID: 1, TID: tid,
			Args: map[string]interface{}{"span": i, "op": s.op, "parent": s.parent},
		})
	}
	raw, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
