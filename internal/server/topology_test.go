package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime"
	"testing"

	"qdcbir/internal/shard"
)

// TestShardTopologyBody: /v1/shard/topology, written one node at a time, is
// byte for byte what json.NewEncoder(w).Encode(topo) writes — the body the
// router decodes and the cluster smoke pipes through jq.
func TestShardTopologyBody(t *testing.T) {
	rep, _, ts := newShardServer(t)
	resp, err := http.Get(ts.URL + "/v1/shard/topology")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(rep.Topo()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("streamed topology (%d bytes) differs from the encoder's (%d bytes)", len(got), want.Len())
	}
}

// TestWriteTopologyMatchesEncoder covers the shapes a served table may not
// show: no nodes, an empty node list, labels the encoder escapes, and
// extreme finite floats.
func TestWriteTopologyMatchesEncoder(t *testing.T) {
	nodes := []shard.NodeInfo{
		{ID: 7, Parent: -1, Size: 3, Center: []float64{0, -0.5, math.MaxFloat64, 5e-324, 1e21}, Diag: 1.25, Reps: []int{1, 2}},
		{ID: 9, Parent: 0, Leaf: true, Size: 2, Center: []float64{1e-7, -3}, Reps: []int{1, 2}, RepLabels: []string{"<a&b>", "ü \"x\""}},
		{ID: 11, Parent: 0, Leaf: true, Size: 1, Center: nil},
	}
	for name, topo := range map[string]*shard.Topology{
		"nil":   {},
		"empty": {Nodes: []shard.NodeInfo{}},
		"one":   {Nodes: nodes[:1]},
		"three": {Nodes: nodes},
	} {
		var got, want bytes.Buffer
		if err := writeTopology(&got, topo); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&want).Encode(topo); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: wrote %q, encoder %q", name, got.Bytes(), want.Bytes())
		}
	}
}

// TestWriteTopologyAllocs: sending a 512-d table allocates a small part of
// the body, not the body: a replica need not hold the megabytes of JSON at
// once to serve the router's start-up fetch.
func TestWriteTopologyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	topo := &shard.Topology{}
	for i := 0; i < 200; i++ {
		c := make([]float64, 512)
		for j := range c {
			c[j] = math.Sin(float64(i*512+j)) / 3
		}
		topo.Nodes = append(topo.Nodes, shard.NodeInfo{ID: uint64(i), Parent: i - 1, Size: 1, Center: c, Diag: 1})
	}
	var body countWriter
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := writeTopology(&body, topo); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d-byte body, %d bytes allocated", body, alloc)
	if alloc > uint64(body)/8 {
		t.Fatalf("allocated %d bytes for a %d-byte body", alloc, body)
	}
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
