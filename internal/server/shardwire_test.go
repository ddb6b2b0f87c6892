package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"qdcbir"
	"qdcbir/internal/core"
	"qdcbir/internal/obs"
	"qdcbir/internal/shard"
)

// newShardServer serves shard 0 of a two-way split of a small vector corpus.
func newShardServer(t *testing.T) (*shard.Replica, *qdcbir.System, *httptest.Server) {
	t.Helper()
	cfg := qdcbir.SmallConfig()
	cfg.VectorMode = true
	cfg.Images = 400
	cfg.Categories = 8
	sys, err := qdcbir.Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	archives, err := qdcbir.SliceShards(context.Background(), sys, 2)
	if err != nil {
		t.Fatalf("SliceShards: %v", err)
	}
	var buf bytes.Buffer
	if err := archives[0].Write(&buf); err != nil {
		t.Fatal(err)
	}
	rep, _, err := qdcbir.OpenShard(&buf)
	if err != nil {
		t.Fatalf("OpenShard: %v", err)
	}
	srv := NewShard(rep, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return rep, sys, ts
}

// post sends one body and returns status, content type and the raw reply.
func post(t *testing.T, url, contentType, accept string, body []byte, traced bool) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if traced {
		req.Header.Set(obs.TraceHeader, "t-1")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), raw
}

// spanShapes is the part of a trace two answers to one question share: each
// span's name and args, without its timing.
func spanShapes(tr *obs.RemoteTrace) []obs.RemoteSpan {
	out := make([]obs.RemoteSpan, len(tr.Spans))
	for i, sp := range tr.Spans {
		out[i] = obs.RemoteSpan{Name: sp.Name, Args: sp.Args}
	}
	return out
}

// searchOf frames a JSON search body as the one-search frame it stands for.
func searchOf(req ShardSearchRequest) []byte {
	return frameOf(AppendShardSearch(nil, &ShardSearchFrame{
		Weights:  req.Weights,
		Searches: []ShardSearch{{NodeID: req.NodeID, K: req.K, Query: req.Query}},
	}))
}

// TestShardSearchBinaryMatchesJSON: a one-search frame is answered byte for
// byte like its JSON form, weighted or not, and every neighbour names the
// label the shard holds for it. Asked by Accept, the reply is the neighbours
// frame, one list holding the JSON reply's ids and labels, with squared
// distances whose roots are the JSON distance bits and, traced, the same
// spans with the same args.
func TestShardSearchBinaryMatchesJSON(t *testing.T) {
	rep, sys, ts := newShardServer(t)
	dim := rep.Meta().Dim
	weights := make([]float64, dim)
	for i := range weights {
		weights[i] = float64(i%5) / 4
	}
	for _, req := range []ShardSearchRequest{
		{NodeID: rep.Topo().RootID(), Query: sys.Corpus().Vectors[17], K: 25},
		{NodeID: rep.Topo().RootID(), Query: sys.Corpus().Vectors[230], K: 7, Weights: weights},
		{NodeID: rep.Topo().RootID(), Query: sys.Corpus().Vectors[101], K: 50},
	} {
		asJSON, _ := json.Marshal(req)
		status, _, want := post(t, ts.URL+"/v1/shard/search", "application/json", "", asJSON, false)
		if status != http.StatusOK {
			t.Fatalf("JSON leg: HTTP %d (%s)", status, want)
		}
		status, _, got := post(t, ts.URL+"/v1/shard/search", ShardBinaryType, "", searchOf(req), false)
		if status != http.StatusOK {
			t.Fatalf("framed leg: HTTP %d (%s)", status, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("framed leg answered differently:\n  framed %s\n  json   %s", got, want)
		}
		var resp ShardSearchResponse
		if err := json.Unmarshal(got, &resp); err != nil || len(resp.Neighbors) != req.K {
			t.Fatalf("decode: %v (%d neighbours, want %d)", err, len(resp.Neighbors), req.K)
		}
		for _, n := range resp.Neighbors {
			if !rep.Owns(n.ID) || n.Label == "" || n.Label != sys.SubconceptOf(n.ID) {
				t.Fatalf("neighbour %d carries label %q, corpus says %q (owned: %v)", n.ID, n.Label, sys.SubconceptOf(n.ID), rep.Owns(n.ID))
			}
		}

		for _, traced := range []bool{false, true} {
			status, _, raw := post(t, ts.URL+"/v1/shard/search", "application/json", "", asJSON, traced)
			var plain ShardSearchResponse
			if err := json.Unmarshal(raw, &plain); status != http.StatusOK || err != nil {
				t.Fatalf("JSON leg traced=%v: HTTP %d, %v", traced, status, err)
			}
			status, ct, frame := post(t, ts.URL+"/v1/shard/search", ShardBinaryType, ShardBinaryType, searchOf(req), traced)
			if status != http.StatusOK || ct != ShardBinaryType {
				t.Fatalf("framed reply traced=%v: HTTP %d %q (%s)", traced, status, ct, frame)
			}
			framed, err := DecodeShardNeighbors(frame)
			if err != nil {
				t.Fatal(err)
			}
			if len(framed.Lists) != 1 || len(framed.Lists[0]) != len(plain.Neighbors) {
				t.Fatalf("%d framed lists, the first of %d neighbours; %d in JSON", len(framed.Lists), len(framed.Lists[0]), len(plain.Neighbors))
			}
			labels := 0
			for i, n := range framed.Lists[0] {
				w := plain.Neighbors[i]
				if n.ID != w.ID || n.Label != w.Label || math.Float64bits(math.Sqrt(n.DistSq)) != math.Float64bits(w.Dist) {
					t.Fatalf("neighbour %d: framed %+v, JSON %+v", i, n, w)
				}
				labels += len(n.Label)
			}
			if want := shardNeighborsHeader + shardListCount + shardNeighborRow*len(plain.Neighbors) + labels; !traced && len(frame) != want {
				t.Fatalf("untraced k=%d reply is %d bytes, want 8 + 4 + %d·20 + %d label bytes = %d", req.K, len(frame), req.K, labels, want)
			}
			if (framed.Trace != nil) != traced || (plain.Trace != nil) != traced {
				t.Fatalf("traced=%v: framed trace %v, JSON trace %v", traced, framed.Trace, plain.Trace)
			}
			if traced && !reflect.DeepEqual(spanShapes(framed.Trace), spanShapes(plain.Trace)) {
				t.Fatalf("framed spans %+v, JSON spans %+v", framed.Trace.Spans, plain.Trace.Spans)
			}
		}
	}
}

// TestShardSearchFrameAnswersEachSearch: a frame of several searches — other
// nodes, other ks, one weighting — is answered with one list per search, in
// frame order, each the list that search gets in a frame of its own, and a
// traced reply carries one search span per search. A JSON reply holds one
// list, so such a frame asked without Accept is refused.
func TestShardSearchFrameAnswersEachSearch(t *testing.T) {
	rep, sys, ts := newShardServer(t)
	topo := rep.Topo()
	weights := make([]float64, rep.Meta().Dim)
	for i := range weights {
		weights[i] = float64(i%3) / 2
	}
	for _, w := range [][]float64{nil, weights} {
		f := ShardSearchFrame{Weights: w}
		for i, node := range []int{0, 1, len(topo.Nodes) - 1, 0} {
			f.Searches = append(f.Searches, ShardSearch{NodeID: topo.Nodes[node].ID, K: 3 + 11*i, Query: sys.Corpus().Vectors[40*i+5]})
		}
		status, ct, raw := post(t, ts.URL+"/v1/shard/search", ShardBinaryType, ShardBinaryType, frameOf(AppendShardSearch(nil, &f)), true)
		if status != http.StatusOK || ct != ShardBinaryType {
			t.Fatalf("weighted=%v: HTTP %d %q (%s)", w != nil, status, ct, raw)
		}
		got, err := DecodeShardNeighbors(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Lists) != len(f.Searches) {
			t.Fatalf("%d lists for %d searches", len(got.Lists), len(f.Searches))
		}
		var spans []obs.RemoteSpan
		for i, sr := range f.Searches {
			one := f
			one.Searches = f.Searches[i : i+1]
			_, _, raw := post(t, ts.URL+"/v1/shard/search", ShardBinaryType, ShardBinaryType, frameOf(AppendShardSearch(nil, &one)), true)
			alone, err := DecodeShardNeighbors(raw)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Lists[i], alone.Lists[0]) {
				t.Fatalf("weighted=%v search %d (node %d, k %d): in the frame %+v, alone %+v", w != nil, i, sr.NodeID, sr.K, got.Lists[i], alone.Lists[0])
			}
			spans = append(spans, spanShapes(alone.Trace)...)
		}
		if !reflect.DeepEqual(spanShapes(got.Trace), spans) {
			t.Fatalf("frame spans %+v, want one per search %+v", got.Trace.Spans, spans)
		}

		status, _, raw = post(t, ts.URL+"/v1/shard/search", ShardBinaryType, "", frameOf(AppendShardSearch(nil, &f)), false)
		var e errorResponse
		if status != http.StatusBadRequest || json.Unmarshal(raw, &e) != nil || e.Code != ErrCodeShardFrame {
			t.Errorf("a %d-search frame asked for JSON: HTTP %d %s, want 400 code %s", len(f.Searches), status, raw, ErrCodeShardFrame)
		}
	}
}

// TestShardSearchSpanCountsFilterWork: a traced leg's search span says how
// many code rows the SQ8 filter read and how many rows were scored exactly. A
// weighted leg, which the filter cannot serve, reads no codes and scores its
// whole range.
func TestShardSearchSpanCountsFilterWork(t *testing.T) {
	rep, sys, ts := newShardServer(t)
	rows := int64(rep.Meta().LocalImages)
	weights := make([]float64, rep.Meta().Dim)
	for i := range weights {
		weights[i] = 1
	}
	for _, tc := range []struct {
		req      ShardSearchRequest
		filtered bool
	}{
		{ShardSearchRequest{NodeID: rep.Topo().RootID(), Query: sys.Corpus().Vectors[17], K: 10}, true},
		{ShardSearchRequest{NodeID: rep.Topo().RootID(), Query: sys.Corpus().Vectors[17], K: 10, Weights: weights}, false},
	} {
		status, _, raw := post(t, ts.URL+"/v1/shard/search", ShardBinaryType, "", searchOf(tc.req), true)
		var resp ShardSearchResponse
		if err := json.Unmarshal(raw, &resp); status != http.StatusOK || err != nil || resp.Trace == nil {
			t.Fatalf("traced leg: HTTP %d, %v (%s)", status, err, raw)
		}
		var args map[string]int64
		for _, sp := range resp.Trace.Spans {
			if sp.Name == "search" {
				args = sp.Args
			}
		}
		scanned, scored := args["scanned"], args["scored"]
		if tc.filtered && (scanned != rows || scored < int64(tc.req.K) || scored > rows) {
			t.Fatalf("filtered leg over %v rows: span args %v", rows, args)
		}
		if !tc.filtered && (scanned != 0 || scored != rows) {
			t.Fatalf("weighted leg over %v rows: span args %v", rows, args)
		}
	}
}

// readCounter counts the reads made of a request body.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestShardSearchRejectsBadBodies: a frame that disagrees with itself or the
// corpus is a structured 400, a body past the endpoint's bound a structured
// 413, in either form — never a panic, never a search over a partial query.
func TestShardSearchRejectsBadBodies(t *testing.T) {
	rep, sys, ts := newShardServer(t)
	dim := rep.Meta().Dim
	root := rep.Topo().RootID()
	good := searchOf(ShardSearchRequest{NodeID: root, Query: sys.Corpus().Vectors[3], K: 5})
	patchedIn := func(frame []byte, off int, v uint32) []byte {
		b := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	patched := func(off int, v uint32) []byte { return patchedIn(good, off, v) }
	q3, q4 := sys.Corpus().Vectors[3], sys.Corpus().Vectors[4]
	two := rawSearch(2, dim, nil, ShardSearch{NodeID: root, K: 5, Query: q3}, ShardSearch{NodeID: root, K: 7, Query: q4})
	var over []ShardSearch
	for i := 0; i <= MaxShardSearches; i++ {
		over = append(over, ShardSearch{NodeID: root, K: 1, Query: q3})
	}
	frames := map[string][]byte{
		"empty":            {},
		"short header":     good[:shardSearchHeader-1],
		"truncated":        good[:len(good)-1],
		"trailing":         append(append([]byte(nil), good...), 0),
		"no searches":      patched(0, 0),
		"count lies":       patched(0, 2),
		"over the cap":     rawSearch(MaxShardSearches+1, dim, nil, over...),
		"k zero":           patched(shardSearchHeader+8, 0),
		"k absurd":         patched(shardSearchHeader+8, math.MaxUint32),
		"second k zero":    patchedIn(two, shardSearchHeader+shardSearchFixed+8*dim+8, 0),
		"dim absurd":       patched(4, math.MaxUint32),
		"dim off":          patched(4, uint32(dim+1)),
		"half weights":     patched(8, uint32(dim/2)),
		"weights lie":      patched(8, uint32(dim)),
		"second too short": rawSearch(2, dim, nil, ShardSearch{NodeID: root, K: 5, Query: q3}, ShardSearch{NodeID: root, K: 7, Query: q4[1:]}),
	}
	if _, err := AppendShardSearch(nil, &ShardSearchFrame{Searches: over}); err == nil {
		t.Errorf("the encoder framed %d searches, past the cap of %d", len(over), MaxShardSearches)
	}
	for name, frame := range frames {
		status, _, raw := post(t, ts.URL+"/v1/shard/search", ShardBinaryType, "", frame, false)
		var e errorResponse
		if status != http.StatusBadRequest || json.Unmarshal(raw, &e) != nil || e.Code != ErrCodeShardFrame {
			t.Errorf("%s: HTTP %d %s, want 400 code %s", name, status, raw, ErrCodeShardFrame)
		}
	}
	huge := bytes.Repeat([]byte{' '}, int(shardSearchBodyLimit(dim))+1)
	for _, ct := range []string{ShardBinaryType, "application/json"} {
		status, _, raw := post(t, ts.URL+"/v1/shard/search", ct, "", huge, false)
		var e errorResponse
		if status != http.StatusRequestEntityTooLarge || json.Unmarshal(raw, &e) != nil || e.Code != ErrCodeBodyTooLarge {
			t.Errorf("oversized %s body: HTTP %d %s, want 413 code %s", ct, status, raw, ErrCodeBodyTooLarge)
		}
	}
	// A body that declares a gigabyte is refused from its header: the handler
	// neither reads it nor sizes a buffer by it.
	body := &readCounter{r: bytes.NewReader(good)}
	req := httptest.NewRequest(http.MethodPost, "/v1/shard/search", body)
	req.Header.Set("Content-Type", ShardBinaryType)
	req.ContentLength = 1 << 30
	rec := httptest.NewRecorder()
	ts.Config.Handler.ServeHTTP(rec, req)
	var e errorResponse
	if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Code != ErrCodeBodyTooLarge || body.reads != 0 {
		t.Errorf("1 GB declared over a %d-byte body: HTTP %d %s after %d reads, want 413 code %s and no read",
			len(good), rec.Code, rec.Body.Bytes(), body.reads, ErrCodeBodyTooLarge)
	}
	ids := bytes.Repeat([]byte("1,"), int(IDListBodyLimit(rep.Meta().Images)))
	status, _, raw := post(t, ts.URL+"/v1/shard/points", "application/json", "", append(append([]byte(`{"ids":[`), ids...), []byte("1]}")...), false)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized points request: HTTP %d %s, want 413", status, raw)
	}
}

// TestShardPointsBinaryMatchesJSON: asked by Accept, the points leg frames
// the same ids, leaves, vector bits and trace spans its JSON reply prints.
func TestShardPointsBinaryMatchesJSON(t *testing.T) {
	rep, _, ts := newShardServer(t)
	var ids []int
	for id := 0; len(ids) < 9; id++ {
		if rep.Owns(id) {
			ids = append(ids, id)
		}
	}
	ids = append(ids, 1<<30) // owned by nobody: silently omitted
	body, _ := json.Marshal(ShardPointsRequest{IDs: ids})
	for _, traced := range []bool{false, true} {
		status, ct, raw := post(t, ts.URL+"/v1/shard/points", "application/json", "", body, traced)
		if status != http.StatusOK || ct != "application/json" {
			t.Fatalf("JSON points: HTTP %d %q", status, ct)
		}
		var want ShardPointsResponse
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		status, ct, frame := post(t, ts.URL+"/v1/shard/points", "application/json", ShardBinaryType, body, traced)
		if status != http.StatusOK || ct != ShardBinaryType {
			t.Fatalf("framed points: HTTP %d %q", status, ct)
		}
		got, err := DecodeShardPoints(frame, rep.Meta().Dim)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Points) != 9 || len(want.Points) != 9 {
			t.Fatalf("%d framed / %d JSON points, want 9", len(got.Points), len(want.Points))
		}
		if wantLen := shardPointsHeader + 9*(16+8*rep.Meta().Dim); !traced && len(frame) != wantLen {
			t.Fatalf("untraced frame is %d bytes, want %d", len(frame), wantLen)
		}
		for i, p := range got.Points {
			w := want.Points[i]
			if p.ID != w.ID || p.Leaf != w.Leaf || !reflect.DeepEqual(p.Vec, w.Vec) {
				t.Fatalf("point %d: framed (%d, leaf %d) vs JSON (%d, leaf %d), vectors equal: %v",
					i, p.ID, p.Leaf, w.ID, w.Leaf, reflect.DeepEqual(p.Vec, w.Vec))
			}
		}
		if (got.Trace != nil) != traced || (want.Trace != nil) != traced {
			t.Fatalf("traced=%v: framed trace %v, JSON trace %v", traced, got.Trace, want.Trace)
		}
		if traced && !reflect.DeepEqual(spanShapes(got.Trace), spanShapes(want.Trace)) {
			t.Fatalf("framed trace %+v vs JSON %+v", got.Trace, want.Trace)
		}
		for _, bad := range [][]byte{frame[:len(frame)-1], append(append([]byte(nil), frame...), 0), frame[:5]} {
			if _, err := DecodeShardPoints(bad, rep.Meta().Dim); err == nil {
				t.Fatalf("decoder accepted a %d-byte cut of a %d-byte frame", len(bad), len(frame))
			}
		}
		if _, err := DecodeShardPoints(frame, rep.Meta().Dim+1); err == nil {
			t.Fatal("decoder accepted a frame of another dimension")
		}
	}
}

// rawSearch encodes a search frame as given, header counts included, with no
// check: the encoder refuses the shapes these frames test the decoder with.
func rawSearch(n uint32, dim int, weights []float64, searches ...ShardSearch) []byte {
	b := binary.LittleEndian.AppendUint32(nil, n)
	b = binary.LittleEndian.AppendUint32(b, uint32(dim))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(weights)))
	b = appendFloats(b, weights)
	for _, sr := range searches {
		b = binary.LittleEndian.AppendUint64(b, sr.NodeID)
		b = binary.LittleEndian.AppendUint32(b, uint32(sr.K))
		b = appendFloats(b, sr.Query)
	}
	return b
}

// searchFrame builds a frame of n searches whose queries (and weights, when
// weighted) are the given bit patterns: search i's query is the i-th of n
// equal runs of them, and the weights are the first run reversed.
func searchFrame(nodeID uint64, k uint32, weighted bool, n int, bits ...uint64) []byte {
	dim := len(bits) / n
	var f ShardSearchFrame
	for i := 0; i < n; i++ {
		q := make([]float64, dim)
		for j := range q {
			q[j] = math.Float64frombits(bits[i*dim+j])
		}
		f.Searches = append(f.Searches, ShardSearch{NodeID: nodeID + uint64(i), K: int(k), Query: q})
	}
	if weighted {
		f.Weights = make([]float64, dim)
		for j := range f.Weights {
			f.Weights[dim-1-j] = math.Float64frombits(bits[j])
		}
	}
	return frameOf(AppendShardSearch(nil, &f))
}

// FuzzShardSearchBinary holds the search frame to its contract on arbitrary
// bytes: every float64 bit pattern — NaN payloads, ±Inf, -0 — round-trips,
// in a frame of one search or several; the decoder never panics; what it
// accepts is 1..MaxShardSearches queries of the corpus dimension whose
// re-encoding is the input (nothing hides in slack bytes); a rejected frame
// leaves nothing half-decoded behind; and no truncation or extension of an
// accepted frame is accepted.
func FuzzShardSearchBinary(f *testing.F) {
	nan, negZero := math.Float64bits(math.NaN())|0xbeef, math.Float64bits(math.Copysign(0, -1))
	f.Add(searchFrame(7, 50, false, 1, math.Float64bits(1.5), math.Float64bits(-2.25)), uint16(2))
	f.Add(searchFrame(1<<63, 1, true, 1, nan, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), negZero), uint16(4))
	f.Add(searchFrame(0, math.MaxInt32, false, 1), uint16(0))
	f.Add(searchFrame(3, 9, false, 1, 1, 2, 3)[:shardSearchHeader+23], uint16(3))                                                // truncated
	f.Add(append(searchFrame(3, 9, true, 1, 1, 2), 0xff), uint16(2))                                                             // trailing byte
	f.Add([]byte("\x01\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00"), uint16(65535))                                             // absurd dim
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff"), uint16(0)) // absurd k
	f.Add([]byte{}, uint16(512))
	f.Add(searchFrame(5, 4, true, 3, 1, 2, 3, 4, 5, nan), uint16(2)) // three searches, one weighting
	two := []ShardSearch{{NodeID: 1, K: 2, Query: []float64{1, 2}}, {NodeID: 2, K: 3, Query: []float64{3, 4}}}
	f.Add(rawSearch(3, 2, nil, two...), uint16(2)) // count ≠ length
	f.Add(rawSearch(0, 2, nil), uint16(2))         // no searches
	var over []ShardSearch
	for i := 0; i <= MaxShardSearches; i++ {
		over = append(over, ShardSearch{NodeID: uint64(i), K: 1, Query: []float64{float64(i)}})
	}
	f.Add(rawSearch(MaxShardSearches+1, 1, nil, over...), uint16(1))                                              // over the cap
	f.Add(rawSearch(2, 2, []float64{1, 1}, two[0], ShardSearch{NodeID: 2, K: 3, Query: []float64{3}}), uint16(2)) // second query short
	f.Fuzz(func(t *testing.T, body []byte, dim16 uint16) {
		// Read as packed bit patterns, the input is 1–3 queries: they must
		// survive the frame bit for bit, with weights (odd dim16) or without.
		bits := make([]uint64, len(body)/8)
		for i := range bits {
			bits[i] = binary.LittleEndian.Uint64(body[8*i:])
		}
		n := 1 + int(dim16)%3
		qdim := len(bits) / n
		frame := searchFrame(uint64(dim16)<<40, uint32(dim16)+1, dim16%2 == 1 && qdim > 0, n, bits[:n*qdim]...)
		back, err := DecodeShardSearch(frame, qdim)
		if err != nil {
			t.Fatalf("own frame of %d × %d components rejected: %v", n, qdim, err)
		}
		if again, err := AppendShardSearch(nil, &back); err != nil || !bytes.Equal(again, frame) {
			t.Fatalf("round trip changed the frame (%v):\n  in  %x\n  out %x", err, frame, again)
		}

		// Read as a frame, the input is hostile.
		dim := int(dim16)
		got, err := DecodeShardSearch(body, dim)
		if err != nil {
			if got.Searches != nil || got.Weights != nil {
				t.Fatalf("rejected frame left a partial frame behind: %+v", got)
			}
			return
		}
		if len(got.Searches) == 0 || len(got.Searches) > MaxShardSearches || (got.Weights != nil && len(got.Weights) != dim) {
			t.Fatalf("accepted dim %d frame decodes to %d searches, %d weights", dim, len(got.Searches), len(got.Weights))
		}
		for i, sr := range got.Searches {
			if len(sr.Query) != dim || sr.K <= 0 {
				t.Fatalf("accepted dim %d frame: search %d has %d components, k=%d", dim, i, len(sr.Query), sr.K)
			}
		}
		if again, err := AppendShardSearch(nil, &got); err != nil || !bytes.Equal(again, body) {
			t.Fatalf("re-encoding differs from the accepted frame (%v):\n  in  %x\n  out %x", err, body, again)
		}
		if _, err := DecodeShardSearch(body[:len(body)-1], dim); err == nil {
			t.Fatal("a truncated frame was accepted")
		}
		if _, err := DecodeShardSearch(append(body[:len(body):len(body)], 0), dim); err == nil {
			t.Fatal("a frame with a trailing byte was accepted")
		}
	})
}

// replyTrace is a shard-side span bundle shaped like a search leg's, plus a
// span with an empty name and no args.
func replyTrace() *obs.RemoteTrace {
	return &obs.RemoteTrace{DurationNS: 1_234_567, Spans: []obs.RemoteSpan{
		{Name: "search", OffsetNS: 10, DurationNS: 1000, Args: map[string]int64{
			"k": 50, "neighbors": 50, "node": 1, "scanned": 6685, "scored": -1,
		}},
		{Name: "", OffsetNS: -5},
	}}
}

// frameOf returns an encoder's frame. Only a span name or arg key past 64 KiB
// makes an encoder fail, and no test frame has one.
func frameOf(frame []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return frame
}

// FuzzShardReplyFrames holds both reply frames, with and without span tails,
// neighbours frames of one list and of several, to their contract on
// arbitrary bytes: the decoders never panic; what they accept re-encodes to
// the input, so nothing hides in slack bytes or in the order of a span's
// args; no truncation or one-byte extension of an accepted frame is
// accepted; and a rejected frame leaves nothing half-decoded behind.
// TestShardReplyFramesRefuseAbsurdCounts checks the counts the seeds patch.
func FuzzShardReplyFrames(f *testing.F) {
	nan := math.Float64frombits(math.Float64bits(math.NaN()) | 0xbeef)
	ns := []NeighborJSON{{ID: 7, DistSq: 2.25, Label: "emb/c07"}, {ID: -1, DistSq: nan}, {ID: 1 << 40, DistSq: math.Inf(1), Label: "é"}}
	pts := []ShardPointJSON{{ID: 3, Leaf: 9, Vec: []float64{1, math.Copysign(0, -1)}}, {ID: 4, Leaf: 1 << 63, Vec: []float64{nan, 2}}}
	for _, tr := range []*obs.RemoteTrace{nil, replyTrace(), {DurationNS: 1}} {
		f.Add(frameOf(AppendShardNeighbors(nil, &ShardSearchReply{Lists: [][]NeighborJSON{ns}, Trace: tr})), uint8(0))
		f.Add(frameOf(AppendShardPoints(nil, 2, &ShardPointsResponse{Points: pts, Trace: tr})), uint8(2))
	}
	for _, c := range absurdCounts(f) {
		f.Add(c.frame, c.dim)
	}
	f.Add([]byte{}, uint8(0))
	three := frameOf(AppendShardNeighbors(nil, &ShardSearchReply{Lists: [][]NeighborJSON{ns[:1], nil, ns[1:]}, Trace: replyTrace()}))
	f.Add(three, uint8(0))
	countOff := func(frame []byte, off int, v uint32) []byte {
		b := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	f.Add(countOff(three, 0, 2), uint8(0))                        // list count ≠ length
	f.Add(countOff(three, shardNeighborsHeader+4, 1), uint8(0))   // one list's count wrong
	f.Add(countOff(three, 0, 0)[:shardNeighborsHeader], uint8(0)) // no lists
	f.Add(countOff(three, 0, MaxShardSearches+1), uint8(0))       // over the cap
	f.Fuzz(func(t *testing.T, body []byte, dim uint8) {
		if resp, err := DecodeShardNeighbors(body); err != nil {
			if resp.Lists != nil || resp.Trace != nil {
				t.Fatalf("rejected neighbours frame left %+v behind", resp)
			}
		} else {
			if again, err := AppendShardNeighbors(nil, &resp); err != nil || !bytes.Equal(again, body) {
				t.Fatalf("accepted neighbours frame re-encodes differently (%v):\n  in  %x\n  out %x", err, body, again)
			}
			for _, bad := range [][]byte{body[:len(body)-1], append(body[:len(body):len(body)], 0)} {
				if _, err := DecodeShardNeighbors(bad); err == nil {
					t.Fatalf("a %d-byte cut or extension of a %d-byte neighbours frame was accepted", len(bad), len(body))
				}
			}
		}
		if resp, err := DecodeShardPoints(body, int(dim)); err != nil {
			if resp.Points != nil || resp.Trace != nil {
				t.Fatalf("rejected points frame left %+v behind", resp)
			}
		} else {
			if again, err := AppendShardPoints(nil, int(dim), &resp); err != nil || !bytes.Equal(again, body) {
				t.Fatalf("accepted points frame re-encodes differently (%v):\n  in  %x\n  out %x", err, body, again)
			}
			for _, bad := range [][]byte{body[:len(body)-1], append(body[:len(body):len(body)], 0)} {
				if _, err := DecodeShardPoints(bad, int(dim)); err == nil {
					t.Fatalf("a %d-byte cut or extension of a %d-byte points frame was accepted", len(bad), len(body))
				}
			}
		}
	})
}

// absurdCase is a valid traced reply frame with one count patched past what
// its body could hold.
type absurdCase struct {
	name  string
	frame []byte
	dim   uint8
}

func absurdCounts(tb testing.TB) []absurdCase {
	tr := replyTrace()
	ns := frameOf(AppendShardNeighbors(nil, &ShardSearchReply{Lists: [][]NeighborJSON{{{ID: 1, DistSq: 4, Label: "a"}}}, Trace: tr}))
	pts := frameOf(AppendShardPoints(nil, 1, &ShardPointsResponse{Points: []ShardPointJSON{{ID: 1, Vec: []float64{3}}}, Trace: tr}))
	nsRows := shardNeighborsHeader + shardListCount  // one list
	nsTail := nsRows + shardNeighborRow + 1          // one row, one label byte
	ptsTail := shardPointsHeader + 16 + 8            // one point of dim 1
	nArgs := spanTailHeader + 2 + len("search") + 16 // the first span's n_args
	patch := func(frame []byte, off int, wide bool) []byte {
		b := append([]byte(nil), frame...)
		if wide {
			binary.LittleEndian.PutUint32(b[off:], math.MaxUint32)
		} else {
			binary.LittleEndian.PutUint16(b[off:], math.MaxUint16)
		}
		return b
	}
	return []absurdCase{
		{"neighbours n", patch(ns, 0, true), 0},
		{"neighbours trace_len", patch(ns, 4, true), 0},
		{"list count", patch(ns, shardNeighborsHeader, true), 0},
		{"label_len", patch(ns, nsRows+16, true), 0},
		{"neighbours n_spans", patch(ns, nsTail+8, true), 0},
		{"neighbours n_args", patch(ns, nsTail+nArgs, false), 0},
		{"points n", patch(pts, 0, true), 1},
		{"points trace_len", patch(pts, 8, true), 1},
		{"points n_spans", patch(pts, ptsTail+8, true), 1},
		{"points n_args", patch(pts, ptsTail+nArgs, false), 1},
	}
}

// TestShardReplyFramesRefuseAbsurdCounts: a count the body cannot hold — n,
// trace_len, a list's count, a label_len, a span tail's n_spans or a span's
// n_args — is
// refused before it sizes an allocation. Decoding such a frame allocates a
// few hundred bytes (the error, the tail's string), never what the count
// asks for.
func TestShardReplyFramesRefuseAbsurdCounts(t *testing.T) {
	for _, c := range absurdCounts(t) {
		decode := func() error {
			if c.name[0] == 'p' {
				_, err := DecodeShardPoints(c.frame, int(c.dim))
				return err
			}
			_, err := DecodeShardNeighbors(c.frame)
			return err
		}
		if decode() == nil {
			t.Errorf("%s: a frame with an absurd count was accepted", c.name)
			continue
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_ = decode()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1024 {
			t.Errorf("%s: refusing the frame allocated %d bytes a decode", c.name, per)
		}
	}
}

// TestDecodeShardNeighborsAllocs pins the router's per-leg decode of a reply
// to one search and to a seven-search final-round fetch, k = 50 each: one
// slice backing every list, one slice of list headers and one string for the
// labels, however many lists. A traced reply adds the trace, its span slice,
// and each span's arg map, which is two allocations (the map and its first
// group).
func TestDecodeShardNeighborsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ns := make([]NeighborJSON, 50)
	for i := range ns {
		ns[i] = NeighborJSON{ID: 1000 + i, DistSq: float64(i) / 7, Label: fmt.Sprintf("emb/c%02d", i%20)}
	}
	tr := &obs.RemoteTrace{DurationNS: 500_000, Spans: []obs.RemoteSpan{{Name: "search", DurationNS: 400_000, Args: map[string]int64{
		"k": 50, "neighbors": 50, "node": 1, "scanned": 6685, "scored": 190,
	}}}}
	for _, lists := range []int{1, 7} {
		for _, tc := range []struct {
			name  string
			trace *obs.RemoteTrace
			max   float64
		}{
			{"untraced", nil, 3},
			{"traced", tr, 3 + 2 + 2*float64(len(tr.Spans))},
		} {
			reply := ShardSearchReply{Trace: tc.trace}
			for i := 0; i < lists; i++ {
				reply.Lists = append(reply.Lists, ns)
			}
			frame := frameOf(AppendShardNeighbors(nil, &reply))
			got := testing.AllocsPerRun(200, func() {
				if _, err := DecodeShardNeighbors(frame); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d lists, %s: %.0f allocations a decode", lists, tc.name, got)
			if got > tc.max {
				t.Errorf("%d lists, %s: decoding a k = 50 reply allocates %.0f times, budget %.0f", lists, tc.name, got, tc.max)
			}
		}
	}
}

// TestClientFinalizeRetry: a smart client whose finalize was answered 503 +
// Retry-After can finalize again, and gets what a first-try finalize gets;
// only the returned result consumes the session.
func TestClientFinalizeRetry(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	client, err := Dial(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	play := func() *core.Machine[*PayloadNode, int] {
		sess := client.NewSession(7, 21)
		cands := sess.Candidates()
		if len(cands) < 3 {
			t.Fatalf("%d candidates shown", len(cands))
		}
		if err := sess.Feedback([]int{cands[0].ID, cands[1].ID, cands[2].ID}); err != nil {
			t.Fatal(err)
		}
		return sess
	}
	ctx := context.Background()
	want, err := client.Finalize(ctx, play(), 12)
	if err != nil {
		t.Fatal(err)
	}

	sess := play()
	srv.SetQueryTimeout(time.Nanosecond) // the query answers 503 deadline_exceeded
	_, err = client.Finalize(ctx, sess, 12)
	srv.SetQueryTimeout(0)
	if err == nil {
		t.Fatal("finalize past the server's budget returned a result")
	}
	got, err := client.Finalize(ctx, sess, 12)
	if err != nil {
		t.Fatalf("retried finalize: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("retried finalize differs from a first finalize:\n  retry %+v\n  first %+v", got, want)
	}
	if _, err := client.Finalize(ctx, sess, 12); err == nil {
		t.Error("finalize after a returned result accepted")
	}
}
