package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"qdcbir"
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

// TestShardSearchBinaryMatchesJSON: the framed search leg is answered byte
// for byte like its JSON form, weighted or not, and every neighbour names the
// label the shard holds for it.
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
	} {
		asJSON, _ := json.Marshal(req)
		status, _, want := post(t, ts.URL+"/v1/shard/search", "application/json", "", asJSON, false)
		if status != http.StatusOK {
			t.Fatalf("JSON leg: HTTP %d (%s)", status, want)
		}
		status, _, got := post(t, ts.URL+"/v1/shard/search", ShardBinaryType, "", AppendShardSearch(nil, &req), false)
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
	}
}

// TestShardSearchSpanCountsFilterWork: a traced leg's search span says how
// many code rows the SQ8 filter read and how many rows were scored exactly. A
// weighted leg, which the filter cannot serve, reads no codes and scores its
// whole range.
func TestShardSearchSpanCountsFilterWork(t *testing.T) {
	rep, sys, ts := newShardServer(t)
	rows := float64(rep.Meta().LocalImages)
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
		status, _, raw := post(t, ts.URL+"/v1/shard/search", ShardBinaryType, "", AppendShardSearch(nil, &tc.req), true)
		var resp ShardSearchResponse
		if err := json.Unmarshal(raw, &resp); status != http.StatusOK || err != nil || resp.Trace == nil {
			t.Fatalf("traced leg: HTTP %d, %v (%s)", status, err, raw)
		}
		var args map[string]any
		for _, sp := range resp.Trace.Spans {
			if sp.Name == "search" {
				args = sp.Args
			}
		}
		scanned, _ := args["scanned"].(float64)
		scored, _ := args["scored"].(float64)
		if tc.filtered && (scanned != rows || scored < float64(tc.req.K) || scored > rows) {
			t.Fatalf("filtered leg over %v rows: span args %v", rows, args)
		}
		if !tc.filtered && (scanned != 0 || scored != rows) {
			t.Fatalf("weighted leg over %v rows: span args %v", rows, args)
		}
	}
}

// TestShardSearchRejectsBadBodies: a frame that disagrees with itself or the
// corpus is a structured 400, a body past the endpoint's bound a structured
// 413, in either form — never a panic, never a search over a partial query.
func TestShardSearchRejectsBadBodies(t *testing.T) {
	rep, sys, ts := newShardServer(t)
	dim := rep.Meta().Dim
	good := AppendShardSearch(nil, &ShardSearchRequest{NodeID: rep.Topo().RootID(), Query: sys.Corpus().Vectors[3], K: 5})
	patched := func(off int, v uint32) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	frames := map[string][]byte{
		"empty":        {},
		"short header": good[:shardSearchHeader-1],
		"truncated":    good[:len(good)-1],
		"trailing":     append(append([]byte(nil), good...), 0),
		"k zero":       patched(8, 0),
		"k absurd":     patched(8, math.MaxUint32),
		"dim absurd":   patched(12, math.MaxUint32),
		"dim off":      patched(12, uint32(dim+1)),
		"half weights": patched(16, uint32(dim/2)),
		"weights lie":  patched(16, uint32(dim)),
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
	ids := bytes.Repeat([]byte("1,"), int(shardPointsBodyLimit(rep.Meta().Images)))
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
		if traced && (len(got.Trace.Spans) != len(want.Trace.Spans) || got.Trace.Spans[0].Name != want.Trace.Spans[0].Name) {
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

// searchFrame builds a frame whose query (and weights, when weighted) are
// the given bit patterns.
func searchFrame(nodeID uint64, k uint32, weighted bool, bits ...uint64) []byte {
	req := ShardSearchRequest{NodeID: nodeID, K: int(k), Query: make([]float64, len(bits))}
	for i, b := range bits {
		req.Query[i] = math.Float64frombits(b)
	}
	if weighted {
		req.Weights = make([]float64, len(bits))
		for i, b := range bits {
			req.Weights[len(bits)-1-i] = math.Float64frombits(b)
		}
	}
	return AppendShardSearch(nil, &req)
}

// FuzzShardSearchBinary holds the search frame to its contract on arbitrary
// bytes: every float64 bit pattern — NaN payloads, ±Inf, -0 — round-trips;
// the decoder never panics; what it accepts is exactly one query of the
// corpus dimension whose re-encoding is the input (nothing hides in slack
// bytes); and no truncation or extension of an accepted frame is accepted.
func FuzzShardSearchBinary(f *testing.F) {
	nan, negZero := math.Float64bits(math.NaN())|0xbeef, math.Float64bits(math.Copysign(0, -1))
	f.Add(searchFrame(7, 50, false, math.Float64bits(1.5), math.Float64bits(-2.25)), uint16(2))
	f.Add(searchFrame(1<<63, 1, true, nan, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), negZero), uint16(4))
	f.Add(searchFrame(0, math.MaxInt32, false), uint16(0))
	f.Add(searchFrame(3, 9, false, 1, 2, 3)[:shardSearchHeader+23], uint16(3))                                           // truncated
	f.Add(append(searchFrame(3, 9, true, 1, 2), 0xff), uint16(2))                                                        // trailing byte
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"), uint16(65535))     // absurd dim
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\x01\x00\x00\x00\x00\x00\x00\x00AAAAAAAA"), uint16(1)) // absurd k
	f.Add([]byte{}, uint16(512))
	f.Fuzz(func(t *testing.T, body []byte, dim16 uint16) {
		// Read as packed bit patterns, the input is a query: it must survive
		// the frame bit for bit, with weights (odd dim16) or without.
		bits := make([]uint64, len(body)/8)
		for i := range bits {
			bits[i] = binary.LittleEndian.Uint64(body[8*i:])
		}
		frame := searchFrame(uint64(dim16)<<40, uint32(dim16)+1, dim16%2 == 1 && len(bits) > 0, bits...)
		back, err := DecodeShardSearch(frame, len(bits))
		if err != nil {
			t.Fatalf("own frame of %d components rejected: %v", len(bits), err)
		}
		if again := AppendShardSearch(nil, &back); !bytes.Equal(again, frame) {
			t.Fatalf("round trip changed the frame:\n  in  %x\n  out %x", frame, again)
		}

		// Read as a frame, the input is hostile.
		dim := int(dim16)
		req, err := DecodeShardSearch(body, dim)
		if err != nil {
			if req.Query != nil || req.Weights != nil {
				t.Fatalf("rejected frame left a partial query behind: %+v", req)
			}
			return
		}
		if len(req.Query) != dim || (req.Weights != nil && len(req.Weights) != dim) || req.K <= 0 {
			t.Fatalf("accepted dim %d frame decodes to %d components, %d weights, k=%d", dim, len(req.Query), len(req.Weights), req.K)
		}
		if again := AppendShardSearch(nil, &req); !bytes.Equal(again, body) {
			t.Fatalf("re-encoding differs from the accepted frame:\n  in  %x\n  out %x", body, again)
		}
		if _, err := DecodeShardSearch(body[:len(body)-1], dim); err == nil {
			t.Fatal("a truncated frame was accepted")
		}
		if _, err := DecodeShardSearch(append(body[:len(body):len(body)], 0), dim); err == nil {
			t.Fatal("a frame with a trailing byte was accepted")
		}
	})
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
	play := func() *ClientSession {
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
	want, err := play().Finalize(12)
	if err != nil {
		t.Fatal(err)
	}

	sess := play()
	srv.SetQueryTimeout(time.Nanosecond) // the query answers 503 deadline_exceeded
	_, err = sess.Finalize(12)
	srv.SetQueryTimeout(0)
	if err == nil {
		t.Fatal("finalize past the server's budget returned a result")
	}
	got, err := sess.Finalize(12)
	if err != nil {
		t.Fatalf("retried finalize: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("retried finalize differs from a first finalize:\n  retry %+v\n  first %+v", got, want)
	}
	if _, err := sess.Finalize(12); err == nil {
		t.Error("finalize after a returned result accepted")
	}
}
