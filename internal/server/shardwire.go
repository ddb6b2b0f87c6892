package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"qdcbir/internal/obs"
)

// The fleet-internal wire. Between a router and its shard replicas a feature
// vector crosses as little-endian float64 bytes instead of decimal text: the
// search leg's request body and the points leg's reply each have one binary
// framing, both defined here. float64, not float32, because it is exact in
// every scan mode — a weighted search scores at float64 even on a float32
// corpus, and the vectors a router fetches feed centroid and boundary
// arithmetic that must match the single-node engine bit for bit — so nothing
// is negotiated per precision. Everything small stays JSON: neighbour lists
// (k ids, distances and labels), id lists, errors, and the trace spans a
// framed reply carries as an opaque tail. The JSON request body on
// /v1/shard/search remains the documented human/debug form.

const (
	// ShardWireVersion is what a replica advertises in /v1/shard/meta; a
	// router refuses a fleet member that speaks any other.
	ShardWireVersion = 1
	// ShardBinaryType marks a framed body: as Content-Type on a
	// /v1/shard/search request, as Accept (and the reply's Content-Type) on
	// /v1/shard/points.
	ShardBinaryType = "application/x-qdcbir-shard"

	// Search frame: node_id u64 | k u32 | dim u32 | n_weights u32 |
	// query f64×dim | weights f64×n_weights, n_weights ∈ {0, dim}.
	shardSearchHeader = 20
	// Points frame: n u32 | dim u32 | trace_len u32 |
	// n × (id i64 | leaf u64 | vec f64×dim) | trace JSON (trace_len bytes).
	// Labels are not framed: a router reads a fetched point's leaf and vector
	// only (result labels ride on the neighbours).
	shardPointsHeader = 12
)

// shardSearchBodyLimit bounds a /v1/shard/search body of either form: two
// dim-long float lists at no more than 32 bytes a printed component, plus the
// scalar fields. The binary frame (20 + 16·dim at most) fits inside it.
func shardSearchBodyLimit(dim int) int64 { return 4096 + 64*int64(dim) }

// shardPointsBodyLimit bounds a /v1/shard/points request, which names images
// and carries no vector: no panel is larger than the corpus, and a printed id
// with its separator is under 24 bytes.
func shardPointsBodyLimit(images int) int64 { return 4096 + 24*int64(images) }

func appendFloats(dst []byte, xs []float64) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

func readFloats(b []byte, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// AppendShardSearch appends req's search frame to dst. The frame is bit
// transparent: every float64 pattern, NaN payloads and -0 included, decodes
// to itself.
func AppendShardSearch(dst []byte, req *ShardSearchRequest) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, req.NodeID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(req.K))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Query)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Weights)))
	dst = appendFloats(dst, req.Query)
	return appendFloats(dst, req.Weights)
}

// DecodeShardSearch parses a search frame for a corpus of the given
// dimension. Header, body length and corpus dimension are checked against
// each other before anything is allocated, so a hostile header cannot size
// an allocation and a short or long body never yields a partial query.
func DecodeShardSearch(body []byte, dim int) (ShardSearchRequest, error) {
	var req ShardSearchRequest
	if len(body) < shardSearchHeader {
		return req, fmt.Errorf("search frame is %d bytes, shorter than its %d-byte header", len(body), shardSearchHeader)
	}
	k := binary.LittleEndian.Uint32(body[8:])
	qdim := binary.LittleEndian.Uint32(body[12:])
	nw := binary.LittleEndian.Uint32(body[16:])
	if k == 0 || k > math.MaxInt32 {
		return req, fmt.Errorf("search frame k=%d out of range", k)
	}
	if uint64(qdim) != uint64(dim) {
		return req, fmt.Errorf("search frame dim %d != corpus dim %d", qdim, dim)
	}
	if nw != 0 && nw != qdim {
		return req, fmt.Errorf("search frame carries %d weights for dim %d", nw, qdim)
	}
	if want := shardSearchHeader + 8*(uint64(qdim)+uint64(nw)); uint64(len(body)) != want {
		return req, fmt.Errorf("search frame is %d bytes, header describes %d", len(body), want)
	}
	req.NodeID = binary.LittleEndian.Uint64(body)
	req.K = int(k)
	req.Query = readFloats(body[shardSearchHeader:], dim)
	if nw != 0 {
		req.Weights = readFloats(body[shardSearchHeader+8*dim:], dim)
	}
	return req, nil
}

// AppendShardPoints appends resp's points frame to dst; every vector must be
// dim long (the replica's own rows are).
func AppendShardPoints(dst []byte, dim int, resp *ShardPointsResponse) ([]byte, error) {
	var trace []byte
	if resp.Trace != nil {
		var err error
		if trace, err = json.Marshal(resp.Trace); err != nil {
			return nil, err
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Points)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(trace)))
	for _, p := range resp.Points {
		if len(p.Vec) != dim {
			return nil, fmt.Errorf("point %d has dim %d, frame dim %d", p.ID, len(p.Vec), dim)
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(p.ID)))
		dst = binary.LittleEndian.AppendUint64(dst, p.Leaf)
		dst = appendFloats(dst, p.Vec)
	}
	return append(dst, trace...), nil
}

// DecodeShardPoints parses a points frame, checking header against length
// and the expected dimension before allocating.
func DecodeShardPoints(body []byte, dim int) (ShardPointsResponse, error) {
	var resp ShardPointsResponse
	if len(body) < shardPointsHeader {
		return resp, fmt.Errorf("points frame is %d bytes, shorter than its %d-byte header", len(body), shardPointsHeader)
	}
	n := uint64(binary.LittleEndian.Uint32(body))
	fdim := binary.LittleEndian.Uint32(body[4:])
	traceLen := uint64(binary.LittleEndian.Uint32(body[8:]))
	if uint64(fdim) != uint64(dim) {
		return resp, fmt.Errorf("points frame dim %d != corpus dim %d", fdim, dim)
	}
	row := 16 + 8*uint64(dim)
	rest := uint64(len(body) - shardPointsHeader)
	if traceLen > rest || n > (rest-traceLen)/row || n*row+traceLen != rest {
		return resp, fmt.Errorf("points frame is %d bytes, header describes %d points of dim %d and a %d-byte trace", len(body), n, dim, traceLen)
	}
	resp.Points = make([]ShardPointJSON, n)
	b := body[shardPointsHeader:]
	for i := range resp.Points {
		resp.Points[i] = ShardPointJSON{
			ID:   int(int64(binary.LittleEndian.Uint64(b))),
			Leaf: binary.LittleEndian.Uint64(b[8:]),
			Vec:  readFloats(b[16:], dim),
		}
		b = b[row:]
	}
	if traceLen > 0 {
		resp.Trace = new(obs.RemoteTrace)
		if err := json.Unmarshal(b, resp.Trace); err != nil {
			return ShardPointsResponse{}, fmt.Errorf("points frame trace: %w", err)
		}
	}
	return resp, nil
}
