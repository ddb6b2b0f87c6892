package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"

	"qdcbir/internal/obs"
)

// The fleet-internal wire. Every hop a router makes to its shard replicas per
// query is binary both ways: the search leg's request body, the neighbour
// lists it answers, the points leg's reply, and the span bundle a traced leg
// of either kind carries back. Each has one framing, defined here. A search
// frame carries every search of one final-round fetch (one, for a k-NN), so
// a fetch costs one leg per shard however many subqueries it holds. A feature
// vector crosses as little-endian float64 bytes, not float32, because that
// is exact in every scan mode — a weighted search scores at float64 even on a
// float32 corpus, and the vectors a router fetches feed centroid and boundary
// arithmetic that must match the single-node engine bit for bit — so nothing
// is negotiated per precision. A neighbour crosses with its squared distance,
// the key a single node selects by: two squared distances can share a root,
// so the router merges on the square and takes the root after. What stays
// JSON is cold: the id list of a points request, errors, and the
// /v1/shard/meta and topology a router reads once at start-up. The JSON
// request body on /v1/shard/search — one search, answered in JSON unless the
// caller asks for the frame — remains the documented human/debug form.

const (
	// ShardWireVersion is what a replica advertises in /v1/shard/meta; a
	// router refuses a fleet member that speaks any other.
	ShardWireVersion = 3
	// ShardBinaryType marks a framed body: as Content-Type on a
	// /v1/shard/search request, as Accept (and the reply's Content-Type) on
	// either shard leg's reply.
	ShardBinaryType = "application/x-qdcbir-shard"
	// MaxShardSearches caps the searches one search frame carries, so a
	// frame's size is bounded by the corpus dimension; a router splits a
	// larger fetch across frames. A final round runs one search per query
	// group, and queries rarely form more than a handful.
	MaxShardSearches = 16

	// Search frame: n u32 | dim u32 | n_weights u32 | weights f64×n_weights |
	// n × (node_id u64 | k u32 | query f64×dim), n ∈ [1, MaxShardSearches],
	// n_weights ∈ {0, dim}. The weights apply to every search.
	shardSearchHeader = 12
	shardSearchFixed  = 12 // a search's node_id and k
	// Neighbours frame, the search leg's reply: n u32 | trace_len u32 |
	// n × count u32 | Σcount × (id i64 | dist_sq f64 | label_len u32) |
	// labels | trace (trace_len bytes). List i answers search i; its rows
	// follow list i-1's, and the labels are the neighbours' own, in order,
	// concatenated.
	shardNeighborsHeader = 8
	shardListCount       = 4
	shardNeighborRow     = 20
	// Points frame: n u32 | dim u32 | trace_len u32 |
	// n × (id i64 | leaf u64 | vec f64×dim) | trace (trace_len bytes).
	// Labels are not framed: a router reads a fetched point's leaf and vector
	// only (result labels ride on the neighbours).
	shardPointsHeader = 12
	// Span tail, the trace of either reply (absent, trace_len 0, when the
	// leg was not traced): duration_ns i64 | n_spans u32 | n_spans ×
	// (name_len u16 | name | offset_ns i64 | duration_ns i64 | n_args u16 |
	// n_args × (key_len u16 | key | value i64)). Args are in strictly
	// increasing key order, so a trace has exactly one encoding.
	spanTailHeader = 12
	spanMinBytes   = 20 // a span with an empty name and no args
	argMinBytes    = 10 // an arg with an empty key
)

// searchFrameSize is the length of a search frame of n searches of dimension
// dim carrying nw weights.
func searchFrameSize(n, dim, nw uint64) uint64 {
	return shardSearchHeader + 8*nw + n*(shardSearchFixed+8*dim)
}

// shardSearchBodyLimit bounds a /v1/shard/search body of either form: the
// JSON form's two dim-long float lists at no more than 32 bytes a printed
// component plus its scalar fields, or a weighted frame of MaxShardSearches
// searches.
func shardSearchBodyLimit(dim int) int64 {
	d := uint64(dim)
	return 4096 + int64(max(64*d, searchFrameSize(MaxShardSearches, d, d)))
}

// Request body bounds. Every body that arrives from outside is refused past
// what its endpoint can carry: bodySlack bytes for scalar fields, labels and
// whitespace, idBytes per image ID a list names (no list names more distinct
// images than the corpus holds), keyedIDBytes per entry of a map keyed by
// image ID, and componentBytes per vector component.
const (
	bodySlack      = 4096
	idBytes        = 24 // a printed int and its separator
	keyedIDBytes   = 48 // "id":uint64 and its separator
	componentBytes = 32 // a printed float64 and its separator
)

// IDListBodyLimit bounds a body that names images and carries no vector
// (a /v1/shard/points request, session feedback).
func IDListBodyLimit(images int) int64 { return bodySlack + idBytes*int64(images) }

// VectorBodyLimit bounds a body that carries one dim-long vector (a k-NN
// query, an inserted image).
func VectorBodyLimit(dim int) int64 { return bodySlack + componentBytes*int64(dim) }

// QueryBodyLimit bounds a one-shot query: the example IDs and a weights
// vector.
func QueryBodyLimit(images, dim int) int64 {
	return IDListBodyLimit(images) + componentBytes*int64(dim)
}

// sessionStateBodyLimit bounds a session import: the relevant IDs, two maps
// keyed by image ID (subcluster assignments, the display) and the weights.
func sessionStateBodyLimit(images, dim int) int64 {
	return QueryBodyLimit(images, dim) + 2*keyedIDBytes*int64(images)
}

// DecodeBody decodes a JSON request body of at most limit bytes into v,
// answering 413 body_too_large past the limit — before reading any of a body
// that declares a longer length — and 400 on anything unparseable. False
// means the caller stops.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	return boundBody(w, r, limit) && decodeJSON(w, r, v) == nil
}

// boundBody caps a request body at limit. A body that declares a longer
// length is answered 413 at once, before any of it is read; false means the
// caller stops.
func boundBody(w http.ResponseWriter, r *http.Request, limit int64) bool {
	if r.ContentLength > limit {
		writeTooLarge(w, limit)
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	return true
}

// readFrame reads a body boundBody admitted into one buffer of its declared
// length; a body of undeclared length reads through the bound.
func readFrame(r *http.Request) ([]byte, error) {
	if r.ContentLength < 0 {
		return io.ReadAll(r.Body)
	}
	body := make([]byte, r.ContentLength)
	_, err := io.ReadFull(r.Body, body)
	return body, err
}

// writeFrame answers with a framed reply. The declared length lets the router
// read it into one buffer of that size.
func writeFrame(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", ShardBinaryType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	_, _ = w.Write(frame) // a failed write is the caller hanging up
}

func appendFloats(dst []byte, xs []float64) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// ShardSearch is one search of a search frame: the K nearest local images to
// Query under the topology node NodeID.
type ShardSearch struct {
	NodeID uint64
	K      int
	Query  []float64
}

// ShardSearchFrame is a search frame's content: searches answered in order,
// one neighbour list each, all under one weighting (nil for plain
// Euclidean).
type ShardSearchFrame struct {
	Weights  []float64
	Searches []ShardSearch
}

// AppendShardSearch appends f's search frame to dst, sized once. The frame
// is bit transparent: every float64 pattern, NaN payloads and -0 included,
// decodes to itself. It fails on a frame DecodeShardSearch would refuse for
// its shape: no searches or more than MaxShardSearches, queries of unequal
// length, weights neither absent nor query-long, or a k outside [1, 2³¹).
func AppendShardSearch(dst []byte, f *ShardSearchFrame) ([]byte, error) {
	n := len(f.Searches)
	if n == 0 || n > MaxShardSearches {
		return nil, fmt.Errorf("search frame of %d searches, want 1..%d", n, MaxShardSearches)
	}
	dim := len(f.Searches[0].Query)
	if len(f.Weights) != 0 && len(f.Weights) != dim {
		return nil, fmt.Errorf("search frame carries %d weights for dim %d", len(f.Weights), dim)
	}
	for i, sr := range f.Searches {
		if len(sr.Query) != dim {
			return nil, fmt.Errorf("search %d has dim %d, frame dim %d", i, len(sr.Query), dim)
		}
		if sr.K <= 0 || sr.K > math.MaxInt32 {
			return nil, fmt.Errorf("search %d k=%d out of range", i, sr.K)
		}
	}
	dst = slices.Grow(dst, int(searchFrameSize(uint64(n), uint64(dim), uint64(len(f.Weights)))))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Weights)))
	dst = appendFloats(dst, f.Weights)
	for _, sr := range f.Searches {
		dst = binary.LittleEndian.AppendUint64(dst, sr.NodeID)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(sr.K))
		dst = appendFloats(dst, sr.Query)
	}
	return dst, nil
}

// DecodeShardSearch parses a search frame for a corpus of the given
// dimension. Header, body length, corpus dimension and every search's k are
// checked against each other before anything is allocated, so a hostile
// header cannot size an allocation and a short or long body never yields a
// partial query. The weights and queries share one backing array.
func DecodeShardSearch(body []byte, dim int) (ShardSearchFrame, error) {
	var f ShardSearchFrame
	if len(body) < shardSearchHeader {
		return f, fmt.Errorf("search frame is %d bytes, shorter than its %d-byte header", len(body), shardSearchHeader)
	}
	n := binary.LittleEndian.Uint32(body)
	qdim := binary.LittleEndian.Uint32(body[4:])
	nw := binary.LittleEndian.Uint32(body[8:])
	if n == 0 || n > MaxShardSearches {
		return f, fmt.Errorf("search frame of %d searches, want 1..%d", n, MaxShardSearches)
	}
	if uint64(qdim) != uint64(dim) {
		return f, fmt.Errorf("search frame dim %d != corpus dim %d", qdim, dim)
	}
	if nw != 0 && nw != qdim {
		return f, fmt.Errorf("search frame carries %d weights for dim %d", nw, qdim)
	}
	if want := searchFrameSize(uint64(n), uint64(qdim), uint64(nw)); uint64(len(body)) != want {
		return f, fmt.Errorf("search frame is %d bytes, header describes %d", len(body), want)
	}
	stride := shardSearchFixed + 8*dim
	first := shardSearchHeader + 8*int(nw)
	for i := 0; i < int(n); i++ {
		if k := binary.LittleEndian.Uint32(body[first+i*stride+8:]); k == 0 || k > math.MaxInt32 {
			return f, fmt.Errorf("search %d k=%d out of range", i, k)
		}
	}
	floats := make([]float64, int(nw)+int(n)*dim)
	if nw != 0 {
		f.Weights = readFloats(floats[:nw:nw], body[shardSearchHeader:])
	}
	f.Searches = make([]ShardSearch, n)
	rest := floats[nw:]
	for i := range f.Searches {
		b := body[first+i*stride:]
		f.Searches[i] = ShardSearch{
			NodeID: binary.LittleEndian.Uint64(b),
			K:      int(binary.LittleEndian.Uint32(b[8:])),
			Query:  readFloats(rest[i*dim:(i+1)*dim:(i+1)*dim], b[shardSearchFixed:]),
		}
	}
	return f, nil
}

// readFloats fills out from the little-endian float64s at the head of b.
func readFloats(out []float64, b []byte) []float64 {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// ShardSearchReply is a search frame's reply: one neighbour list per search,
// in frame order, each the shard's local top-k ascending by (squared
// distance, ID). A decoded neighbour carries DistSq, not Dist: the router
// takes the root once, after its merge.
type ShardSearchReply struct {
	Lists [][]NeighborJSON
	Trace *obs.RemoteTrace
}

// TraceData satisfies obs.RemoteTraced so the router's generic call path can
// lift the shard-side spans without knowing the reply shape.
func (r *ShardSearchReply) TraceData() *obs.RemoteTrace { return r.Trace }

// AppendShardNeighbors appends resp's neighbours frame to dst, sized once.
// Squared distances are bit transparent, like the search frame's floats.
func AppendShardNeighbors(dst []byte, resp *ShardSearchReply) ([]byte, error) {
	size := shardNeighborsHeader + shardListCount*len(resp.Lists)
	for _, l := range resp.Lists {
		for _, n := range l {
			size += shardNeighborRow + len(n.Label)
		}
	}
	dst = slices.Grow(dst, size)
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Lists)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // trace_len, set by appendSpanTail
	for _, l := range resp.Lists {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(l)))
	}
	for _, l := range resp.Lists {
		for _, n := range l {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(n.ID)))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(n.DistSq))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(n.Label)))
		}
	}
	for _, l := range resp.Lists {
		for _, n := range l {
			dst = append(dst, n.Label...)
		}
	}
	return appendSpanTail(dst, start+4, resp.Trace)
}

// DecodeShardNeighbors parses a neighbours frame of 1..MaxShardSearches
// lists. Every count is checked against the body length before it sizes an
// allocation. The lists share one backing slice, and their labels (and a
// trace's span names and arg keys) are sub-strings of one string, so a
// decode costs the same few allocations however many lists it holds.
func DecodeShardNeighbors(body []byte) (ShardSearchReply, error) {
	var resp ShardSearchReply
	if len(body) < shardNeighborsHeader {
		return resp, fmt.Errorf("neighbours frame is %d bytes, shorter than its %d-byte header", len(body), shardNeighborsHeader)
	}
	lists := uint64(binary.LittleEndian.Uint32(body))
	traceLen := uint64(binary.LittleEndian.Uint32(body[4:]))
	if lists == 0 || lists > MaxShardSearches {
		return resp, fmt.Errorf("neighbours frame of %d lists, want 1..%d", lists, MaxShardSearches)
	}
	rest := uint64(len(body) - shardNeighborsHeader)
	if traceLen > rest || lists*shardListCount > rest-traceLen {
		return resp, fmt.Errorf("neighbours frame is %d bytes, header describes %d lists and a %d-byte trace", len(body), lists, traceLen)
	}
	counts := body[shardNeighborsHeader : shardNeighborsHeader+lists*shardListCount]
	rest -= traceLen + lists*shardListCount
	n := uint64(0)
	for i := uint64(0); i < lists; i++ {
		n += uint64(binary.LittleEndian.Uint32(counts[i*shardListCount:]))
	}
	if n > rest/shardNeighborRow {
		return resp, fmt.Errorf("neighbours frame is %d bytes, its counts describe %d neighbours", len(body), n)
	}
	first := shardNeighborsHeader + lists*shardListCount
	rows := body[first : first+n*shardNeighborRow]
	labels := uint64(0)
	for i := uint64(0); i < n; i++ {
		labels += uint64(binary.LittleEndian.Uint32(rows[i*shardNeighborRow+16:]))
	}
	if want := n*shardNeighborRow + labels; want != rest {
		return resp, fmt.Errorf("neighbours frame is %d bytes, its counts describe %d", len(body), uint64(len(body))-rest+want)
	}
	tailBytes := body[first+n*shardNeighborRow:]
	tail := string(tailBytes)
	var trace *obs.RemoteTrace
	if traceLen > 0 {
		var err error
		if trace, err = decodeSpanTail(tailBytes[labels:], tail[labels:]); err != nil {
			return resp, fmt.Errorf("neighbours frame trace: %w", err)
		}
	}
	all := make([]NeighborJSON, n)
	off := 0
	for i := range all {
		row := rows[i*shardNeighborRow:]
		l := int(binary.LittleEndian.Uint32(row[16:]))
		all[i] = NeighborJSON{
			ID:     int(int64(binary.LittleEndian.Uint64(row))),
			DistSq: math.Float64frombits(binary.LittleEndian.Uint64(row[8:])),
			Label:  tail[off : off+l],
		}
		off += l
	}
	resp.Lists = make([][]NeighborJSON, lists)
	for i := range resp.Lists {
		c := int(binary.LittleEndian.Uint32(counts[i*shardListCount:]))
		resp.Lists[i], all = all[:c:c], all[c:]
	}
	resp.Trace = trace
	return resp, nil
}

// AppendShardPoints appends resp's points frame to dst, sized once; every
// vector must be dim long (the replica's own rows are).
func AppendShardPoints(dst []byte, dim int, resp *ShardPointsResponse) ([]byte, error) {
	dst = slices.Grow(dst, shardPointsHeader+len(resp.Points)*(16+8*dim))
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Points)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // trace_len, set by appendSpanTail
	for _, p := range resp.Points {
		if len(p.Vec) != dim {
			return nil, fmt.Errorf("point %d has dim %d, frame dim %d", p.ID, len(p.Vec), dim)
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(p.ID)))
		dst = binary.LittleEndian.AppendUint64(dst, p.Leaf)
		dst = appendFloats(dst, p.Vec)
	}
	return appendSpanTail(dst, start+8, resp.Trace)
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
	b := body[shardPointsHeader:]
	var trace *obs.RemoteTrace
	if traceLen > 0 {
		tail := b[n*row:]
		var err error
		if trace, err = decodeSpanTail(tail, string(tail)); err != nil {
			return resp, fmt.Errorf("points frame trace: %w", err)
		}
	}
	resp.Points = make([]ShardPointJSON, n)
	for i := range resp.Points {
		resp.Points[i] = ShardPointJSON{
			ID:   int(int64(binary.LittleEndian.Uint64(b))),
			Leaf: binary.LittleEndian.Uint64(b[8:]),
			Vec:  readFloats(make([]float64, dim), b[16:]),
		}
		b = b[row:]
	}
	resp.Trace = trace
	return resp, nil
}

// appendSpanTail appends tr's span tail to dst and writes the tail's length
// as the frame's trace_len, the u32 at dst[lenAt:]. A nil trace appends
// nothing and leaves trace_len 0.
func appendSpanTail(dst []byte, lenAt int, tr *obs.RemoteTrace) ([]byte, error) {
	if tr == nil {
		return dst, nil
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(tr.DurationNS))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tr.Spans)))
	var keys []string
	for _, sp := range tr.Spans {
		if len(sp.Name) > math.MaxUint16 || len(sp.Args) > math.MaxUint16 {
			return nil, fmt.Errorf("span %.40q does not fit the span tail's 16-bit lengths", sp.Name)
		}
		dst = appendString16(dst, sp.Name)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(sp.OffsetNS))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(sp.DurationNS))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(sp.Args)))
		keys = keys[:0]
		for k := range sp.Args {
			if len(k) > math.MaxUint16 {
				return nil, fmt.Errorf("span %.40q: arg key %.40q does not fit the span tail's 16-bit lengths", sp.Name, k)
			}
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			dst = appendString16(dst, k)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(sp.Args[k]))
		}
	}
	if uint64(len(dst)-start) > math.MaxUint32 {
		return nil, fmt.Errorf("span tail of %d bytes does not fit its 32-bit length", len(dst)-start)
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-start))
	return dst, nil
}

func appendString16(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// decodeSpanTail parses a span tail that fills b exactly. s holds b's bytes
// as a string: span names and arg keys are sub-strings of it, not copies.
// Every count is checked against the bytes left before it sizes an
// allocation.
func decodeSpanTail(b []byte, s string) (*obs.RemoteTrace, error) {
	if len(b) < spanTailHeader {
		return nil, fmt.Errorf("span tail is %d bytes, shorter than its %d-byte header", len(b), spanTailHeader)
	}
	tr := &obs.RemoteTrace{DurationNS: int64(binary.LittleEndian.Uint64(b))}
	n := binary.LittleEndian.Uint32(b[8:])
	if uint64(n) > uint64(len(b)-spanTailHeader)/spanMinBytes {
		return nil, fmt.Errorf("span tail of %d bytes cannot hold %d spans", len(b), n)
	}
	if n > 0 {
		tr.Spans = make([]obs.RemoteSpan, n)
	}
	off := spanTailHeader
	// str reads a length-prefixed string that at least `after` more bytes
	// follow.
	str := func(after int) (string, bool) {
		if len(b)-off < 2 {
			return "", false
		}
		l := int(binary.LittleEndian.Uint16(b[off:]))
		if len(b)-off-2-l < after {
			return "", false
		}
		off += 2 + l
		return s[off-l : off], true
	}
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		var ok bool
		if sp.Name, ok = str(18); !ok {
			return nil, fmt.Errorf("span tail of %d bytes ends inside span %d", len(b), i)
		}
		sp.OffsetNS = int64(binary.LittleEndian.Uint64(b[off:]))
		sp.DurationNS = int64(binary.LittleEndian.Uint64(b[off+8:]))
		nargs := int(binary.LittleEndian.Uint16(b[off+16:]))
		off += 18
		if nargs > (len(b)-off)/argMinBytes {
			return nil, fmt.Errorf("span %d: %d args cannot fit the %d bytes left", i, nargs, len(b)-off)
		}
		if nargs > 0 {
			sp.Args = make(map[string]int64, nargs)
		}
		prev := ""
		for j := 0; j < nargs; j++ {
			key, ok := str(8)
			if !ok {
				return nil, fmt.Errorf("span tail of %d bytes ends inside span %d", len(b), i)
			}
			if j > 0 && key <= prev {
				return nil, fmt.Errorf("span %d: arg %.40q out of key order", i, key)
			}
			sp.Args[key] = int64(binary.LittleEndian.Uint64(b[off:]))
			off += 8
			prev = key
		}
	}
	if off != len(b) {
		return nil, fmt.Errorf("span tail has %d bytes past its last span", len(b)-off)
	}
	return tr, nil
}
