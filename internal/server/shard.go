package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"qdcbir/internal/obs"
	"qdcbir/internal/shard"
	"qdcbir/internal/vec"
)

// NewShard creates a shard-replica server: it serves the scatter-gather
// endpoints a router fans out to — /v1/shard/meta, /v1/shard/topology,
// /v1/shard/search, /v1/shard/points. A replica has no local engine and
// hosts no sessions: what a single node answers from its own tree
// (/v1/query, /v1/payload, /v1/sessions*) needs the whole corpus or lives at
// the router, and a replica refuses it with 409 shard_finalize naming the
// router. o may be nil (a standalone observer is created).
func NewShard(r *shard.Replica, o *obs.Observer) *Server {
	s := newServer(r.Labeler(), o)
	s.shard = r
	return s
}

// refuseLocal answers a request only the whole corpus can serve: a replica
// holds one slice, so a local answer would be a ranking no single-node build
// emits. The 409 names the router, which runs the fleet-wide version.
func (s *Server) refuseLocal(w http.ResponseWriter, what string) bool {
	if s.shard == nil {
		return false
	}
	writeErrorCode(w, http.StatusConflict, ErrCodeShardFinalize,
		"a shard replica holds one slice of the corpus and does not answer %s; send it to the router (qdrouter)", what)
	return true
}

// Shard returns the replica this server fronts, or nil in single-node mode.
func (s *Server) Shard() *shard.Replica { return s.shard }

// ShardMetaResponse describes the shard slice a replica serves and the
// fleet-internal wire it speaks (see shardwire.go).
type ShardMetaResponse struct {
	shard.Meta
	WireVersion int `json:"wire_version"`
}

// ShardSearchRequest is the JSON form of a one-search frame: the k nearest
// local images under a topology node.
type ShardSearchRequest struct {
	NodeID  uint64    `json:"node_id"`
	Query   []float64 `json:"query"`
	Weights []float64 `json:"weights,omitempty"`
	K       int       `json:"k"`
}

// NeighborJSON is one scored neighbor. Distances round-trip exactly:
// encoding/json emits float64 at shortest-exact precision. Label is set on
// shard-search legs only (the owning shard's label for the image).
type NeighborJSON = shard.Neighbor

// ShardSearchResponse is the JSON reply to one search: the local top-k
// ascending by (dist, id). When the caller asked for tracing (X-Qd-Trace
// header), Trace carries the shard-side spans back for cross-process
// stitching.
type ShardSearchResponse struct {
	Neighbors []NeighborJSON   `json:"neighbors"`
	Trace     *obs.RemoteTrace `json:"trace,omitempty"`
}

// ShardPointsRequest asks the replica for the feature vectors of the listed
// images. IDs the replica does not own are silently omitted — the router
// queries every shard and unions the answers.
type ShardPointsRequest struct {
	IDs []int `json:"ids"`
}

// ShardPointJSON is one owned image: its exact float64 feature vector and
// the full-tree leaf that stores it (the §3.2 starting assignment for a
// stateless query).
type ShardPointJSON = shard.Point

// ShardPointsResponse lists the owned subset of the requested IDs.
type ShardPointsResponse struct {
	Points []ShardPointJSON `json:"points"`
	Trace  *obs.RemoteTrace `json:"trace,omitempty"`
}

// TraceData satisfies obs.RemoteTraced.
func (r *ShardPointsResponse) TraceData() *obs.RemoteTrace { return r.Trace }

// shardEndpoint admits a request to a scatter-gather endpoint: the right
// method, on a shard replica.
func (s *Server) shardEndpoint(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		writeError(w, http.StatusMethodNotAllowed, "%s only", method)
		return false
	}
	if s.shard == nil {
		writeErrorCode(w, http.StatusNotFound, "not_a_shard", "this server is not a shard replica")
		return false
	}
	return true
}

func (s *Server) handleShardMeta(w http.ResponseWriter, r *http.Request) {
	if !s.shardEndpoint(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, ShardMetaResponse{Meta: s.shard.Meta(), WireVersion: ShardWireVersion})
}

func (s *Server) handleShardTopology(w http.ResponseWriter, r *http.Request) {
	if !s.shardEndpoint(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, s.shard.Topo())
}

func (s *Server) handleShardSearch(w http.ResponseWriter, r *http.Request) {
	if !s.shardEndpoint(w, r, http.MethodPost) {
		return
	}
	// A router frames a fetch's searches in binary and asks for the framed
	// reply; the one-search JSON body, answered in JSON unless the caller
	// asks otherwise, is the human/debug form. Either way the body is bounded
	// by what the corpus dimension allows.
	dim := s.shard.Meta().Dim
	if !boundBody(w, r, shardSearchBodyLimit(dim)) {
		return
	}
	var f ShardSearchFrame
	if r.Header.Get("Content-Type") == ShardBinaryType {
		body, err := readFrame(r)
		if err != nil {
			writeBodyError(w, err)
			return
		}
		if f, err = DecodeShardSearch(body, dim); err != nil {
			writeErrorCode(w, http.StatusBadRequest, ErrCodeShardFrame, "bad request: %v", err)
			return
		}
	} else {
		var req ShardSearchRequest
		if err := decodeJSON(w, r, &req); err != nil {
			return
		}
		f = ShardSearchFrame{Weights: req.Weights, Searches: []ShardSearch{{NodeID: req.NodeID, K: req.K, Query: req.Query}}}
	}
	framed := r.Header.Get("Accept") == ShardBinaryType
	if !framed && len(f.Searches) != 1 {
		writeErrorCode(w, http.StatusBadRequest, ErrCodeShardFrame,
			"bad request: a JSON reply holds one list; ask for the %d lists of this frame with Accept: %s", len(f.Searches), ShardBinaryType)
		return
	}
	release, err := s.sched.admit(r.Context(), "/v1/shard/search")
	if err != nil {
		writeQueryError(w, err)
		return
	}
	defer release()
	// A frame's searches run in order, each on a sweep of its own.
	rec := shardRecorder(r)
	lists := make([][]NeighborJSON, len(f.Searches))
	for i, sr := range f.Searches {
		searchStart := time.Now()
		ns, st, err := s.shard.Sweep(r.Context(), sr.NodeID, vec.Vector(sr.Query), f.Weights, sr.K)
		if err != nil {
			writeQueryError(w, err)
			return
		}
		// scanned counts the SQ8 code rows the search read, scored the rows
		// it scored exactly: the filter's work, per search of a stitched
		// trace.
		rec.Span("search", searchStart, map[string]int64{
			"node": int64(sr.NodeID), "k": int64(sr.K), "neighbors": int64(len(ns)),
			"scanned": int64(st.Scanned), "scored": int64(st.Scored),
		})
		lists[i] = ns
	}
	if !framed {
		writeJSON(w, http.StatusOK, ShardSearchResponse{Neighbors: lists[0], Trace: rec.Trace()})
		return
	}
	frame, err := AppendShardNeighbors(nil, &ShardSearchReply{Lists: lists, Trace: rec.Trace()})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode neighbours: %v", err)
		return
	}
	writeFrame(w, frame)
}

// shardRecorder starts a shard-side span recorder when the caller asked for
// one via the X-Qd-Trace header; otherwise returns nil, on which every
// recorder method is a no-op and Trace() yields nil (no response field).
func shardRecorder(r *http.Request) *obs.RemoteRecorder {
	if r.Header.Get(obs.TraceHeader) == "" {
		return nil
	}
	return obs.NewRemoteRecorder()
}

func (s *Server) handleShardPoints(w http.ResponseWriter, r *http.Request) {
	if !s.shardEndpoint(w, r, http.MethodPost) {
		return
	}
	var req ShardPointsRequest
	if !DecodeBody(w, r, IDListBodyLimit(s.shard.Meta().Images), &req) {
		return
	}
	rec := shardRecorder(r)
	lookupStart := time.Now()
	resp := ShardPointsResponse{Points: []ShardPointJSON{}}
	for _, id := range req.IDs {
		if p, ok := s.shard.PointInfo(id); ok {
			resp.Points = append(resp.Points, p)
		}
	}
	rec.Span("points", lookupStart, map[string]int64{
		"requested": int64(len(req.IDs)), "owned": int64(len(resp.Points)),
	})
	resp.Trace = rec.Trace()
	if r.Header.Get("Accept") != ShardBinaryType {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	frame, err := AppendShardPoints(nil, s.shard.Meta().Dim, &resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode points: %v", err)
		return
	}
	writeFrame(w, frame)
}

// decodeJSON decodes the request body into v, writing the uniform 400
// response on failure (413 when a bounded body ran past its limit); the
// returned error only signals the caller to stop.
func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeBodyError(w, err)
		return err
	}
	return nil
}

// writeBodyError answers a request body that could not be read or parsed.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeTooLarge(w, tooLarge.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "bad request: %v", err)
}

// writeTooLarge answers a request body past its endpoint's bound.
func writeTooLarge(w http.ResponseWriter, limit int64) {
	writeErrorCode(w, http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge,
		"request body exceeds this endpoint's %d-byte limit", limit)
}
