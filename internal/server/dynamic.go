package server

// Dynamic mode: the server fronts the segmented epoch/snapshot engine
// (internal/seg) instead of a read-only monolithic engine. The corpus then
// accepts online writes — POST /v1/images inserts, DELETE /v1/images/{id}
// tombstones — while every query and hosted session pins an immutable
// snapshot, so writes never stall reads and a session's world is frozen at
// the epoch it started. /v1/buildinfo reports the epoch and segment shape;
// POST /v1/compact forces a merge (background compaction runs regardless).
//
// In static mode the write endpoints answer 409 with code "read_only", so
// clients can discover the mode without a separate capability probe.

import (
	"context"
	"net/http"
	"strconv"
	"strings"

	"qdcbir/internal/core"
	"qdcbir/internal/obs"
	"qdcbir/internal/seg"
	"qdcbir/internal/vec"
)

// DynamicStore is the write-capable corpus a dynamic server fronts. The
// root package's Dynamic type satisfies it.
type DynamicStore interface {
	DB() *seg.DB
	Insert(v vec.Vector, label string) (int, error)
	Delete(id int) error
	LabelOf(id int) string
	Compact(ctx context.Context) error
	Stats() seg.Stats
}

// ErrCodeReadOnly rejects write endpoints on a static (non-dynamic) server.
const ErrCodeReadOnly = "read_only"

// NewDynamic creates a server over a write-capable segmented corpus. o may
// be nil (a standalone observer is created); pass the same observer the
// store was built with so ingest and HTTP telemetry land in one registry.
func NewDynamic(ds DynamicStore, o *obs.Observer) *Server {
	s := newServer(ds.LabelOf, o)
	s.dyn = ds
	return s
}

// InsertRequest is the POST /v1/images body.
type InsertRequest struct {
	Vector []float64 `json:"vector"`
	Label  string    `json:"label,omitempty"`
}

// InsertResponse reports the new image's ID and the epoch its insert
// published — a snapshot acquired at or after this epoch sees the image.
type InsertResponse struct {
	ID    int    `json:"id"`
	Epoch uint64 `json:"epoch"`
}

// DeleteResponse reports the epoch a delete published.
type DeleteResponse struct {
	Epoch uint64 `json:"epoch"`
}

// ImageResponse is the GET /v1/images/{id} body.
type ImageResponse struct {
	ID    int    `json:"id"`
	Label string `json:"label,omitempty"`
}

// CompactResponse reports the post-compaction corpus shape.
type CompactResponse struct {
	Epoch       uint64 `json:"epoch"`
	Segments    int    `json:"segments"`
	Live        int    `json:"live"`
	Compactions uint64 `json:"compactions"`
}

// handleImages serves POST /v1/images (insert).
func (s *Server) handleImages(w http.ResponseWriter, r *http.Request) {
	if s.dyn == nil {
		writeErrorCode(w, http.StatusConflict, ErrCodeReadOnly, "corpus is read-only: serve a dynamic archive (or -dynamic) to ingest")
		return
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req InsertRequest
	if !DecodeBody(w, r, VectorBodyLimit(s.dyn.DB().Config().Dim), &req) {
		return
	}
	id, err := s.dyn.Insert(vec.Vector(req.Vector), req.Label)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, InsertResponse{ID: id, Epoch: s.dyn.Stats().Epoch})
}

// handleImageOp serves GET and DELETE /v1/images/{id}.
func (s *Server) handleImageOp(w http.ResponseWriter, r *http.Request) {
	if s.dyn == nil {
		writeErrorCode(w, http.StatusConflict, ErrCodeReadOnly, "corpus is read-only: serve a dynamic archive (or -dynamic) to ingest")
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/v1/images/")
	id, err := strconv.Atoi(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad image id %q", raw)
		return
	}
	switch r.Method {
	case http.MethodGet:
		snap := s.dyn.DB().Acquire()
		_, ok := snap.VectorOf(id)
		snap.Release()
		if !ok {
			writeError(w, http.StatusNotFound, "unknown image %d", id)
			return
		}
		writeJSON(w, http.StatusOK, ImageResponse{ID: id, Label: s.dyn.LabelOf(id)})
	case http.MethodDelete:
		if err := s.dyn.Delete(id); err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, DeleteResponse{Epoch: s.dyn.Stats().Epoch})
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or DELETE only")
	}
}

// handleCompact serves POST /v1/compact: an inline merge of all sealed
// segments (no-op when a background compaction is already running).
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if s.dyn == nil {
		writeErrorCode(w, http.StatusConflict, ErrCodeReadOnly, "corpus is read-only")
		return
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if err := s.dyn.Compact(r.Context()); err != nil {
		writeQueryError(w, err)
		return
	}
	st := s.dyn.Stats()
	writeJSON(w, http.StatusOK, CompactResponse{
		Epoch: st.Epoch, Segments: st.Segments, Live: st.Live, Compactions: st.Compactions,
	})
}

// dynQuery answers /v1/query in dynamic mode: pin a snapshot, run the
// query-side decomposition finalize, map to the wire shape. Segmented
// queries simulate no page I/O, so the stats block reports zeros.
func (s *Server) dynQuery(ctx context.Context, req QueryRequest) (QueryResponse, error) {
	snap := s.dyn.DB().Acquire()
	defer snap.Release()
	var weights vec.Vector
	if req.Weights != nil {
		weights = vec.Vector(req.Weights)
	}
	res, err := snap.QueryByExamplesCtx(ctx, req.Relevant, req.K, weights)
	if err != nil {
		return QueryResponse{}, err
	}
	return AnswerResponse(res, 0, s.label), nil
}

// AnswerResponse converts a wire-neutral finalize answer (a routed or a
// segmented one) into the /v1/query response shape. label names each result
// image; nil keeps the label the answer carries, the one its owning shard
// attached.
func AnswerResponse(res *core.Answer, feedbackReads uint64, label func(id int) string) QueryResponse {
	out := QueryResponse{Stats: StatsJSON{FeedbackReads: feedbackReads, Expansions: res.Expansions}}
	for _, g := range res.Groups {
		gj := GroupJSON{RankScore: g.RankScore, Expanded: g.Expanded(), QueryImages: g.QueryIDs}
		for _, im := range g.Images {
			if label != nil {
				im.Label = label(im.ID)
			}
			gj.Images = append(gj.Images, ScoredJSON(im))
		}
		out.Groups = append(out.Groups, gj)
	}
	return out
}
