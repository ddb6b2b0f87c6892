package server

import (
	"net/http"
	"runtime/debug"

	"qdcbir/internal/obs"
)

// This file holds the operational endpoints: liveness (/healthz), build
// identification (/v1/buildinfo), and the sliding-window latency digests
// (/v1/latency) that answer "what is the p99 right now" where the cumulative
// histograms in /v1/stats answer "what has it been since boot".

// handleHealthz is the liveness probe: the process is up and the handler
// chain is serving. It deliberately touches no engine state, so it stays
// cheap and cannot fail while the server can still answer at all.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

// BuildInfoResponse identifies the running binary and the corpus it serves,
// including archive provenance: which on-disk format version the corpus was
// loaded from, the precision its rows are stored and scanned at ("f64" or
// "f32", in every mode), and whether SQ8 codes filter its float64 scans
// (quantized). The router's fleet verification reads these to refuse
// mixed-precision fleets, whose distances would not merge bit-identically.
type BuildInfoResponse struct {
	GoVersion      string `json:"go_version"`
	Revision       string `json:"revision,omitempty"`
	VCSTime        string `json:"vcs_time,omitempty"`
	VCSModified    bool   `json:"vcs_modified,omitempty"`
	Images         int    `json:"images"`
	TreeHeight     int    `json:"tree_height"`
	ArchiveVersion int    `json:"archive_version,omitempty"`
	Precision      string `json:"precision,omitempty"`
	Quantized      bool   `json:"quantized,omitempty"`
	ShardIndex     *int   `json:"shard_index,omitempty"`
	ShardCount     int    `json:"shard_count,omitempty"`

	// Dynamic-mode fields: the current epoch and segment shape of an
	// online-ingest corpus (absent on static servers).
	Dynamic     bool   `json:"dynamic,omitempty"`
	Epoch       uint64 `json:"epoch,omitempty"`
	Segments    int    `json:"segments,omitempty"`
	MemRows     int    `json:"mem_rows,omitempty"`
	Tombstones  int    `json:"tombstones,omitempty"`
	Seals       uint64 `json:"seals,omitempty"`
	Compactions uint64 `json:"compactions,omitempty"`
}

// SetArchiveInfo records the provenance of the loaded corpus for
// /v1/buildinfo (version 0 means "built in process, no archive").
func (s *Server) SetArchiveInfo(version int, precision string, quantized bool) {
	s.archiveVersion = version
	s.archivePrecision = precision
	s.archiveQuantized = quantized
}

// buildInfo assembles the response (separated from the handler so qdserve can
// log the same facts at startup).
func (s *Server) buildInfo() BuildInfoResponse {
	out := BuildInfoResponse{
		ArchiveVersion: s.archiveVersion,
		Precision:      s.archivePrecision,
		Quantized:      s.archiveQuantized,
	}
	if s.dyn != nil {
		st := s.dyn.Stats()
		out.Dynamic = true
		out.Images = st.Live
		out.Epoch = st.Epoch
		out.Segments = st.Segments
		out.MemRows = st.MemRows
		out.Tombstones = st.Tombstones
		out.Seals = st.Seals
		out.Compactions = st.Compactions
		return withDebugBuildInfo(out)
	}
	if s.shard != nil {
		m := s.shard.Meta()
		idx := m.ShardIndex
		out.ShardIndex = &idx
		out.ShardCount = m.ShardCount
	}
	info := s.Info()
	out.Images, out.TreeHeight = info.Images, info.TreeHeight
	return withDebugBuildInfo(out)
}

// withDebugBuildInfo stamps the binary's VCS identification onto the
// response.
func withDebugBuildInfo(out BuildInfoResponse) BuildInfoResponse {
	if bi, ok := debug.ReadBuildInfo(); ok {
		out.GoVersion = bi.GoVersion
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				out.Revision = kv.Value
			case "vcs.time":
				out.VCSTime = kv.Value
			case "vcs.modified":
				out.VCSModified = kv.Value == "true"
			}
		}
	}
	return out
}

// BuildInfo reports the served binary's build identification and corpus shape
// (exported for qdserve's startup log).
func (s *Server) BuildInfo() BuildInfoResponse { return s.buildInfo() }

// handleBuildInfo serves the binary/corpus identification.
func (s *Server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.buildInfo())
}

// LatencyResponse is the /v1/latency body: for every digest (engine phases
// and HTTP endpoints), quantile summaries over each lookback window. With
// ?detail=1 the full per-window bucket vectors ride along so a router can
// merge digests across replicas instead of averaging quantiles (which is
// statistically meaningless).
type LatencyResponse struct {
	Windows []string          `json:"windows"`
	Digests obs.LatencyReport `json:"digests"`
	Detail  obs.DigestDetail  `json:"detail,omitempty"`
}

// handleLatency serves the sliding-window latency digests.
func (s *Server) handleLatency(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	labels := make([]string, len(obs.DefaultWindows))
	for i, win := range obs.DefaultWindows {
		labels[i] = obs.WindowLabel(win)
	}
	resp := LatencyResponse{
		Windows: labels,
		Digests: s.obs.Windows().Report(nil),
	}
	if r.URL.Query().Get("detail") == "1" {
		resp.Detail = s.obs.Windows().ReportDetail(nil)
	}
	writeJSON(w, http.StatusOK, resp)
}

// SlowResponse is the /v1/slow body: the retained slow-query exemplars,
// slowest first.
type SlowResponse struct {
	Slowest []obs.SlowQuery `json:"slowest"`
}

// handleSlow serves the slow-query exemplar log.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	slowest := s.slow.Slowest()
	if slowest == nil {
		slowest = []obs.SlowQuery{}
	}
	writeJSON(w, http.StatusOK, SlowResponse{Slowest: slowest})
}
