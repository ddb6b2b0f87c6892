// Command qdserve exposes a built retrieval database over the HTTP/JSON API
// of internal/server — the paper's client/server configuration (§4). Thin
// clients drive hosted feedback sessions; smart clients download the
// representative payload once (GET /v1/payload), run feedback locally, and
// touch the server only for the final localized k-NN (POST /v1/query).
//
// Usage:
//
//	qdserve -db db.gob -addr :8399        # serve a qdbuild archive
//	qdserve -images 1200 -addr :8399      # build a small corpus and serve it
package main

import (
	"context"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"qdcbir"
	"qdcbir/internal/core"
	"qdcbir/internal/dataset"
	"qdcbir/internal/img"
	"qdcbir/internal/obs"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/server"
	"qdcbir/internal/shard"
	"qdcbir/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8399", "listen address")
		path     = flag.String("db", "", "database file written by qdbuild (empty = build in-memory)")
		images   = flag.Int("images", 1200, "corpus size when building in-memory")
		seed     = flag.Int64("seed", 1, "build seed")
		ui       = flag.Bool("ui", false, "serve the browser front end at /ui (in-memory build only; keeps rendered images)")
		parallel = flag.Int("parallelism", 0, "worker count for build and query pools (0 = one per CPU)")
		debug    = flag.Bool("debug", false, "expose net/http/pprof profiling under /debug/pprof/")
		digests  = flag.Duration("digest-interval", time.Minute, "how often to log the 1m windowed latency digests (0 disables)")
		quantize = flag.Bool("quantized", false, "run k-NN phases behind the SQ8 row filter (adopts the archive's quantizer when present, else trains one; results are identical)")
		queryTO  = flag.Duration("query-timeout", 0, "server-side time budget per request (0 = none); expiry returns a structured 503 with Retry-After")
		dynamic  = flag.Bool("dynamic", false, "serve through the segmented online-ingest engine: POST /v1/images inserts, DELETE /v1/images/{id} tombstones, queries pin epoch snapshots (dynamic v4 archives enable this automatically)")
		maxConc  = flag.Int("max-concurrent", 0, "admission control: searches executing at once (0 disables admission control)")
		queueCap = flag.Int("queue-bound", 64, "admission control: requests waiting per endpoint before shedding with 503 overloaded")
		shedP99  = flag.Duration("shed-p99", 0, "p99 latency target for backpressure: while an endpoint's 1m p99 exceeds it, the effective queue bound shrinks to a quarter (0 disables)")
	)
	flag.Parse()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if *ui && *path != "" {
		fmt.Fprintln(os.Stderr, "qdserve: -ui requires an in-memory build (archives do not store rasters)")
		os.Exit(2)
	}
	if *ui && *dynamic {
		fmt.Fprintln(os.Stderr, "qdserve: -ui is unavailable in -dynamic mode (the ingest corpus has no rasters)")
		os.Exit(2)
	}
	// One observer for the process: the engine reports session/query telemetry
	// into it and the server adopts it, so /metrics and /v1/stats see both.
	observer := obs.New(obs.NewRegistry())
	ld, err := load(*path, *images, *seed, *ui, *parallel, *quantize, *dynamic, observer)
	if err != nil {
		log.Error("load failed", "err", err)
		os.Exit(1)
	}
	var srv *server.Server
	switch {
	case ld.replica != nil:
		srv = server.NewShard(ld.replica, observer)
		m := ld.replica.Meta()
		log.Info("shard replica mode",
			"shard", m.ShardIndex, "of", m.ShardCount,
			"local_images", m.LocalImages, "corpus_images", m.Images,
			"corpus_sig", fmt.Sprintf("%016x", m.CorpusSig))
	case ld.dyn != nil:
		srv = server.NewDynamic(ld.dyn, observer)
		st := ld.dyn.Stats()
		log.Info("dynamic ingest mode",
			"epoch", st.Epoch, "segments", st.Segments, "mem_rows", st.MemRows,
			"tombstones", st.Tombstones, "live", st.Live)
	default:
		srv = server.New(ld.eng, ld.label)
	}
	srv.SetLogger(log)
	srv.SetQueryTimeout(*queryTO)
	srv.SetArchiveInfo(ld.version, ld.precision, ld.quantized)
	if *maxConc > 0 {
		srv.SetScheduler(server.SchedConfig{
			MaxConcurrent: *maxConc,
			QueueBound:    *queueCap,
			ShedP99:       *shedP99,
		})
		log.Info("scheduler enabled",
			"max_concurrent", *maxConc, "queue_bound", *queueCap, "shed_p99", *shedP99)
	}
	if ld.rasters != nil {
		srv.SetImages(ld.rasters)
		log.Info("web UI enabled", "url", fmt.Sprintf("http://localhost%s/ui", *addr))
	}
	handler := srv.Handler()
	if *debug {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Info("pprof enabled", "path", "/debug/pprof/")
	}
	bi := srv.BuildInfo()
	log.Info("qdserve starting",
		"addr", *addr,
		"images", bi.Images, "representatives", srv.Info().Representatives, "tree_height", bi.TreeHeight,
		"archive_version", ld.version, "precision", ld.precision, "quantized", ld.quantized,
		"go", bi.GoVersion, "revision", bi.Revision, "vcs_modified", bi.VCSModified)
	log.Info("observability endpoints",
		"metrics", "/metrics", "stats", "/v1/stats", "traces", "/v1/traces",
		"latency", "/v1/latency", "slow", "/v1/slow",
		"buildinfo", "/v1/buildinfo", "health", "/healthz")

	// SIGINT/SIGTERM drain in-flight requests (whose contexts cancel any
	// running localized subqueries) before exiting; the timeouts cap how long
	// a slow or stuck client can pin a connection.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      60 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *digests > 0 {
		go logDigests(ctx, log, observer, *digests)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
		stop()
		log.Info("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("shutdown failed", "err", err)
			os.Exit(1)
		}
	}
}

// logDigests periodically summarizes the sliding-window latency digests to the
// server log: one line per active digest covering the shortest default window
// (skipping digests that saw no samples, so an idle server stays quiet). The
// full three-window report stays available at /v1/latency.
func logDigests(ctx context.Context, log *slog.Logger, o *obs.Observer, every time.Duration) {
	window := obs.DefaultWindows[0]
	label := obs.WindowLabel(window)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		rep := o.Windows().Report([]time.Duration{window})
		names := make([]string, 0, len(rep))
		for name := range rep {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := rep[name][label]
			if st.Count == 0 {
				continue
			}
			log.Info("latency digest",
				"digest", name, "window", label, "count", st.Count,
				"p50_ms", 1e3*st.P50, "p95_ms", 1e3*st.P95, "p99_ms", 1e3*st.P99)
		}
	}
}

// loaded is everything main needs from whichever archive flavor was opened.
type loaded struct {
	eng       *core.Engine
	dyn       *qdcbir.Dynamic // non-nil in dynamic online-ingest mode
	label     server.Labeler
	rasters   []*img.Image
	replica   *shard.Replica // non-nil in shard-replica mode
	version   int            // archive format version (0 = in-memory or legacy gob)
	precision string         // "float64", "float32", or "sq8"
	quantized bool
}

func precisionTag(quantized, f32 bool) string {
	switch {
	case quantized:
		return "sq8"
	case f32:
		return "float32"
	default:
		return "float64"
	}
}

// load opens the database by sniffing the archive's magic header: a shard
// slice (internal/shard), a dynamic segmented archive (Dynamic.Save), a
// versioned system archive (qdcbir.Save, what qdbuild writes), or the
// header-less gob qdbuild wrote before that. An empty path builds a small
// corpus in process. dynamic forces the online-ingest engine: static archives
// and in-process builds are adopted as a single sealed segment; v4 archives
// select it automatically.
func load(path string, images int, seed int64, keepImages bool, parallelism int, quantize, dynamic bool, observer *obs.Observer) (*loaded, error) {
	if path == "" && dynamic {
		cfg := qdcbir.SmallConfig()
		cfg.Seed = seed
		cfg.Images = images
		cfg.Parallelism = parallelism
		cfg.Quantized = quantize
		cfg.VectorMode = true // dynamic mode serves vectors, not rasters
		sys, err := qdcbir.Build(cfg)
		if err != nil {
			return nil, err
		}
		dyn, err := qdcbir.OpenDynamic(sys, qdcbir.DynamicConfig{Observer: observer})
		if err != nil {
			return nil, err
		}
		return &loaded{
			dyn: dyn, precision: precisionTag(dyn.Config().Quantized, dyn.Config().Float32),
			quantized: dyn.Config().Quantized,
		}, nil
	}
	if path == "" {
		spec := dataset.SmallSpec(seed, 25, images)
		corpus := dataset.Build(spec, dataset.Options{
			Seed:        seed + 1,
			KeepImages:  keepImages,
			Parallelism: parallelism,
		})
		structure := rfs.Build(corpus.Vectors, rfs.BuildConfig{
			RepFraction: 0.2,
			Tree:        rstar.Config{MaxFill: 24},
			TargetFill:  20,
			Seed:        seed + 2,
			Parallelism: parallelism,
		})
		eng := core.NewEngine(structure, core.Config{Parallelism: parallelism, Observer: observer, Quantized: quantize})
		return &loaded{
			eng: eng, label: corpus.SubconceptOf, rasters: corpus.Images,
			precision: precisionTag(quantize, false), quantized: quantize,
		}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	head := make([]byte, 4)
	_, headErr := io.ReadFull(f, head)
	f.Close()
	if headErr == nil && shard.IsArchiveHeader(head) {
		if dynamic {
			return nil, fmt.Errorf("shard archive %s: shard replicas are read-only slices and cannot be served dynamically", path)
		}
		// The replica's rows and codes are mapped outside the Go heap and
		// held for the life of the process: in-flight legs may read them
		// until it exits, so it never closes the replica.
		rep, _, err := qdcbir.OpenShardFile(path)
		if err != nil {
			return nil, fmt.Errorf("shard archive %s: %w", path, err)
		}
		m := rep.Meta()
		return &loaded{
			replica: rep,
			version: m.ArchiveVersion, precision: m.Precision,
		}, nil
	}
	if v, ok := qdcbir.ArchiveHeaderVersion(head); headErr == nil && ok {
		if v == qdcbir.DynamicArchiveVersion || dynamic {
			// A v4 archive is dynamic by construction; -dynamic adopts a
			// static archive as a single sealed segment.
			dyn, err := qdcbir.LoadDynamicFile(path, observer)
			if err != nil {
				return nil, fmt.Errorf("archive %s: %w", path, err)
			}
			return &loaded{
				dyn: dyn, version: v,
				precision: precisionTag(dyn.Config().Quantized, dyn.Config().Float32),
				quantized: dyn.Config().Quantized,
			}, nil
		}
		sys, err := qdcbir.LoadFile(path)
		if err != nil {
			return nil, fmt.Errorf("archive %s: %w", path, err)
		}
		sys = sys.WithObserver(observer)
		return &loaded{
			eng: sys.Engine(), label: sys.SubconceptOf,
			version:   v,
			precision: precisionTag(sys.Quantized(), sys.Config().Float32),
			quantized: sys.Quantized(),
		}, nil
	}
	if dynamic {
		return nil, fmt.Errorf("archive %s: legacy gob archives carry no corpus store and cannot be served dynamically (re-save with qdbuild first)", path)
	}
	f, err = os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var arch struct {
		Infos []dataset.Info
		RFS   *rfs.Snapshot
		Quant *store.QuantParts
	}
	if err := gob.NewDecoder(f).Decode(&arch); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	structure, err := rfs.FromSnapshot(arch.RFS)
	if err != nil {
		return nil, err
	}
	if quantize && arch.Quant != nil {
		qz, err := store.FromParts(*arch.Quant)
		if err != nil {
			return nil, fmt.Errorf("quantizer: %w", err)
		}
		if err := structure.Tree().AdoptQuantized(qz); err != nil {
			return nil, fmt.Errorf("quantizer: %w", err)
		}
	}
	infos := arch.Infos
	label := func(id int) string {
		if id < 0 || id >= len(infos) {
			return ""
		}
		return infos[id].Subconcept
	}
	// An unadopted quantized structure trains its quantizer inside
	// core.NewEngine (Config.Quantized).
	eng := core.NewEngine(structure, core.Config{Parallelism: parallelism, Observer: observer, Quantized: quantize})
	return &loaded{
		eng: eng, label: label,
		precision: precisionTag(quantize, false), quantized: quantize,
	}, nil
}
