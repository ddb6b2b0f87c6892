// Command qdrouter fronts a fleet of qdserve shard replicas with a
// scatter-gather tier (see internal/router): fleet verification at startup,
// health-checked failover between replicas of a shard, k-NN and finalize
// rounds fanned out per shard and merged bit-identically to the single-node
// engine, and feedback sessions hosted here, over the fleet topology, so a
// feedback round makes no replica request. A restart loses those sessions;
// an exported session state resumes on any router over the same fleet.
//
// Usage:
//
//	qdrouter -addr :8390 \
//	  -replica 0=http://localhost:8400 \
//	  -replica 1=http://localhost:8401 \
//	  -replica 2=http://localhost:8402
//
// Repeat -replica shard=url for every backend (several per shard for
// failover). -wait retries fleet verification while backends boot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qdcbir/internal/router"
)

// replicaFlags accumulates repeated -replica shard=url values.
type replicaFlags []router.ReplicaConfig

func (f *replicaFlags) String() string {
	parts := make([]string, len(*f))
	for i, rc := range *f {
		parts[i] = fmt.Sprintf("%d=%s", rc.Shard, rc.URL)
	}
	return strings.Join(parts, ",")
}

func (f *replicaFlags) Set(v string) error {
	eq := strings.IndexByte(v, '=')
	if eq <= 0 {
		return fmt.Errorf("want shard=url, got %q", v)
	}
	sh, err := strconv.Atoi(v[:eq])
	if err != nil || sh < 0 {
		return fmt.Errorf("bad shard index in %q", v)
	}
	*f = append(*f, router.ReplicaConfig{Shard: sh, URL: v[eq+1:]})
	return nil
}

func main() {
	var replicas replicaFlags
	var (
		addr     = flag.String("addr", ":8390", "listen address")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-backend request timeout")
		health   = flag.Duration("health-interval", 2*time.Second, "health probe interval")
		wait     = flag.Duration("wait", 0, "keep retrying fleet verification this long before giving up (for fleets still booting)")
		parallel = flag.Int("parallelism", 0, "concurrent shard legs per scatter (0 = one per shard)")
		scrape   = flag.Duration("scrape-interval", 5*time.Second, "fleet telemetry scrape interval for /v1/fleet/* (negative disables the loop; the endpoints then scrape on demand)")
	)
	flag.Var(&replicas, "replica", "backend as shard=url (repeatable)")
	flag.Parse()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	rt, err := router.New(router.Config{
		Replicas:       replicas,
		RequestTimeout: *timeout,
		HealthInterval: *health,
		Parallelism:    *parallel,
		ScrapeInterval: *scrape,
		Logger:         log,
	})
	if err != nil {
		log.Error("config invalid", "err", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if err := awaitFleet(ctx, rt.VerifyFleet, *wait, log); err != nil {
		log.Error("fleet verification failed", "err", err)
		os.Exit(1)
	}
	rt.Start(ctx)

	log.Info("qdrouter starting",
		"addr", *addr,
		"shards", rt.Shards(),
		"images", rt.Meta().Images,
		"precision", rt.Meta().Storage,
		"archive_version", rt.Meta().ArchiveVersion)

	hs := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      60 * time.Second,
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

// Fleet verification is retried first after retryFirst, the interval
// doubling to retryMax: replicas still loading their archives refuse the
// connection at once, so a short interval costs little and the router is
// verified within retryMax of its last replica coming up. A failure is
// logged at most once per logEvery.
const (
	retryFirst = 10 * time.Millisecond
	retryMax   = 50 * time.Millisecond
	logEvery   = time.Second
)

// awaitFleet calls verify until it succeeds, ctx ends, or wait has passed
// since the first call, and returns nil or the last error. With wait 0 it
// calls verify once.
func awaitFleet(ctx context.Context, verify func(context.Context) error, wait time.Duration, log *slog.Logger) error {
	deadline := time.Now().Add(wait)
	interval := retryFirst
	var logged time.Time
	for {
		err := verify(ctx)
		if err == nil {
			return nil
		}
		now := time.Now()
		if now.After(deadline) || ctx.Err() != nil {
			return err
		}
		if logged.IsZero() || now.Sub(logged) >= logEvery {
			log.Info("fleet not ready, retrying", "err", err)
			logged = now
		}
		select {
		case <-ctx.Done():
		case <-time.After(interval):
		}
		interval = min(2*interval, retryMax)
	}
}
