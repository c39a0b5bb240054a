// Command parmmd serves the paper's decision data over HTTP: Theorem 3
// lower bounds, optimal processor grids, closed-form runtime predictions,
// and asynchronous simulated runs, as a versioned JSON API.
//
//	parmmd -addr :8080
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/lowerbound \
//	    -d '{"n1":9600,"n2":2400,"n3":600,"p":512}'
//
// Endpoints: POST /v1/lowerbound (single, batch, and envelope),
// POST /v1/grid, POST /v1/predict, POST /v1/simulate (async; poll
// GET /v1/jobs/{id}, list with GET /v1/jobs?state=&limit=&cursor=, cancel
// with DELETE), POST /v1/plan (strong-scaling sweeps; large ranges stream
// NDJSON, capped at -max-plan-points per problem), POST /v1/bound
// (HBL lower bounds for arbitrary array programs), GET /healthz,
// GET /metrics (the operational counters, in Prometheus text format), and
// — with -pprof — the net/http/pprof profiles under GET /debug/pprof/. With
// -artifact-dir, jobs store durable artifacts (Chrome traces via
// "trace": true, result JSON/CSV, async plan NDJSON via "job": true)
// served by GET /v1/jobs/{id}/artifacts[/{name}] with Range support; the
// artifacts survive job eviction. With -push-addr, every metric family is
// also pushed to a statsd sink each -push-interval (counters as interval
// deltas, histograms as count/sum plus p50/p90/p99 gauges). Expensive
// pure computations are memoized in a sharded LRU with singleflight
// coalescing; synchronous endpoints admit at most -compute-concurrency
// (plans: -plan-concurrency) requests at once and answer 503 beyond;
// simulations run on a bounded job pool with per-job deadlines, and
// finished jobs stay queryable for -job-ttl (capped at -job-retain) before
// eviction. Every request is answered with an X-Request-ID and logged as
// one JSON line on stderr. SIGINT/SIGTERM shut down gracefully: the
// listener closes, then in-flight jobs drain (up to -drain), then whatever
// remains is cancelled through its context.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheSize := flag.Int("cache", 4096, "memo cache capacity (entries)")
	workers := flag.Int("workers", 0, "job pool width (0: GOMAXPROCS)")
	queue := flag.Int("queue", 64, "job queue depth (full queue answers 503)")
	jobTimeout := flag.Duration("job-timeout", time.Minute, "per-job deadline (negative: none)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain budget for in-flight jobs")
	maxFlops := flag.Float64("max-sim-flops", 1e9, "largest n1·n2·n3 a simulation may request")
	maxProcs := flag.Int("max-sim-procs", 1<<20, "largest P a simulation may request")
	maxTopoProcs := flag.Int("max-topo-procs", 1<<17, "largest P a synchronous topology prediction may request")
	maxPlanPoints := flag.Int("max-plan-points", 1<<20, "largest point count a /v1/plan problem may expand to")
	planInline := flag.Int("plan-inline", 512, "total plan points up to which /v1/plan answers inline JSON instead of NDJSON")
	planConc := flag.Int("plan-concurrency", 4, "concurrent /v1/plan requests admitted before 503")
	computeConc := flag.Int("compute-concurrency", 256, "concurrent synchronous compute requests admitted before 503")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	jobTTL := flag.Duration("job-ttl", 10*time.Minute, "how long finished jobs stay queryable (negative: forever)")
	jobRetain := flag.Int("job-retain", 4096, "max finished jobs kept regardless of age (negative: uncapped)")
	accessLog := flag.Bool("access-log", true, "log one JSON line per request to stderr")
	artifactDir := flag.String("artifact-dir", "", "directory for durable job artifacts (empty: artifacts disabled)")
	artifactMax := flag.Int64("artifact-max-bytes", 0, "per-artifact size cap in bytes (0: 64 MiB)")
	pushAddr := flag.String("push-addr", "", "statsd sink for pushed metrics: udp://host:port, tcp://host:port, or host:port (empty: push disabled)")
	pushInterval := flag.Duration("push-interval", 10*time.Second, "metrics push flush interval")
	pushPrefix := flag.String("push-prefix", "parmmd", "statsd key prefix for pushed metrics")
	flag.Parse()

	// Turn on the simulator/collective instrumentation so /metrics carries
	// machine_* and collective_* families; the flag costs one atomic load
	// per counter site, and the service exists to run simulations worth
	// observing.
	obs.SetEnabled(true)

	cfg := service.Config{
		CacheSize:          *cacheSize,
		Workers:            *workers,
		QueueDepth:         *queue,
		JobTimeout:         *jobTimeout,
		MaxSimFlops:        *maxFlops,
		MaxSimProcs:        *maxProcs,
		MaxTopoProcs:       *maxTopoProcs,
		MaxPlanPoints:      *maxPlanPoints,
		PlanInlineLimit:    *planInline,
		PlanConcurrency:    *planConc,
		ComputeConcurrency: *computeConc,
		EnablePprof:        *pprofOn,
		JobRetention:       *jobTTL,
		MaxJobsRetained:    *jobRetain,
	}
	if *accessLog {
		cfg.AccessLog = os.Stderr
	}
	if *artifactDir != "" {
		fs, err := store.NewFS(*artifactDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parmmd: %v\n", err)
			os.Exit(1)
		}
		cfg.ArtifactStore = fs
		cfg.MaxArtifactBytes = *artifactMax
	}
	srv := service.New(cfg)
	if *pushAddr != "" {
		pusher, err := obs.NewPusher(obs.PushConfig{
			Addr:       *pushAddr,
			Interval:   *pushInterval,
			Prefix:     *pushPrefix,
			Registries: []*obs.Registry{srv.Registry(), obs.Default},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "parmmd: %v\n", err)
			os.Exit(1)
		}
		// Closed on shutdown below: the final flush ships the last
		// interval's deltas before the process exits.
		defer pusher.Close()
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "parmmd: listening on %s\n", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "parmmd: %v, shutting down\n", sig)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "parmmd: %v\n", err)
		os.Exit(1)
	}

	// Stop the listener first so no new jobs arrive, then drain the pool.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "parmmd: http shutdown: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "parmmd: job drain: %v\n", err)
	}
}
