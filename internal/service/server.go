package service

import (
	"context"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/store"
)

// Config tunes a Server. The zero value selects sensible defaults
// throughout.
type Config struct {
	// CacheSize bounds the memo cache (total entries); ≤ 0 selects 4096.
	CacheSize int
	// Workers is the job pool width; ≤ 0 selects the experiment driver's
	// width (experiments.Workers, i.e. GOMAXPROCS unless overridden).
	Workers int
	// QueueDepth bounds the job queue; ≤ 0 selects 64. A full queue makes
	// /v1/simulate answer 503 rather than buffering without bound.
	QueueDepth int
	// JobTimeout is the per-job deadline; 0 selects a minute, negative
	// disables the deadline.
	JobTimeout time.Duration
	// MaxSimFlops rejects simulation requests whose n1·n2·n3 exceeds it
	// (the simulator is exact, not sampled, so flops are real work); ≤ 0
	// selects 1e9.
	MaxSimFlops float64
	// MaxSimProcs rejects simulation requests whose P exceeds it, so one
	// request cannot exhaust the daemon's memory (each rank costs a task
	// struct and a parked goroutine stack); ≤ 0 selects 1 << 20.
	MaxSimProcs int
	// MaxSearchProcs rejects grid/predict requests whose P exceeds it (the
	// divisor search is linear in P); ≤ 0 selects 1 << 24.
	MaxSearchProcs int
	// MaxTopoProcs rejects topology-aware predict requests whose P exceeds
	// it: the synchronous worst-fiber sweep is linear in P on fabrics
	// without translation symmetry, so it gets its own ceiling below
	// MaxSearchProcs. A fabric's own charge-oracle limit (topo.MaxP, which
	// binds only custom fabrics without closed-form link loads) tightens
	// the effective limit further; rejections name whichever limit fired.
	// ≤ 0 selects 1 << 17.
	MaxTopoProcs int
	// MaxBatch bounds the batch length of batch requests; ≤ 0 selects
	// 1024.
	MaxBatch int
	// MaxPlanPoints caps how many points a single /v1/plan problem's P
	// range may expand to; ≤ 0 selects 1 << 20. Oversize ranges answer 400
	// with kind "bad_plan_range".
	MaxPlanPoints int
	// PlanInlineLimit is the total point count up to which /v1/plan
	// answers with one inline JSON envelope; larger plans stream NDJSON.
	// ≤ 0 selects 512.
	PlanInlineLimit int
	// PlanConcurrency caps concurrently executing /v1/plan requests; the
	// excess answers 503 with kind "overloaded" immediately (plans are
	// long-lived streams, so queueing them would hold connections). ≤ 0
	// selects 4.
	PlanConcurrency int
	// ComputeConcurrency caps concurrently executing synchronous compute
	// requests (/v1/lowerbound, /v1/grid, /v1/predict) the same way; ≤ 0
	// selects 256.
	ComputeConcurrency int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ so simulator
	// hotspots are profilable in production. Off by default: the profile
	// endpoints expose internals and can themselves burn CPU, so they are
	// opt-in (parmmd -pprof).
	EnablePprof bool
	// JobRetention is how long finished jobs stay queryable through
	// /v1/jobs/{id} before eviction; 0 selects ten minutes, negative
	// retains forever.
	JobRetention time.Duration
	// MaxJobsRetained caps the number of finished jobs kept regardless of
	// age (oldest evicted first); 0 selects 4096, negative removes the cap.
	MaxJobsRetained int
	// AccessLog, when non-nil, receives one structured JSON line per
	// request (id, method, path, matched endpoint, status, bytes,
	// duration). Each response also carries the id in X-Request-ID,
	// honoring an inbound header of that name for end-to-end correlation.
	AccessLog io.Writer
	// ArtifactStore, when non-nil, enables durable job artifacts: jobs
	// write large outputs (Chrome traces, batch CSVs, plan NDJSON) into
	// the store, served by GET /v1/jobs/{id}/artifacts[/{name}] with
	// Range support — and, unlike job metadata, surviving retention
	// eviction. Nil disables artifacts; requests that need them (e.g.
	// "trace": true) then answer 400.
	ArtifactStore store.Store
	// MaxArtifactBytes caps a single artifact; ≤ 0 selects
	// store.DefaultMaxArtifactBytes (64 MiB).
	MaxArtifactBytes int64
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.Workers <= 0 {
		c.Workers = experiments.Workers()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = time.Minute
	}
	if c.JobTimeout < 0 {
		c.JobTimeout = 0
	}
	if c.MaxSimFlops <= 0 {
		c.MaxSimFlops = 1e9
	}
	if c.MaxSimProcs <= 0 {
		c.MaxSimProcs = 1 << 20
	}
	if c.MaxSearchProcs <= 0 {
		c.MaxSearchProcs = 1 << 24
	}
	if c.MaxTopoProcs <= 0 {
		c.MaxTopoProcs = 1 << 17
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.MaxPlanPoints <= 0 {
		c.MaxPlanPoints = 1 << 20
	}
	if c.PlanInlineLimit <= 0 {
		c.PlanInlineLimit = 512
	}
	if c.PlanConcurrency <= 0 {
		c.PlanConcurrency = 4
	}
	if c.ComputeConcurrency <= 0 {
		c.ComputeConcurrency = 256
	}
	return c
}

// limiter is a non-blocking concurrency gate: acquire fails immediately at
// the cap so the caller can answer 503 instead of queueing work the client
// may no longer be waiting for.
type limiter chan struct{}

func newLimiter(n int) limiter { return make(limiter, n) }

func (l limiter) acquire() bool {
	select {
	case l <- struct{}{}:
		return true
	default:
		return false
	}
}

func (l limiter) release() { <-l }

// Server is the parmmd HTTP service: the v1 API over the lower-bound
// calculator, grid selector, runtime model, and simulator, with the memo
// cache and the async job pool behind it. Create with New, mount Handler,
// and Shutdown to drain.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	cache  *Cache
	jobs   *Runner
	logger *slog.Logger

	// reg holds this server's metric families (cache, jobs, HTTP). It is
	// per-instance, not process-global, so tests can run many Servers
	// without families colliding; /metrics concatenates it with the
	// process-wide obs.Default carrying the simulator counters.
	reg     *obs.Registry
	latency map[string]*obs.Histogram // request-duration histograms by route pattern

	// planLimit and computeLimit are the per-endpoint-group concurrency
	// gates; overloads counts requests they turned away with 503.
	planLimit    limiter
	computeLimit limiter
	overloads    atomic.Int64
	// planPoints counts plan points served (inline and streamed).
	planPoints atomic.Int64

	// artifacts is the content-addressed catalog over Config.ArtifactStore;
	// nil when artifacts are disabled.
	artifacts        *store.Artifacts
	artifactsWritten atomic.Int64
	artifactBytes    atomic.Int64
	artifactFetches  atomic.Int64

	requests  atomic.Int64
	reqID     atomic.Int64
	jobsTotal atomic.Int64
	// wordsSimulated accumulates float64 words as IEEE-754 bits under CAS,
	// so /debug/vars needs no lock.
	wordsSimulated atomic.Uint64
}

// New builds a Server and starts its job pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: NewCache(cfg.CacheSize),
		jobs: NewRunnerConfig(RunnerConfig{
			Workers:     cfg.Workers,
			QueueDepth:  cfg.QueueDepth,
			Timeout:     cfg.JobTimeout,
			Retention:   cfg.JobRetention,
			MaxRetained: cfg.MaxJobsRetained,
		}),
		reg:          obs.NewRegistry(),
		planLimit:    newLimiter(cfg.PlanConcurrency),
		computeLimit: newLimiter(cfg.ComputeConcurrency),
	}
	if cfg.AccessLog != nil {
		s.logger = slog.New(slog.NewJSONHandler(cfg.AccessLog, nil))
	}
	if cfg.ArtifactStore != nil {
		s.artifacts = store.NewArtifacts(cfg.ArtifactStore, cfg.MaxArtifactBytes)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	s.mux.HandleFunc("POST /v1/lowerbound", s.limited(s.computeLimit, s.handleLowerBound))
	s.mux.HandleFunc("POST /v1/bound", s.limited(s.computeLimit, s.handleBound))
	s.mux.HandleFunc("POST /v1/grid", s.limited(s.computeLimit, s.handleGrid))
	s.mux.HandleFunc("POST /v1/predict", s.limited(s.computeLimit, s.handlePredict))
	s.mux.HandleFunc("POST /v1/plan", s.limited(s.planLimit, s.handlePlan))
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/artifacts", s.handleArtifactList)
	s.mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{name}", s.handleArtifactGet)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.registerMetrics()
	return s
}

// limited wraps a handler behind a concurrency gate: at the cap the
// request is refused with 503 "overloaded" before any body is read.
// /v1/simulate needs no gate — its work runs on the bounded job pool
// behind the queue-full 503 — but synchronous endpoints execute on the
// request goroutine, so without a cap a traffic burst would run unbounded
// divisor searches concurrently.
func (s *Server) limited(l limiter, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !l.acquire() {
			s.overloads.Add(1)
			writeError(w, ErrOverloaded)
			return
		}
		defer l.release()
		h(w, r)
	}
}

// registerMetrics builds the server's metric families. Cheap live values
// (cache stats, job states) are exported as func metrics read at scrape
// time; only the request-latency histograms are updated on the request
// path.
func (s *Server) registerMetrics() {
	s.reg.CounterFunc("service_requests_total",
		"HTTP requests served (all endpoints).",
		func() float64 { return float64(s.requests.Load()) })
	s.reg.CounterFunc("service_cache_hits_total",
		"Memo-cache lookups answered from cache.",
		func() float64 { h, _ := s.cache.Stats(); return float64(h) })
	s.reg.CounterFunc("service_cache_misses_total",
		"Memo-cache lookups that had to compute.",
		func() float64 { _, m := s.cache.Stats(); return float64(m) })
	s.reg.CounterFunc("service_cache_shared_total",
		"Memo-cache lookups satisfied by a concurrent caller's in-flight computation (singleflight).",
		func() float64 { return float64(s.cache.Shared()) })
	s.reg.CounterFunc("service_overloads_total",
		"Requests refused with 503 by the per-endpoint concurrency limits.",
		func() float64 { return float64(s.overloads.Load()) })
	s.reg.CounterFunc("service_plan_points_total",
		"Strong-scaling plan points served (inline and streamed).",
		func() float64 { return float64(s.planPoints.Load()) })
	s.reg.GaugeFunc("service_cache_entries",
		"Current memo-cache entries.",
		func() float64 { return float64(s.cache.Len()) })
	s.reg.CounterFunc("service_jobs_submitted_total",
		"Jobs ever accepted by /v1/simulate.",
		func() float64 { return float64(s.jobsTotal.Load()) })
	s.reg.GaugeFunc("service_jobs_inflight",
		"Jobs currently executing.",
		func() float64 { return float64(s.jobs.InFlight()) })
	for _, st := range []JobStatus{JobQueued, JobRunning, JobDone, JobFailed, JobCancelled} {
		st := st
		s.reg.GaugeFunc("service_jobs",
			"Remembered jobs by lifecycle state, after retention eviction.",
			func() float64 { return float64(s.jobs.Counts()[st]) },
			"state", string(st))
	}
	s.reg.CounterFunc("service_jobs_evicted_total",
		"Finished jobs evicted by the retention policy (age or cap).",
		func() float64 { return float64(s.jobs.Evicted()) })
	s.reg.CounterFunc("service_words_simulated_total",
		"Network-wide words moved by completed simulations.",
		s.WordsSimulated)
	s.reg.CounterFunc("service_artifacts_written_total",
		"Job artifacts written to the artifact store.",
		func() float64 { return float64(s.artifactsWritten.Load()) })
	s.reg.CounterFunc("service_artifact_bytes_total",
		"Bytes of job artifacts written to the artifact store.",
		func() float64 { return float64(s.artifactBytes.Load()) })
	s.reg.CounterFunc("service_artifact_fetches_total",
		"Artifact content fetches served (full and ranged).",
		func() float64 { return float64(s.artifactFetches.Load()) })

	s.latency = make(map[string]*obs.Histogram)
	for _, pattern := range []string{
		"GET /healthz", "GET /metrics", "GET /debug/vars",
		"POST /v1/lowerbound", "POST /v1/bound", "POST /v1/grid", "POST /v1/predict",
		"POST /v1/plan", "POST /v1/simulate",
		"GET /v1/jobs", "GET /v1/jobs/{id}", "DELETE /v1/jobs/{id}",
		"GET /v1/jobs/{id}/artifacts", "GET /v1/jobs/{id}/artifacts/{name}",
		"other",
	} {
		s.latency[pattern] = s.reg.Histogram("service_request_seconds",
			"HTTP request latency by route pattern.", nil,
			"endpoint", pattern)
	}
}

// statusRecorder captures the status code and body size written by a
// handler for access logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so NDJSON streaming flushes
// through the access-log wrapper (embedding alone would hide the
// interface: the wrapped method set does not satisfy http.Flusher
// dynamically when r.ResponseWriter does).
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Handler returns the root handler; mount it on an http.Server or
// httptest.Server. It counts requests, assigns each a request id (echoed in
// X-Request-ID, honoring an inbound one), observes per-endpoint latency,
// and — when Config.AccessLog is set — emits one structured log line per
// request.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = "req-" + strconv.FormatInt(s.reqID.Add(1), 10)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		rec.Header().Set("X-Request-ID", id)
		s.mux.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		pattern := "other"
		if _, p := s.mux.Handler(r); p != "" {
			pattern = p
		}
		if h, ok := s.latency[pattern]; ok {
			h.Observe(elapsed.Seconds())
		} else {
			s.latency["other"].Observe(elapsed.Seconds())
		}
		if s.logger != nil {
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("endpoint", pattern),
				slog.Int("status", rec.status),
				slog.Int64("bytes", rec.bytes),
				slog.Duration("duration", elapsed),
			)
		}
	})
}

// handleMetrics serves the Prometheus text exposition: this server's
// families followed by the process-wide simulator families (disjoint name
// spaces, so the concatenation is a valid exposition).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
	obs.Default.WritePrometheus(w)
}

// Shutdown drains the job pool: in-flight and queued jobs get until ctx is
// done to finish, then their contexts are cancelled. Call it after the
// http.Server's own Shutdown so no new jobs arrive while draining.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.jobs.Shutdown(ctx)
}

// Cache exposes the memo cache (for tests and benchmarks).
func (s *Server) Cache() *Cache { return s.cache }

// Jobs exposes the job runner (for tests).
func (s *Server) Jobs() *Runner { return s.jobs }

// Registry exposes this server's metric registry, so a metrics pusher can
// export the per-instance families alongside the process-wide obs.Default.
func (s *Server) Registry() *obs.Registry { return s.reg }

// addWordsSimulated accumulates the words-moved counter.
func (s *Server) addWordsSimulated(words float64) {
	for {
		old := s.wordsSimulated.Load()
		val := math.Float64frombits(old) + words
		if s.wordsSimulated.CompareAndSwap(old, math.Float64bits(val)) {
			return
		}
	}
}

// WordsSimulated returns the accumulated network-wide words moved by
// completed simulations.
func (s *Server) WordsSimulated() float64 {
	return math.Float64frombits(s.wordsSimulated.Load())
}
