package benchrec

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// ServingSample is one endpoint's aggregate from a load-generation run:
// request counts, sustained throughput, and latency percentiles.
type ServingSample struct {
	// Endpoint is the route the sample aggregates ("POST /v1/plan").
	Endpoint string `json:"endpoint"`
	// Requests is the number of requests that completed with a 2xx.
	Requests int `json:"requests"`
	// Errors is the number that failed (transport error or non-2xx);
	// 503s from the admission limits land here by design.
	Errors int `json:"errors"`
	// RequestsPerSec is Requests over the run's wall time.
	RequestsPerSec float64 `json:"requestsPerSec"`
	// P50Ms, P90Ms, and P99Ms are latency quantiles over the successful
	// requests, in milliseconds.
	P50Ms float64 `json:"p50Ms"`
	P90Ms float64 `json:"p90Ms"`
	P99Ms float64 `json:"p99Ms"`
}

// ServingSingleflight is the memo-dedup evidence from a run: the server's
// cache counters after the load, scraped from /metrics. Shared counts
// lookups satisfied by waiting on a concurrent caller's in-flight
// computation — every one is a duplicate computation singleflight avoided.
type ServingSingleflight struct {
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	CacheShared int64 `json:"cacheShared"`
	// DedupedPercent is CacheShared/(CacheMisses+CacheShared)·100: the
	// share of cold computations that concurrent identical load would have
	// duplicated without coalescing.
	DedupedPercent float64 `json:"dedupedPercent"`
}

// ServingRecord is the whole serving snapshot written to
// BENCH_serving.json by cmd/loadgen.
type ServingRecord struct {
	Benchmark  string `json:"benchmark"`
	Date       string `json:"date"`
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Clients is the number of concurrent load-generating connections.
	Clients int `json:"clients"`
	// DurationSec is the measured wall time of the run.
	DurationSec float64 `json:"durationSec"`
	// TotalRequests and TotalRequestsPerSec aggregate every endpoint.
	TotalRequests       int     `json:"totalRequests"`
	TotalRequestsPerSec float64 `json:"totalRequestsPerSec"`
	// PlanPoints is the number of strong-scaling plan points the server
	// reports having served during the run.
	PlanPoints int64 `json:"planPoints"`
	// Overloads is how many requests the per-endpoint concurrency limits
	// turned away with 503 — the admission-control pressure reading.
	Overloads int64 `json:"overloads"`
	// Singleflight is the memo-dedup evidence.
	Singleflight ServingSingleflight `json:"singleflight"`
	// Samples holds the per-endpoint aggregates.
	Samples []ServingSample `json:"samples"`
}

// NewServingRecord stamps the environment fields so records are comparable
// across machines and PRs, mirroring Record.
func NewServingRecord(clients int) ServingRecord {
	return ServingRecord{
		Benchmark:  "Serving",
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    clients,
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the durations by
// nearest-rank on a sorted copy; zero when the slice is empty.
func Quantile(durations []time.Duration, q float64) time.Duration {
	if len(durations) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(durations))
	copy(sorted, durations)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// ServingSampleOf aggregates one endpoint's successful latencies and error
// count into a sample over the given wall time.
func ServingSampleOf(endpoint string, latencies []time.Duration, errors int, wall time.Duration) ServingSample {
	s := ServingSample{
		Endpoint: endpoint,
		Requests: len(latencies),
		Errors:   errors,
		P50Ms:    float64(Quantile(latencies, 0.50)) / 1e6,
		P90Ms:    float64(Quantile(latencies, 0.90)) / 1e6,
		P99Ms:    float64(Quantile(latencies, 0.99)) / 1e6,
	}
	if wall > 0 {
		s.RequestsPerSec = float64(len(latencies)) / wall.Seconds()
	}
	return s
}

// WriteFile writes the serving record as indented JSON, the format the
// repo tracks in git as BENCH_serving.json.
func (rec ServingRecord) WriteFile(path string) error {
	return writeJSONFile(rec, path)
}
