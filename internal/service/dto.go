// Package service implements parmmd, the long-running HTTP JSON tuning
// oracle over the library: Theorem 3 lower bounds, generalized HBL
// array-program bounds, optimal grids, runtime predictions, and
// asynchronous simulation jobs, behind a versioned v1 API.
// Expensive pure computations are memoized in a sharded LRU keyed by the
// full input tuple; simulations run on a bounded job pool with per-job
// context cancellation and deadline; /debug/vars exposes the operational
// counters. See DESIGN.md "Service architecture".
package service

import "time"

// Problem identifies one multiplication instance: the shape (an N1×N2
// matrix times an N2×N3 matrix) and the processor count P.
type Problem struct {
	// N1 is the number of rows of A and C.
	N1 int `json:"n1"`
	// N2 is the contracted dimension (columns of A, rows of B).
	N2 int `json:"n2"`
	// N3 is the number of columns of B and C.
	N3 int `json:"n3"`
	// P is the number of processors.
	P int `json:"p"`
}

// LowerBoundRequest is the body of POST /v1/lowerbound. The v1 envelope
// shape is {"problems": [...]}, answered by an Envelope[LowerBoundResponse]
// with per-index partial success. Two legacy shapes are still accepted for
// one version: a single inline Problem (answered by a bare
// LowerBoundResponse) and {"batch": [...]} (answered by a
// BatchLowerBoundResponse, first error failing the whole batch). When
// Problems is non-empty it wins; otherwise Batch; otherwise the inline
// fields.
type LowerBoundRequest struct {
	Problem
	// Problems is the unified v1 envelope form.
	Problems []Problem `json:"problems,omitempty"`
	// Batch is the legacy batch form.
	Batch []Problem `json:"batch,omitempty"`
}

// Envelope is the unified v1 response envelope: Results[i] answers
// Problems[i] from the request, nil when that entry failed; each failure
// appears in Errors with its index. A response with some nil results is
// partial success and still answers 200 — only request-level failures
// (malformed JSON, empty or oversized problem lists) and, for expensive
// endpoints like /v1/plan, validation failures answer non-2xx.
type Envelope[T any] struct {
	Results []*T            `json:"results"`
	Errors  []EnvelopeError `json:"errors,omitempty"`
}

// GridJSON is a processor grid in responses: P1×P2×P3 with P1 partitioning
// n1, P2 the contracted n2, and P3 partitioning n3.
type GridJSON struct {
	// P1 is the grid extent along n1.
	P1 int `json:"p1"`
	// P2 is the grid extent along n2.
	P2 int `json:"p2"`
	// P3 is the grid extent along n3.
	P3 int `json:"p3"`
}

// LowerBoundResponse is the answer for one problem: Theorem 3's bound with
// its regime and decomposition, the decision data for choosing a
// replication strategy.
type LowerBoundResponse struct {
	// Problem echoes the request.
	Problem Problem `json:"problem"`
	// Case is the Theorem 3 regime: 1, 2, or 3.
	Case int `json:"case"`
	// CaseName names the regime ("Case 3 (3D)").
	CaseName string `json:"caseName"`
	// Thresholds holds the regime boundaries [m/n, mn/k²].
	Thresholds [2]float64 `json:"thresholds"`
	// Bound is the Theorem 3 memory-independent lower bound in words per
	// processor: D − (mn+mk+nk)/P.
	Bound float64 `json:"bound"`
	// LeadingTerm is the bound's leading term in the applicable case.
	LeadingTerm float64 `json:"leadingTerm"`
	// Footprint is the paper's D, the Lemma 2 optimum.
	Footprint float64 `json:"footprint"`
}

// BatchLowerBoundResponse is the answer to a batch request.
type BatchLowerBoundResponse struct {
	// Results holds one LowerBoundResponse per batch entry, in order.
	Results []LowerBoundResponse `json:"results"`
}

// GridRequest is the body of POST /v1/grid: a problem, optionally with a
// per-processor memory limit.
type GridRequest struct {
	Problem
	// Mem, when positive, also asks for the cheapest grid whose
	// per-processor footprint fits in Mem words (the §6.2 trade-off).
	Mem float64 `json:"mem,omitempty"`
}

// GridResponse reports the grid selection for a problem.
type GridResponse struct {
	// Problem echoes the request.
	Problem Problem `json:"problem"`
	// Optimal is the integer grid minimizing eq. (3), by exhaustive
	// divisor search.
	Optimal GridJSON `json:"optimal"`
	// CommCost is eq. (3) evaluated on Optimal (words per processor).
	CommCost float64 `json:"commCost"`
	// MemoryCost is Optimal's per-processor footprint in words.
	MemoryCost float64 `json:"memoryCost"`
	// RatioToBound is CommCost divided by the Theorem 3 bound (1 exactly
	// when the bound is attained; 0 when the bound is 0).
	RatioToBound float64 `json:"ratioToBound"`
	// Divides reports whether Optimal divides the matrix dimensions (the
	// exact-attainment assumption of §5.2).
	Divides bool `json:"divides"`
	// Analytic is the real-valued §5.2 grid [g1, g2, g3].
	Analytic [3]float64 `json:"analytic"`
	// CaseGrid is the exact §5.2 integer grid when it exists.
	CaseGrid *GridJSON `json:"caseGrid,omitempty"`
	// CaseGridError explains why CaseGrid is absent (non-integral analytic
	// grid or non-dividing dimensions).
	CaseGridError string `json:"caseGridError,omitempty"`
	// UnderMemory is the cheapest grid fitting in Mem words, when Mem was
	// given and any grid fits.
	UnderMemory *GridJSON `json:"underMemory,omitempty"`
	// UnderMemoryCost is eq. (3) on UnderMemory.
	UnderMemoryCost float64 `json:"underMemoryCost,omitempty"`
	// UnderMemoryFits reports whether any grid fit in Mem (only meaningful
	// when Mem was given).
	UnderMemoryFits bool `json:"underMemoryFits,omitempty"`
}

// TopologyJSON selects an interconnect topology for predictions and
// simulations. The spec strings and placement names are those of
// internal/topo: flat, twolevel=<g>, torus=<d1>x<d2>[x...],
// fattree=<radix>x<levels>, tree=<radix>x<levels>; placements contiguous
// (default) and roundrobin. Invalid values answer 400 with kind
// "bad_topology".
type TopologyJSON struct {
	// Spec names the fabric (e.g. "torus=4x4x4"); its endpoint count must
	// equal the problem's P.
	Spec string `json:"spec"`
	// Place selects the rank embedding; empty means contiguous.
	Place string `json:"place,omitempty"`
}

// PredictProblem is one prediction instance: a problem plus the α-β-γ
// machine model; Grid optionally pins the processor grid (it must multiply
// to P), otherwise the eq. (3)-optimal grid is used.
type PredictProblem struct {
	Problem
	// Grid, when non-zero, is the grid to predict on.
	Grid *GridJSON `json:"grid,omitempty"`
	// Alpha is the per-message latency cost.
	Alpha float64 `json:"alpha"`
	// Beta is the per-word bandwidth cost.
	Beta float64 `json:"beta"`
	// Gamma is the per-flop computation cost.
	Gamma float64 `json:"gamma"`
	// Topology, when present, prices the prediction on a concrete fabric
	// (worst contended route per collective phase) instead of the paper's
	// fully connected network; the response then carries the topology
	// fields.
	Topology *TopologyJSON `json:"topology,omitempty"`
}

// PredictRequest is the body of POST /v1/predict. The v1 envelope shape is
// {"problems": [...]} with one full PredictProblem per entry, answered by
// an Envelope[PredictResponse] with per-index partial success; the legacy
// single inline shape is still accepted for one version and answered by a
// bare PredictResponse.
type PredictRequest struct {
	PredictProblem
	// Problems is the unified v1 envelope form; when non-empty the inline
	// fields are ignored.
	Problems []PredictProblem `json:"problems,omitempty"`
}

// PredictResponse decomposes Algorithm 1's predicted execution time on the
// chosen grid.
type PredictResponse struct {
	// Problem echoes the request.
	Problem Problem `json:"problem"`
	// Grid is the grid the prediction was evaluated on.
	Grid GridJSON `json:"grid"`
	// Total is Compute + Bandwidth + Latency.
	Total float64 `json:"total"`
	// Compute is γ·(local multiply-adds + reduction additions).
	Compute float64 `json:"compute"`
	// Bandwidth is β·(communicated words per processor).
	Bandwidth float64 `json:"bandwidth"`
	// Latency is α·(messages per processor).
	Latency float64 `json:"latency"`
	// Words is the communicated words per processor (the Theorem 3
	// quantity).
	Words float64 `json:"words"`
	// Messages is the per-processor message count.
	Messages float64 `json:"messages"`
	// Topology and Placement echo the fabric the prediction was priced on,
	// present only when the request selected one.
	Topology  string `json:"topology,omitempty"`
	Placement string `json:"placement,omitempty"`
	// FlatTotal is the uniform-model total under the same config, and
	// Slowdown is Total/FlatTotal — the congestion degradation factor.
	// Present only with a topology.
	FlatTotal float64 `json:"flatTotal,omitempty"`
	Slowdown  float64 `json:"slowdown,omitempty"`
}

// SimulateRequest is the body of POST /v1/simulate: run one algorithm (or
// a batch of problems under one job) on the simulated α-β-γ machine. The
// response is a JobResponse; poll GET /v1/jobs/{id} for the result.
type SimulateRequest struct {
	Problem
	// Alg names the algorithm (registry name, case-insensitive): Alg1,
	// AllToAll3D, CARMA, Alg1LowMem, OneD, SUMMA, Cannon, TwoPointFiveD.
	// Empty selects Alg1.
	Alg string `json:"alg,omitempty"`
	// Problems is the unified v1 envelope form: every listed problem runs
	// with the request-level alg/machine/topology under a single job.
	// Validation failures answer 400 with an Envelope listing every bad
	// index; the accepted job's result is an Envelope[SimulateResult] with
	// per-index partial success. When non-empty, Batch and the inline
	// problem fields are ignored.
	Problems []Problem `json:"problems,omitempty"`
	// Batch is the legacy batch form: one job whose result is a plain list
	// of SimulateResult, any failure failing the whole job.
	Batch []Problem `json:"batch,omitempty"`
	// Seed seeds the deterministic pseudo-random input matrices.
	Seed uint64 `json:"seed,omitempty"`
	// Alpha, Beta, Gamma set the machine cost model; all zero selects the
	// bandwidth-only model (β = 1), so costs read directly in words.
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	Gamma float64 `json:"gamma,omitempty"`
	// Grid, when non-zero, pins the processor grid.
	Grid *GridJSON `json:"grid,omitempty"`
	// Verify also computes the serial product and reports the maximum
	// absolute deviation (doubles the arithmetic; off by default).
	Verify bool `json:"verify,omitempty"`
	// Topology, when present, runs the simulation on a concrete fabric:
	// every message is priced through its routes and contention factors.
	// The spec must fit every problem's P (batch entries included).
	Topology *TopologyJSON `json:"topology,omitempty"`
	// Engine names a scheduling backend of earlier versions, which had two.
	// The simulator now has one, so "goroutine" and "event" (and the empty
	// string) are accepted and ignored, keeping old bodies valid; any other
	// name answers 400 with kind "bad_opts".
	Engine string `json:"engine,omitempty"`
	// Trace records each run's event timeline and stores it as a Chrome
	// trace-event JSON artifact (trace.json, or trace-<i>.json per batch
	// index), fetchable from GET /v1/jobs/{id}/artifacts/{name} after the
	// job finishes — and still after the job itself is evicted. Requires
	// the server to run with artifact storage; without it the request
	// answers 400.
	Trace bool `json:"trace,omitempty"`
}

// SimulateResult is the outcome of one simulated run.
type SimulateResult struct {
	// Problem identifies the simulated instance.
	Problem Problem `json:"problem"`
	// Alg is the algorithm that ran.
	Alg string `json:"alg"`
	// Grid is the processor grid used.
	Grid GridJSON `json:"grid"`
	// CommCost is the measured per-processor communication volume in words
	// (max words received by any rank — the Theorem 3 quantity).
	CommCost float64 `json:"commCost"`
	// Bound is the Theorem 3 lower bound for the problem.
	Bound float64 `json:"bound"`
	// RatioToBound is CommCost/Bound (0 when the bound is 0).
	RatioToBound float64 `json:"ratioToBound"`
	// TotalWords is the network-wide traffic in words.
	TotalWords float64 `json:"totalWords"`
	// CriticalPath is the simulated α-β-γ critical-path time.
	CriticalPath float64 `json:"criticalPath"`
	// MaxAbsDiff is the maximum deviation from the serial product, present
	// only when Verify was requested.
	MaxAbsDiff *float64 `json:"maxAbsDiff,omitempty"`
	// Topology and Placement echo the fabric the run was priced on, present
	// only when the request selected one.
	Topology  string `json:"topology,omitempty"`
	Placement string `json:"placement,omitempty"`
	// TraceArtifact names this run's Chrome trace artifact (fetch it from
	// GET /v1/jobs/{id}/artifacts/{name}), present only when the request
	// set "trace": true.
	TraceArtifact string `json:"traceArtifact,omitempty"`
}

// JobResponse reports an async job's state; it is the body of the
// /v1/simulate accept response and of GET /v1/jobs/{id}.
type JobResponse struct {
	// ID is the job identifier.
	ID string `json:"id"`
	// Status is the lifecycle state: queued, running, done, failed, or
	// cancelled.
	Status string `json:"status"`
	// Result holds the job's outcome when Status is "done": a
	// SimulateResult, or a list of them for a batch job.
	Result any `json:"result,omitempty"`
	// Error holds the failure message when Status is "failed" or
	// "cancelled".
	Error string `json:"error,omitempty"`
	// Artifacts lists the job's durable artifacts (present only on GET
	// /v1/jobs/{id} responses when the job has any); fetch each from
	// GET /v1/jobs/{id}/artifacts/{name}.
	Artifacts []ArtifactJSON `json:"artifacts,omitempty"`
}

// ArtifactJSON describes one durable job artifact.
type ArtifactJSON struct {
	// Name is the artifact's name within its job.
	Name string `json:"name"`
	// Size is the content length in bytes.
	Size int64 `json:"size"`
	// SHA256 is the content's hex digest — also the ETag and
	// X-Checksum-Sha256 of the content response.
	SHA256 string `json:"sha256"`
	// ContentType is the MIME type the content is served with.
	ContentType string `json:"contentType"`
	// Created is when the artifact was written (UTC).
	Created time.Time `json:"created"`
}

// ArtifactListResponse is the body of GET /v1/jobs/{id}/artifacts. It
// answers from the artifact catalog, which outlives job retention: a job
// whose metadata is already evicted (404 from GET /v1/jobs/{id}) still
// lists — and serves — its artifacts here.
type ArtifactListResponse struct {
	// Job is the job id the listing is for.
	Job string `json:"job"`
	// Artifacts is the catalog, sorted by name; empty when the job wrote
	// none (or never existed — the catalog cannot tell).
	Artifacts []ArtifactJSON `json:"artifacts"`
}

// EnvelopeError locates one failed problem inside a v1 envelope response:
// the problem's index in the request's "problems" list, the machine-
// readable taxonomy code (same vocabulary as ErrorResponse.Kind), and the
// human-readable message.
type EnvelopeError struct {
	Index   int    `json:"index"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// JobListItem is one row of GET /v1/jobs: identity, state, and submit
// time — enough for an operator or load generator to enumerate work
// without fetching each job's (possibly large) result.
type JobListItem struct {
	// ID is the job identifier.
	ID string `json:"id"`
	// Status is the lifecycle state.
	Status string `json:"status"`
	// Created is the submission time (UTC).
	Created time.Time `json:"created"`
}

// JobListResponse is the body of GET /v1/jobs: jobs in submission order,
// cursor-paginated.
type JobListResponse struct {
	// Jobs is this page, oldest submission first.
	Jobs []JobListItem `json:"jobs"`
	// NextCursor, when non-empty, is the cursor= value for the next page;
	// absent when this page exhausted the listing.
	NextCursor string `json:"nextCursor,omitempty"`
}

// normalize resolves the accepted request shapes to one problem list:
// envelope reports the v1 {"problems": [...]} form (answered with an
// Envelope), batch the legacy {"batch": [...]} form (answered with the
// legacy batch response), and neither means the legacy single inline form.
func (r LowerBoundRequest) normalize() (list []Problem, envelope, batch bool) {
	if len(r.Problems) > 0 {
		return r.Problems, true, false
	}
	if len(r.Batch) > 0 {
		return r.Batch, false, true
	}
	return []Problem{r.Problem}, false, false
}

// normalize resolves the accepted request shapes to one problem list;
// envelope reports the v1 {"problems": [...]} form.
func (r PredictRequest) normalize() (list []PredictProblem, envelope bool) {
	if len(r.Problems) > 0 {
		return r.Problems, true
	}
	return []PredictProblem{r.PredictProblem}, false
}

// normalize resolves the accepted request shapes to one problem list:
// envelope reports the v1 {"problems": [...]} form (collected validation
// errors, partial-success job result), batch the legacy {"batch": [...]}
// form, and neither the legacy single inline form.
func (r SimulateRequest) normalize() (list []Problem, envelope, batch bool) {
	if len(r.Problems) > 0 {
		return r.Problems, true, false
	}
	if len(r.Batch) > 0 {
		return r.Batch, false, true
	}
	return []Problem{r.Problem}, false, false
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	// Error is the human-readable message (the wrapped error chain).
	Error string `json:"error"`
	// Kind is the machine-readable taxonomy tag: bad_dims,
	// bad_processor_count, too_many_ranks, grid_mismatch, unsupported_alg,
	// bad_opts, bad_topology, bad_program, bad_request, not_found,
	// queue_full, or internal.
	Kind string `json:"kind"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	// Status is "ok" when the server is accepting work.
	Status string `json:"status"`
}

// VarsResponse is the body of GET /debug/vars: the service's operational
// counters.
type VarsResponse struct {
	// Requests is the number of HTTP requests served (all endpoints).
	Requests int64 `json:"requests"`
	// CacheHits and CacheMisses count memo-cache lookups; CacheShared
	// counts lookups satisfied by waiting on a concurrent caller's
	// in-flight computation (singleflight) — duplicate work avoided.
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	CacheShared int64 `json:"cacheShared"`
	// CacheEntries is the current number of cached values.
	CacheEntries int `json:"cacheEntries"`
	// Overloads counts requests refused with 503 by the per-endpoint
	// concurrency limits.
	Overloads int64 `json:"overloads"`
	// PlanPoints counts strong-scaling plan points served (inline and
	// streamed).
	PlanPoints int64 `json:"planPoints"`
	// JobsInFlight is the number of jobs currently executing.
	JobsInFlight int64 `json:"jobsInFlight"`
	// JobsTotal is the number of jobs ever accepted.
	JobsTotal int `json:"jobsTotal"`
	// JobsByState counts the jobs currently remembered per lifecycle
	// state, after retention eviction.
	JobsByState map[string]int `json:"jobsByState"`
	// JobsEvicted is the cumulative number of finished jobs evicted by the
	// retention policy (age or cap).
	JobsEvicted int64 `json:"jobsEvicted"`
	// WordsSimulated accumulates the network-wide words moved by completed
	// simulations.
	WordsSimulated float64 `json:"wordsSimulated"`
	// ArtifactsWritten, ArtifactBytes, and ArtifactFetches count durable
	// artifact writes, their total bytes, and content fetches served.
	ArtifactsWritten int64 `json:"artifactsWritten"`
	ArtifactBytes    int64 `json:"artifactBytes"`
	ArtifactFetches  int64 `json:"artifactFetches"`
}
