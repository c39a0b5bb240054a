package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/algs"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/topo"
)

// maxBodyBytes bounds request bodies; batch requests at the maxBatch limit
// fit comfortably.
const maxBodyBytes = 1 << 20

// maxBatch bounds the problem count of a batch request.
const maxBatch = 1024

// decodeJSON reads the request body into dst, answering 400 itself on
// failure.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		writeBadRequest(w, "invalid JSON body: "+err.Error())
		return false
	}
	return true
}

// parseTopology resolves a request's topology block against a rank count:
// the spec must describe exactly p endpoints (topo.Parse also bounds the
// fabric's link id space, which sizes its charge oracle), and the
// placement must name a known policy. All failure modes wrap
// core.ErrBadTopology.
func parseTopology(t *TopologyJSON, p int, link topo.Link) (topo.Topology, topo.Policy, error) {
	fabric, err := topo.Parse(t.Spec, p, link)
	if err != nil {
		return nil, 0, err
	}
	pol, err := topo.ParsePolicy(t.Place)
	if err != nil {
		return nil, 0, err
	}
	return fabric, pol, nil
}

// parseProblem validates a Problem against the taxonomy.
func parseProblem(p Problem) (core.Dims, error) {
	d := core.NewDims(p.N1, p.N2, p.N3)
	if err := d.Validate(); err != nil {
		return d, err
	}
	if p.P < 1 {
		return d, fmt.Errorf("service: P must be ≥ 1, got %d: %w", p.P, core.ErrBadProcessorCount)
	}
	return d, nil
}

// checkSearchP guards the divisor-triple searches (see MaxSearchProcs).
func (s *Server) checkSearchP(p int) error {
	if p > s.cfg.MaxSearchProcs {
		return fmt.Errorf("service: P=%d exceeds the search limit %d: %w",
			p, s.cfg.MaxSearchProcs, core.ErrBadProcessorCount)
	}
	return nil
}

// checkTopoP guards synchronous topology-aware predictions: the
// worst-fiber sweep is linear in P on fabrics without translation
// symmetry, so it gets its own ceiling. The rejection names the limit.
func (s *Server) checkTopoP(fabric topo.Topology, p int) error {
	if p > s.cfg.MaxTopoProcs {
		return fmt.Errorf("service: P=%d exceeds the topology prediction limit %d for %s: %w",
			p, s.cfg.MaxTopoProcs, fabric.Name(), core.ErrBadTopology)
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// lowerBoundOne answers one problem from the memo layer.
func (s *Server) lowerBoundOne(p Problem) (LowerBoundResponse, error) {
	d, err := parseProblem(p)
	if err != nil {
		return LowerBoundResponse{}, err
	}
	t1, t2 := core.Thresholds(d)
	c := core.CaseOf(d, p.P)
	return LowerBoundResponse{
		Problem:     p,
		Case:        int(c),
		CaseName:    c.String(),
		Thresholds:  [2]float64{t1, t2},
		Bound:       core.LowerBound(d, p.P),
		LeadingTerm: core.LeadingTerm(d, p.P),
		Footprint:   core.D(d, p.P),
	}, nil
}

// checkBatch bounds a problem-list length against maxBatch, answering 400
// itself when it does not fit.
func (s *Server) checkBatch(w http.ResponseWriter, n int) bool {
	if n > maxBatch {
		writeBadRequest(w, fmt.Sprintf("batch of %d exceeds the limit %d", n, maxBatch))
		return false
	}
	return true
}

// envelopeOf evaluates one cheap synchronous computation per problem and
// folds the outcomes into the unified v1 envelope: failures become indexed
// errors, the rest partial success.
func envelopeOf[P, T any](problems []P, eval func(P) (T, error)) Envelope[T] {
	env := Envelope[T]{Results: make([]*T, len(problems))}
	for i, p := range problems {
		res, err := eval(p)
		if err != nil {
			env.Errors = append(env.Errors, envelopeError(i, err))
			continue
		}
		env.Results[i] = &res
	}
	return env
}

// reply answers a problem list in the form it arrived in, from the
// envelope of its outcomes: the envelope itself, with status, for the v1
// form. A legacy form fails as a whole on its lowest-index error, with that
// kind's status (and a "batch[i]: " prefix in a batch); otherwise a batch
// answers the envelope, which without errors encodes as {"results": [...]},
// and the inline form its one result.
func reply[T any](w http.ResponseWriter, status int, f form, env Envelope[T]) {
	switch {
	case f == formEnvelope:
		writeJSON(w, status, env)
	case len(env.Errors) > 0:
		e := env.Errors[0]
		if f == formBatch {
			e.Message = fmt.Sprintf("batch[%d]: %s", e.Index, e.Message)
		}
		writeJSON(w, statusOf(e.Code), ErrorResponse{Error: e.Message, Kind: e.Code})
	case f == formBatch:
		writeJSON(w, status, env)
	default:
		writeJSON(w, status, env.Results[0])
	}
}

func (s *Server) handleLowerBound(w http.ResponseWriter, r *http.Request) {
	var req LowerBoundRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	problems, f := formOf(req.Problems, req.Batch, req.Problem)
	if !s.checkBatch(w, len(problems)) {
		return
	}
	reply(w, http.StatusOK, f, envelopeOf(problems, s.lowerBoundOne))
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	var req GridRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	d, err := parseProblem(req.Problem)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := s.checkSearchP(req.P); err != nil {
		writeError(w, err)
		return
	}
	opt := s.optimalGrid(d, req.P)
	bound := core.LowerBound(d, req.P)
	cost := grid.CommCost(d, opt)
	ratio := 0.0
	if bound > 0 {
		ratio = cost / bound
	}
	g1, g2, g3 := grid.Analytic(d, req.P)
	resp := GridResponse{
		Problem:      req.Problem,
		Optimal:      GridJSON{opt.P1, opt.P2, opt.P3},
		CommCost:     cost,
		MemoryCost:   grid.MemoryCost(d, opt),
		RatioToBound: ratio,
		Divides:      grid.Divides(d, opt),
		Analytic:     [3]float64{g1, g2, g3},
	}
	if cg, cgErr := grid.CaseGrid(d, req.P); cgErr == nil {
		resp.CaseGrid = &GridJSON{cg.P1, cg.P2, cg.P3}
	} else {
		resp.CaseGridError = cgErr.Error()
	}
	if req.Mem > 0 {
		um, ok := s.optimalUnderMemory(d, req.P, req.Mem)
		resp.UnderMemoryFits = ok
		if ok {
			resp.UnderMemory = &GridJSON{um.P1, um.P2, um.P3}
			resp.UnderMemoryCost = grid.CommCost(d, um)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// optimalUnderMemory is grid.OptimalUnderMemory through the cache.
func (s *Server) optimalUnderMemory(d core.Dims, p int, mem float64) (grid.Grid, bool) {
	type result struct {
		g  grid.Grid
		ok bool
	}
	key := fmt.Sprintf("om:%s:%g", dimsKey(d, p), mem)
	r := s.cache.GetOrCompute(key, func() any {
		g, ok := grid.OptimalUnderMemory(d, p, mem)
		return result{g, ok}
	}).(result)
	return r.g, r.ok
}

// predictOne answers one prediction instance from the memo layer.
func (s *Server) predictOne(pp PredictProblem) (PredictResponse, error) {
	d, err := parseProblem(pp.Problem)
	if err != nil {
		return PredictResponse{}, err
	}
	cfg := machine.Config{Alpha: pp.Alpha, Beta: pp.Beta, Gamma: pp.Gamma}
	if err := cfg.Validate(); err != nil {
		return PredictResponse{}, err
	}
	var g grid.Grid
	if pp.Grid != nil {
		g = grid.Grid{P1: pp.Grid.P1, P2: pp.Grid.P2, P3: pp.Grid.P3}
		if err := g.Validate(); err != nil {
			return PredictResponse{}, err
		}
		if g.Size() != pp.P {
			return PredictResponse{}, fmt.Errorf("service: grid %v has %d processors, want %d: %w",
				g, g.Size(), pp.P, core.ErrGridMismatch)
		}
	} else {
		if err := s.checkSearchP(pp.P); err != nil {
			return PredictResponse{}, err
		}
		g = s.optimalGrid(d, pp.P)
	}
	resp := PredictResponse{
		Problem: pp.Problem,
		Grid:    GridJSON{g.P1, g.P2, g.P3},
	}
	if pp.Topology != nil {
		fabric, pol, err := parseTopology(pp.Topology, pp.P, topo.Link{Alpha: cfg.Alpha, Beta: cfg.Beta})
		if err != nil {
			return PredictResponse{}, err
		}
		if err := s.checkTopoP(fabric, pp.P); err != nil {
			return PredictResponse{}, err
		}
		pred, err := s.predictTopo(d, g, cfg, fabric, pol)
		if err != nil {
			return PredictResponse{}, err
		}
		resp.Total = pred.Total()
		resp.Compute, resp.Bandwidth, resp.Latency = pred.Compute, pred.Bandwidth, pred.Latency
		resp.Words, resp.Messages = pred.Words, pred.Messages
		resp.Topology, resp.Placement = pred.Topology, pred.Placement
		resp.FlatTotal, resp.Slowdown = pred.FlatTotal, pred.Slowdown
	} else {
		pred := model.Alg1Time(d, g, cfg, collective.Auto)
		resp.Total = pred.Total()
		resp.Compute, resp.Bandwidth, resp.Latency = pred.Compute, pred.Bandwidth, pred.Latency
		resp.Words, resp.Messages = pred.Words, pred.Messages
	}
	for _, v := range [...]float64{resp.Total, resp.Compute, resp.Bandwidth, resp.Latency, resp.FlatTotal, resp.Slowdown} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return PredictResponse{}, fmt.Errorf("service: the prediction overflows float64 (α=%g, β=%g, γ=%g): %w",
				cfg.Alpha, cfg.Beta, cfg.Gamma, core.ErrBadOpts)
		}
	}
	return resp, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	problems, f := formOf(req.Problems, nil, req.PredictProblem)
	if !s.checkBatch(w, len(problems)) {
		return
	}
	reply(w, http.StatusOK, f, envelopeOf(problems, s.predictOne))
}

// checkSimProblem validates one simulation instance against the
// admission limits on P and flops.
func (s *Server) checkSimProblem(p Problem) (core.Dims, error) {
	d, err := parseProblem(p)
	if err != nil {
		return d, err
	}
	if p.P > s.cfg.MaxSimProcs {
		return d, fmt.Errorf("service: P=%d exceeds the simulation limit %d: %w",
			p.P, s.cfg.MaxSimProcs, core.ErrTooManyRanks)
	}
	if d.Flops() > s.cfg.MaxSimFlops {
		return d, fmt.Errorf("service: %v needs %.3g flops, over the simulation limit %.3g: %w",
			d, d.Flops(), s.cfg.MaxSimFlops, core.ErrBadDims)
	}
	return d, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Alg == "" {
		req.Alg = "Alg1"
	}
	entry, err := algs.Lookup(req.Alg)
	if err != nil {
		writeError(w, err)
		return
	}
	problems, f := formOf(req.Problems, req.Batch, req.Problem)
	if !s.checkBatch(w, len(problems)) {
		return
	}
	switch req.Engine {
	case "", "goroutine", "event":
	default:
		writeError(w, fmt.Errorf(`%w: unknown engine %q (valid: "goroutine", "event")`, core.ErrBadOpts, req.Engine))
		return
	}
	opts := algs.Opts{
		Config: machine.Config{Alpha: req.Alpha, Beta: req.Beta, Gamma: req.Gamma},
	}
	if req.Alpha == 0 && req.Beta == 0 && req.Gamma == 0 {
		opts.Config = machine.BandwidthOnly()
	}
	if req.Grid != nil {
		opts.Grid = grid.Grid{P1: req.Grid.P1, P2: req.Grid.P2, P3: req.Grid.P3}
	}
	if err := opts.Validate(); err != nil {
		writeError(w, err)
		return
	}
	if req.Trace && s.artifacts == nil {
		writeBadRequest(w, `"trace": true requires artifact storage (start the server with an artifact store, e.g. parmmd -artifact-dir)`)
		return
	}
	// Validate everything synchronously so taxonomy errors come back on
	// the submit, not buried in a failed job. The topology spec is sized
	// against each problem's own P, so in a batch it must fit every entry.
	// The envelope form lists every bad index; the legacy forms answer the
	// first.
	env := Envelope[SimulateResult]{Results: make([]*SimulateResult, len(problems))}
	for i, p := range problems {
		_, err := s.checkSimProblem(p)
		if err == nil && req.Topology != nil {
			_, _, err = parseTopology(req.Topology, p.P,
				topo.Link{Alpha: opts.Config.Alpha, Beta: opts.Config.Beta})
		}
		if err != nil {
			env.Errors = append(env.Errors, envelopeError(i, err))
		}
	}
	if len(env.Errors) > 0 {
		reply(w, http.StatusBadRequest, f, env)
		return
	}

	// traceName names the per-problem trace artifact: the inline form gets
	// the stable "trace.json", list forms index by position.
	traceName := func(i int) string {
		switch {
		case !req.Trace:
			return ""
		case f == formInline:
			return "trace.json"
		}
		return fmt.Sprintf("trace-%d.json", i)
	}
	id, err := s.jobs.Submit(func(ctx context.Context) (any, error) {
		// The envelope form records each problem's failure at its index,
		// only cancellation aborting the whole job; the legacy forms fail
		// the job on their lowest-index failure.
		type outcome struct {
			res SimulateResult
			err error
		}
		outcomes, err := experiments.MapContext(ctx, len(problems), func(i int) (outcome, error) {
			res, err := s.simulateOne(ctx, entry, problems[i], req, opts, traceName(i))
			if err != nil && (f != formEnvelope || ctx.Err() != nil) {
				return outcome{}, err
			}
			return outcome{res, err}, nil
		})
		if err != nil {
			return nil, err
		}
		env := Envelope[SimulateResult]{Results: make([]*SimulateResult, len(problems))}
		var rows []SimulateResult
		for i := range outcomes {
			if e := outcomes[i].err; e != nil {
				env.Errors = append(env.Errors, envelopeError(i, e))
				continue
			}
			env.Results[i] = &outcomes[i].res
			rows = append(rows, outcomes[i].res)
		}
		var result any = env
		switch f {
		case formBatch:
			result = rows
		case formInline:
			result = rows[0]
		}
		if err := s.writeResultArtifacts(ctx, result, rows); err != nil {
			return nil, err
		}
		return result, nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	s.jobsTotal.Add(1)
	writeJSON(w, http.StatusAccepted, JobResponse{ID: id, Status: string(JobQueued)})
}

// simulateOne runs one simulation point. ctx is honored at the point
// boundary: a cancelled job stops before starting the next point (a single
// simulated run is not interruptible mid-flight; the limits keep runs
// short). A non-empty traceName turns on event tracing and stores the
// timeline as a Chrome trace artifact under that name; a trace that cannot
// be stored fails the run — the trace was the point of the request.
func (s *Server) simulateOne(ctx context.Context, entry algs.Entry, p Problem, req SimulateRequest, opts algs.Opts, traceName string) (SimulateResult, error) {
	if err := ctx.Err(); err != nil {
		return SimulateResult{}, err
	}
	opts.Trace = traceName != ""
	var topoName, placeName string
	if req.Topology != nil {
		// opts is a per-call copy; sizing the fabric to this problem's P
		// cannot leak into the other batch entries.
		fabric, pol, err := parseTopology(req.Topology, p.P,
			topo.Link{Alpha: opts.Config.Alpha, Beta: opts.Config.Beta})
		if err != nil {
			return SimulateResult{}, err
		}
		opts.Topo = fabric
		opts.Place = pol
		topoName, placeName = fabric.Name(), pol.String()
	}
	a := matrix.Random(p.N1, p.N2, 2*req.Seed+17)
	b := matrix.Random(p.N2, p.N3, 2*req.Seed+18)
	res, err := entry.Run(a, b, p.P, opts)
	if err != nil {
		return SimulateResult{}, err
	}
	d := core.NewDims(p.N1, p.N2, p.N3)
	bound := core.LowerBound(d, p.P)
	out := SimulateResult{
		Problem:      p,
		Alg:          entry.Name,
		Grid:         GridJSON{res.Grid.P1, res.Grid.P2, res.Grid.P3},
		CommCost:     res.CommCost(),
		Bound:        bound,
		TotalWords:   res.Stats.TotalWordsSent,
		CriticalPath: res.Stats.CriticalPath,
		Topology:     topoName,
		Placement:    placeName,
	}
	if bound > 0 {
		out.RatioToBound = out.CommCost / bound
	}
	if req.Verify {
		diff := res.C.MaxAbsDiff(matrix.Mul(a, b))
		out.MaxAbsDiff = &diff
	}
	if traceName != "" {
		if _, err := s.writeArtifact(ctx, traceName, "application/json", func(w io.Writer) error {
			return res.Trace.WriteChromeTrace(w)
		}); err != nil {
			return SimulateResult{}, err
		}
		out.TraceArtifact = traceName
	}
	s.addWordsSimulated(res.Stats.TotalWordsSent)
	return out, nil
}

// handleJobList serves GET /v1/jobs?state=&limit=&cursor=: jobs in
// submission order, filtered by state, paginated by an opaque cursor (the
// last job id of the previous page).
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := JobStatus(q.Get("state"))
	switch state {
	case "", JobQueued, JobRunning, JobDone, JobFailed, JobCancelled:
	default:
		writeBadRequest(w, fmt.Sprintf("unknown state %q (valid: queued, running, done, failed, cancelled)", state))
		return
	}
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeBadRequest(w, "limit must be a positive integer")
			return
		}
		limit = n
	}
	if limit > 1000 {
		limit = 1000
	}
	var after int64
	if v := q.Get("cursor"); v != "" {
		n, err := strconv.ParseInt(strings.TrimPrefix(v, "j"), 10, 64)
		if err != nil || !strings.HasPrefix(v, "j") || n < 1 {
			writeBadRequest(w, "cursor must be a nextCursor value from a previous page")
			return
		}
		after = n
	}
	items, next := s.jobs.List(state, after, limit)
	resp := JobListResponse{Jobs: make([]JobListItem, len(items))}
	for i, it := range items {
		resp.Jobs[i] = JobListItem{ID: it.ID, Status: string(it.Status), Created: it.Created.UTC()}
	}
	if next > 0 {
		resp.NextCursor = fmt.Sprintf("j%d", next)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.jobs.Get(id)
	if !ok {
		writeNotFound(w, "no job "+id)
		return
	}
	resp := jobResponseOf(view)
	if view.Status == JobDone || view.Status == JobFailed {
		resp.Artifacts = s.jobArtifacts(id)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.jobs.Cancel(id) {
		writeNotFound(w, "no job "+id)
		return
	}
	view, _ := s.jobs.Get(id)
	writeJSON(w, http.StatusOK, jobResponseOf(view))
}

// jobResponseOf converts a runner snapshot to the wire form.
func jobResponseOf(v JobView) JobResponse {
	resp := JobResponse{ID: v.ID, Status: string(v.Status), Result: v.Result}
	if v.Err != nil {
		resp.Error = v.Err.Error()
	}
	return resp
}
