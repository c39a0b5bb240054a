package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/plan"
)

// POST /v1/plan — the strong-scaling planner. The request uses the v1
// envelope from day one: {"problems": [...]} with per-problem P ranges.
// Small plans (total points ≤ Config.PlanInlineLimit) answer one inline
// JSON envelope; larger plans stream NDJSON rows — per problem a summary
// row, then one row per point in P order, flushed chunk by chunk so a
// 10⁵-point range holds neither the connection's buffer nor the full
// result in memory. "stream" forces either mode.
//
// Validation is all-or-nothing: every problem is vetted before any point
// is computed, and a request with invalid problems answers 400 carrying
// one envelope error per bad problem. Runtime failures after that (e.g. a
// twolevel fabric outgrowing the link id limit mid-range) surface as an
// error row (streaming) or an envelope error (inline) for that problem
// only. Topology-priced points are memoized under range-independent keys,
// so overlapping ranges share their fabric pricing and concurrent identical
// requests collapse to one computation per point (singleflight);
// closed-form points cost less than a cache lookup and are always computed.

// PlanProblem is one planning problem: shape, per-rank memory, machine,
// optional topology, and the P range to sweep.
type PlanProblem struct {
	// N1, N2, N3 are the matrix dimensions (A is N1×N2, B is N2×N3).
	N1 int `json:"n1"`
	N2 int `json:"n2"`
	N3 int `json:"n3"`
	// Mem is the local memory per processor in words.
	Mem float64 `json:"mem"`
	// PMin and PMax bound the processor range, inclusive.
	PMin int `json:"pMin"`
	PMax int `json:"pMax"`
	// PStep is the linear stride (default 1); Log2 sweeps PMin, 2·PMin, …
	// instead.
	PStep int  `json:"pStep,omitempty"`
	Log2  bool `json:"log2,omitempty"`
	// Alpha, Beta, Gamma set the α-β-γ machine; all zero selects the
	// bandwidth-only model, so times read directly in words.
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	Gamma float64 `json:"gamma,omitempty"`
	// Topology, when present, prices every point on that fabric. Only
	// size-flexible specs (flat, twolevel=g) can span a multi-point range.
	Topology *TopologyJSON `json:"topology,omitempty"`
}

// PlanRequest is the body of POST /v1/plan.
type PlanRequest struct {
	// Problems lists the plans to compute.
	Problems []PlanProblem `json:"problems"`
	// Stream forces the response mode: true streams NDJSON regardless of
	// size, false forces one inline envelope, which holds every point at
	// once, so its total across problems must fit MaxPlanPoints. Absent,
	// the server picks by total point count.
	Stream *bool `json:"stream,omitempty"`
	// Job runs the sweep asynchronously instead: the request answers 202
	// with a job id, the sweep executes on the job pool, and the full
	// NDJSON output (the same rows a streamed response carries) lands in
	// the durable artifact plan.ndjson — fetchable, Range requests
	// included, even after the job is evicted. Requires artifact storage;
	// without it the request answers 400. Job ignores Stream.
	Job bool `json:"job,omitempty"`
}

// PlanJobResult is the job-table result of an async plan job (the rows
// themselves are in the plan.ndjson artifact).
type PlanJobResult struct {
	// Problems is the number of planning problems swept.
	Problems int `json:"problems"`
	// Points is the total point-row count across problems.
	Points int `json:"points"`
	// Errors carries per-problem runtime failures, indexed like the
	// request's problems list.
	Errors []EnvelopeError `json:"errors,omitempty"`
	// Artifact names the NDJSON artifact holding every row.
	Artifact string `json:"artifact"`
}

// PlanResult is one problem's full plan in the inline envelope.
type PlanResult struct {
	// Summary is the range-level analysis (crossover, boundaries, floor).
	Summary plan.Summary `json:"summary"`
	// Points are the per-P rows in P order.
	Points []plan.Point `json:"points"`
}

// PlanEnvelope is the inline response: the unified v1 envelope over
// PlanResult (results[i] answers problems[i], null when that problem
// failed; its failure is in errors).
type PlanEnvelope = Envelope[PlanResult]

// PlanRow is one line of the NDJSON stream. Exactly one of Summary,
// Point, and Error is set, except the final row, which sets only Done.
// Problem indexes into the request's problems list.
type PlanRow struct {
	Problem int            `json:"problem"`
	Summary *plan.Summary  `json:"summary,omitempty"`
	Point   *plan.Point    `json:"point,omitempty"`
	Error   *EnvelopeError `json:"error,omitempty"`
	// Done marks the final row; a stream without it was cut short.
	Done bool `json:"done,omitempty"`
}

// planChunk is the sweep's fan-out granularity: points per
// Planner.Sweep chunk, and therefore per flush when streaming.
const planChunk = 256

// planRowBytes bounds one NDJSON point row: the point and its
// {"problem":i,"point":…} wrapper. A chunk's buffer is presized with it.
const planRowBytes = plan.MaxPointJSON + len(`{"problem":,"point":}`+"\n") + 20

// planRequest converts the wire problem into the plan package's request,
// attaching the server's point budget.
func (s *Server) planRequest(p PlanProblem) plan.Request {
	req := plan.Request{
		Dims: core.NewDims(p.N1, p.N2, p.N3),
		Mem:  p.Mem,
		PMin: p.PMin, PMax: p.PMax, PStep: p.PStep, Log2: p.Log2,
		Config:    machine.Config{Alpha: p.Alpha, Beta: p.Beta, Gamma: p.Gamma},
		MaxPoints: s.cfg.MaxPlanPoints,
	}
	if p.Topology != nil {
		req.TopoSpec = p.Topology.Spec
		req.Place = p.Topology.Place
	}
	return req
}

// planPointResult caches one plan point, error included (a fabric that
// cannot be built at some P fails identically every time).
type planPointResult struct {
	pt  plan.Point
	err error
}

// planner returns a planner whose topology-priced points go through the
// memo cache with singleflight, under the "pp:" namespace.
func (s *Server) planner() plan.Planner {
	return plan.Planner{PointMemo: func(key string, compute func() (plan.Point, error)) (plan.Point, error) {
		r := s.cache.GetOrCompute("pp:"+key, func() any {
			pt, err := compute()
			return planPointResult{pt: pt, err: err}
		}).(planPointResult)
		return r.pt, r.err
	}}
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Problems) == 0 {
		writeBadRequest(w, `plan request needs a non-empty "problems" list`)
		return
	}
	if !s.checkBatch(w, len(req.Problems)) {
		return
	}
	reqs := make([]plan.Request, len(req.Problems))
	var errs []EnvelopeError
	total := 0
	for i, p := range req.Problems {
		reqs[i] = s.planRequest(p)
		err := reqs[i].Validate()
		if err == nil {
			err = s.checkSearchP(p.PMax)
		}
		if err != nil {
			errs = append(errs, envelopeError(i, err))
			continue
		}
		total += reqs[i].Points()
	}
	if len(errs) > 0 {
		// All-or-nothing: a malformed problem fails the whole request
		// before any sweeping starts — plans are the service's most
		// expensive synchronous work, and the envelope tells the client
		// exactly which entries to fix.
		writeJSON(w, http.StatusBadRequest, PlanEnvelope{
			Results: make([]*PlanResult, len(req.Problems)),
			Errors:  errs,
		})
		return
	}
	if req.Job {
		s.submitPlanJob(w, reqs)
		return
	}
	stream := total > s.cfg.PlanInlineLimit
	if req.Stream != nil {
		stream = *req.Stream
		if !stream && total > s.cfg.MaxPlanPoints {
			writeError(w, fmt.Errorf("service: an inline plan holds all %d points at once, over the limit %d; stream it instead: %w",
				total, s.cfg.MaxPlanPoints, core.ErrBadPlanRange))
			return
		}
	}
	if stream {
		s.streamPlan(w, r, reqs)
		return
	}
	s.inlinePlan(w, r, reqs)
}

// submitPlanJob runs the validated sweep on the job pool, writing every
// NDJSON row into the plan.ndjson artifact. The job's result records the
// point count and any per-problem runtime failures; the rows themselves
// live only in the artifact, which survives job eviction.
func (s *Server) submitPlanJob(w http.ResponseWriter, reqs []plan.Request) {
	if s.artifacts == nil {
		writeBadRequest(w, `"job": true requires artifact storage (start the server with an artifact store, e.g. parmmd -artifact-dir)`)
		return
	}
	id, err := s.jobs.Submit(func(ctx context.Context) (any, error) {
		result := PlanJobResult{Problems: len(reqs), Artifact: "plan.ndjson"}
		_, err := s.writeArtifact(ctx, "plan.ndjson", "application/x-ndjson", func(w io.Writer) error {
			var err error
			// A cancelled job fails rather than persist a truncated sweep.
			result.Points, result.Errors, err = s.writePlanRows(ctx, w, reqs, func() {})
			return err
		})
		if err != nil {
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

// inlinePlan evaluates every problem and answers one envelope. Runtime
// failures are partial: the envelope carries the successes plus one error
// per failed problem, under 200 (validation already passed; what failed
// is the computation, not the request). The envelope is encoding/json's
// bytes for a PlanEnvelope, built in one buffer as the sweeps emit, each
// point by plan.Point.AppendJSON. The buffer starts with room for the
// first chunk at plan.MaxPointJSON per point, then grows once, to what
// the remaining points take at that chunk's bytes per point and an eighth
// more.
func (s *Server) inlinePlan(w http.ResponseWriter, r *http.Request, reqs []plan.Request) {
	ctx := r.Context()
	pl := s.planner()
	total := 0
	for _, pr := range reqs {
		total += pr.Points()
	}
	framing := 64 + len(reqs)*1024 // the envelope and each problem's summary
	b := append(make([]byte, 0, framing+min(total, planChunk)*(plan.MaxPointJSON+1)), `{"results":[`...)
	grown := false
	var errs []EnvelopeError
	for i, pr := range reqs {
		if i > 0 {
			b = append(b, ',')
		}
		start := len(b)
		sum, err := plan.Summarize(pr)
		if err == nil {
			b, err = appendJSON(append(b, `{"summary":`...), sum)
		}
		n := 0
		if err == nil {
			b = append(b, `,"points":[`...)
			_, err = pl.Sweep(ctx, pr, planChunk, func(chunk []plan.Point) error {
				from := len(b)
				for j := range chunk {
					if n > 0 {
						b = append(b, ',')
					}
					n++
					var err error
					if b, err = chunk[j].AppendJSON(b); err != nil {
						return err
					}
				}
				if !grown {
					grown = true
					perPoint := (len(b)-from)/len(chunk) + 1
					b = slices.Grow(b, framing+(total-len(chunk))*(perPoint+perPoint/8))
				}
				return nil
			})
		}
		if err != nil {
			if ctx.Err() != nil {
				return // client gone; nobody to answer
			}
			b = append(b[:start], "null"...)
			errs = append(errs, envelopeError(i, err))
			continue
		}
		s.planPoints.Add(int64(n))
		b = append(b, "]}"...)
	}
	b = append(b, ']')
	if len(errs) > 0 {
		b = append(b, `,"errors":`...)
		var err error
		if b, err = appendJSON(b, errs); err != nil {
			writeError(w, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(b, "}\n"...)) // the status line is out; a failed write means the client left
}

// appendJSON appends v as encoding/json encodes it with HTML escaping off,
// without the newline Encode ends with. On error it returns b unchanged.
func appendJSON(b []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(b)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return b, err
	}
	out := buf.Bytes()
	return out[:len(out)-1], nil
}

// streamPlan writes the NDJSON stream, flushed after every row batch so
// the client reads progress while later chunks are still computing. A
// failed write (the client hung up) or cancellation aborts the sweep and
// leaves the stream without its done row, which says it all.
func (s *Server) streamPlan(w http.ResponseWriter, r *http.Request, reqs []plan.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	_, _, _ = s.writePlanRows(r.Context(), w, reqs, flush)
}

// writePlanRows writes the NDJSON rows of reqs to w: per problem a summary
// row, then its point rows in P order with one Write per planChunk points,
// so neither side holds more than a chunk, or an error row once its sweep
// fails; then the done row. after runs after every Write. It returns the
// point rows written and the per-problem failures; its error is a failed
// Write or ctx's, and stops everything.
func (s *Server) writePlanRows(ctx context.Context, w io.Writer, reqs []plan.Request, after func()) (points int, errs []EnvelopeError, err error) {
	pl := s.planner()
	var buf []byte
	write := func() error {
		_, err := w.Write(buf)
		if err == nil {
			after()
		}
		return err
	}
	writeRow := func(row PlanRow) (err error) {
		if buf, err = appendJSON(buf[:0], row); err == nil {
			buf = append(buf, '\n')
			err = write()
		}
		return err
	}
	for i, pr := range reqs {
		sum, err := plan.Summarize(pr)
		if err == nil {
			if err := writeRow(PlanRow{Problem: i, Summary: &sum}); err != nil {
				return points, errs, err
			}
			buf = slices.Grow(buf[:0], min(pr.Points(), planChunk)*planRowBytes)
			var werr error
			_, err = pl.Sweep(ctx, pr, planChunk, func(chunk []plan.Point) error {
				buf = buf[:0]
				for j := range chunk {
					buf = strconv.AppendInt(append(buf, `{"problem":`...), int64(i), 10)
					var err error
					if buf, err = chunk[j].AppendJSON(append(buf, `,"point":`...)); err != nil {
						return err
					}
					buf = append(buf, "}\n"...)
				}
				if werr = write(); werr == nil {
					points += len(chunk)
					s.planPoints.Add(int64(len(chunk)))
				}
				return werr
			})
			if werr != nil {
				return points, errs, werr
			}
		}
		if err != nil {
			if ctx.Err() != nil {
				return points, errs, ctx.Err()
			}
			ee := envelopeError(i, err)
			errs = append(errs, ee)
			if err := writeRow(PlanRow{Problem: i, Error: &ee}); err != nil {
				return points, errs, err
			}
		}
	}
	return points, errs, writeRow(PlanRow{Done: true})
}
