package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/algs"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/plan"
	"repro/internal/service"
)

// instance is one set-up workload: the system under test, its seeded
// inputs, and the checks on its outputs.
type instance interface {
	// op performs operation i, which the caller times, and returns the
	// check of its answer, which the caller runs untimed. Safe for
	// concurrent use; every i has its own inputs.
	op(ctx context.Context, i int) (check func() error, err error)
	// verify runs the checks deferred until after timing and returns how
	// many operations answered wrongly.
	verify() int
	// replay re-runs operations one at a time with a span around the
	// exchange with the system and around a separate call of each layer the
	// operation passes through, until budget is spent. It returns the span
	// names whose self times make up one operation's latency; nil means the
	// latency is explained from per-layer estimates instead.
	replay(ctx context.Context, rec *recorder, budget time.Duration) ([]string, error)
	// codec returns the requests the operations send and the answers they
	// receive, for the decode and encode layer metrics.
	codec() ([]codecCase, error)
	close()
}

// codecCase is one request body with the type the service decodes it into,
// and one answer value the service encodes.
type codecCase struct {
	body   []byte
	newReq func() any
	answer any
}

// workload is one benchmark workload: how load is offered and how its
// instance is built.
type workload struct {
	name string
	// tail is the fixed tail percentile latency_tail_ms reports: the
	// highest of p99, p95, p90 and p75 that leaves at least ten samples
	// above it (see tailFor) at the smallest sample count seen over ten
	// seeds on the reference machine (see README.md).
	tail float64
	// clients is the closed-loop client count: two, one per core, where
	// one operation leaves a core idle, so that neither core idles and
	// waits for the host to wake it, which on a shared host is slower and
	// far less steady than the work itself; one where an operation keeps
	// both cores busy.
	clients int
	setup   func(seed uint64) (instance, error)
}

// workloads lists every workload, in BENCHMARK.json order. Why each
// exists is in BENCHMARK.json and README.md.
var workloads = []*workload{
	{name: "plan-cold", tail: 0.95, clients: 2, setup: newPlanCold},
	{name: "api-warm", tail: 0.99, clients: 2, setup: newAPIWarm},
	{name: "alg1-scale", tail: 0.75, clients: 1, setup: newAlg1},
}

func workloadNamed(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Operation index ranges: measured operations count up from 0, and the
// warm-up and replayed operations use their own ranges, so no two
// operations of a run share inputs.
const (
	warmBase   = 1 << 30
	replayBase = 1 << 29
)

// Replay length: at least minReplayOps operations, at most maxReplayOps.
const (
	minReplayOps = 3
	maxReplayOps = 200
)

// replayMore reports whether replay operation k should run.
func replayMore(k int, start time.Time, budget time.Duration) bool {
	return k < maxReplayOps && (k < minReplayOps || time.Since(start) < budget)
}

// --- plan-cold: /v1/plan over 5000 fresh points per request ---

const (
	planN      = 2000
	planPMin   = 100000
	planPMax   = 104999
	planPoints = planPMax - planPMin + 1
)

// planOp returns operation i's inputs: a memory budget unique to the
// operation, so every point misses the memo; whether it streams (one in
// four); and the P of the point its check recomputes.
func planOp(seed uint64, i int) (mem float64, stream bool, pickP int) {
	h := mix(seed, uint64(i))
	mem = 10000 + float64(i) + float64(seed%1000)/1000
	return mem, h%4 == 0, planPMin + int((h>>8)%planPoints)
}

func planBody(mem float64, stream bool) []byte {
	return []byte(fmt.Sprintf(`{"problems":[{"n1":%d,"n2":%d,"n3":%d,"mem":%s,"pMin":%d,"pMax":%d}],"stream":%t}`,
		planN, planN, planN, strconv.FormatFloat(mem, 'f', -1, 64), planPMin, planPMax, stream))
}

// planRequestOf converts a wire problem the way the service does.
func planRequestOf(p service.PlanProblem) plan.Request {
	r := plan.Request{
		Dims: core.NewDims(p.N1, p.N2, p.N3), Mem: p.Mem,
		PMin: p.PMin, PMax: p.PMax, PStep: p.PStep, Log2: p.Log2,
		Config:    machine.Config{Alpha: p.Alpha, Beta: p.Beta, Gamma: p.Gamma},
		MaxPoints: 1 << 20,
	}
	if p.Topology != nil {
		r.TopoSpec, r.Place = p.Topology.Spec, p.Topology.Place
	}
	return r
}

type planCold struct {
	srv  *server
	seed uint64

	mu    sync.Mutex
	picks []planPick // one point per answer, recomputed by verify
}

type planPick struct {
	mem float64
	p   int
	got []byte
}

func newPlanCold(seed uint64) (instance, error) {
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	w := &planCold{srv: srv, seed: seed}
	for k, stream := range []bool{false, true} {
		mem, _, p := planOp(seed, warmBase+k)
		resp, err := srv.post(context.Background(), "/v1/plan", planBody(mem, stream), 200)
		if err == nil {
			_, err = checkPlan(resp, stream, p)
		}
		if err != nil {
			srv.close()
			return nil, fmt.Errorf("plan-cold warm-up: %w", err)
		}
	}
	return w, nil
}

func (w *planCold) op(ctx context.Context, i int) (func() error, error) {
	mem, stream, p := planOp(w.seed, i)
	resp, err := w.srv.post(ctx, "/v1/plan", planBody(mem, stream), 200)
	if err != nil {
		return nil, err
	}
	return func() error {
		got, err := checkPlan(resp, stream, p)
		if err != nil {
			return err
		}
		w.mu.Lock()
		w.picks = append(w.picks, planPick{mem: mem, p: p, got: got})
		w.mu.Unlock()
		return nil
	}, nil
}

// checkPlan checks a plan answer's point count and, for a stream, its
// final done row, and returns the JSON of point p.
func checkPlan(resp []byte, stream bool, p int) ([]byte, error) {
	if n := bytes.Count(resp, []byte(`{"p":`)); n != planPoints {
		return nil, fmt.Errorf("plan: %d points, want %d", n, planPoints)
	}
	if stream {
		rows := bytes.Split(bytes.TrimSpace(resp), []byte("\n"))
		if !bytes.HasSuffix(rows[len(rows)-1], []byte(`"done":true}`)) {
			return nil, errors.New("plan: stream does not end with a done row")
		}
	}
	got := pointJSON(resp, p)
	if got == nil {
		return nil, fmt.Errorf("plan: no point for P=%d", p)
	}
	return got, nil
}

// pointJSON returns a copy of the JSON object of point p in a plan answer,
// or nil. Point objects nest one level (the grid) and hold no strings, so
// matching braces delimit them.
func pointJSON(resp []byte, p int) []byte {
	i := bytes.Index(resp, []byte(`{"p":`+strconv.Itoa(p)+`,`))
	if i < 0 {
		return nil
	}
	depth := 0
	for j := i; j < len(resp); j++ {
		switch resp[j] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return append([]byte(nil), resp[i:j+1]...)
			}
		}
	}
	return nil
}

// verify recomputes each picked point with plan.Run over the single P and
// compares its JSON with the served one.
func (w *planCold) verify() int {
	wrong := 0
	for _, pk := range w.picks {
		req := plan.Request{Dims: core.Square(planN), Mem: pk.mem, PMin: pk.p, PMax: pk.p}
		_, pts, err := plan.Run(context.Background(), req)
		var want []byte
		if err == nil {
			want, err = json.Marshal(pts[0])
		}
		if err != nil || !bytes.Equal(want, pk.got) {
			wrong++
			if wrong <= maxLoggedFailures {
				fmt.Fprintf(os.Stderr, "plan-cold: P=%d mem=%g served %s, plan.Run gives %s (%v)\n", pk.p, pk.mem, pk.got, want, err)
			}
		}
	}
	return wrong
}

func (w *planCold) replay(ctx context.Context, rec *recorder, budget time.Duration) ([]string, error) {
	cache := service.NewCache(1 << 16)
	start := time.Now()
	for k := 0; replayMore(k, start, budget); k++ {
		mem, stream, p := planOp(w.seed, replayBase+k)
		body := planBody(mem, stream)
		op := rec.begin("op", -1, k)
		var err error
		rec.timed("http", op, k, func() {
			var resp []byte
			if resp, err = w.srv.post(ctx, "/v1/plan", body, 200); err == nil {
				_, err = checkPlan(resp, stream, p)
			}
		})
		if err != nil {
			return nil, err
		}
		var req service.PlanRequest
		rec.timed("service.decode", op, k, func() { err = json.Unmarshal(body, &req) })
		if err != nil {
			return nil, err
		}
		pr := planRequestOf(req.Problems[0])
		var sum plan.Summary
		rec.timed("plan.summary", op, k, func() { sum, err = plan.Summarize(pr) })
		if err != nil {
			return nil, err
		}
		pts, err := tracedSweep(ctx, rec, op, k, pr)
		if err != nil {
			return nil, err
		}
		prefix := fmt.Sprintf("pp:%d:%d:%d:%g:0:1:0:::", planN, planN, planN, mem)
		rec.timed("service.memo", op, k, func() {
			for _, pt := range pts {
				cache.GetOrCompute(prefix+strconv.Itoa(pt.P), func() any { return pt })
			}
		})
		rec.timed("service.encode", op, k, func() { err = encodePlan(io.Discard, stream, sum, pts) })
		if err != nil {
			return nil, err
		}
		rec.end(op)
	}
	return []string{"service.decode", "plan.summary", "plan.sweep", "plan.chunk", "service.memo", "service.encode"}, nil
}

// tracedSweep runs Planner.Sweep without a memo in a plan.sweep span with
// one plan.chunk span per emitted chunk of 256 points.
func tracedSweep(ctx context.Context, rec *recorder, parent, op int, pr plan.Request) ([]plan.Point, error) {
	sweep := rec.begin("plan.sweep", parent, op)
	defer rec.end(sweep)
	var pts []plan.Point
	from := time.Now()
	_, err := plan.Planner{}.Sweep(ctx, pr, 256, func(chunk []plan.Point) error {
		now := time.Now()
		rec.add("plan.chunk", sweep, op, from, now)
		from = now
		pts = append(pts, chunk...)
		return nil
	})
	return pts, err
}

// encodePlan writes a plan the way the service answers it: one inline
// envelope, or NDJSON rows ending with the done row.
func encodePlan(w io.Writer, stream bool, sum plan.Summary, pts []plan.Point) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if !stream {
		return enc.Encode(service.PlanEnvelope{Results: []*service.PlanResult{{Summary: sum, Points: pts}}})
	}
	if err := enc.Encode(service.PlanRow{Summary: &sum}); err != nil {
		return err
	}
	for j := range pts {
		if err := enc.Encode(service.PlanRow{Point: &pts[j]}); err != nil {
			return err
		}
	}
	return enc.Encode(service.PlanRow{Done: true})
}

func (w *planCold) codec() ([]codecCase, error) { return planCodec(w.seed) }

// planCodec is plan-cold's first request and its inline answer.
func planCodec(seed uint64) ([]codecCase, error) {
	mem, _, _ := planOp(seed, 0)
	body := planBody(mem, false)
	var req service.PlanRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	sum, pts, err := plan.Run(context.Background(), planRequestOf(req.Problems[0]))
	if err != nil {
		return nil, err
	}
	return []codecCase{{
		body:   body,
		newReq: func() any { return new(service.PlanRequest) },
		answer: service.PlanEnvelope{Results: []*service.PlanResult{{Summary: sum, Points: pts}}},
	}}, nil
}

func (w *planCold) close() { w.srv.close() }

// --- api-warm: memo hits on every read endpoint ---

// apiCall is one request of the api-warm mix: the first three are
// cmd/loadgen's bodies.
type apiCall struct {
	path    string
	body    string
	newReq  func() any
	newResp func() any
	lookups int // memo lookups the handler makes
}

var apiCalls = []apiCall{
	{"/v1/lowerbound",
		`{"problems":[{"n1":9600,"n2":2400,"n3":600,"p":512},{"n1":2000,"n2":2000,"n3":2000,"p":64},{"n1":100,"n2":100,"n3":100,"p":8}]}`,
		func() any { return new(service.LowerBoundRequest) },
		func() any { return new(service.Envelope[service.LowerBoundResponse]) }, 3},
	{"/v1/predict",
		`{"problems":[{"n1":9600,"n2":2400,"n3":600,"p":512,"alpha":1e-6,"beta":1e-9,"gamma":1e-11},{"n1":64,"n2":64,"n3":64,"p":8,"beta":1}]}`,
		func() any { return new(service.PredictRequest) },
		func() any { return new(service.Envelope[service.PredictResponse]) }, 4},
	{"/v1/bound",
		`{"problems":[{"program":"A[i,k]*B[k,j] -> C[i,j] | i=9600 k=600 j=2400","p":512},` +
			`{"program":"F[i] += X[i]*Y[j] | i=4096 j=4096","p":64},` +
			`{"program":"A[a1,a2,c1]*B[c1,b1] -> C[a1,a2,b1] | a1=48 a2=48 c1=48 b1=48","p":27}]}`,
		func() any { return new(service.BoundRequest) },
		func() any { return new(service.Envelope[service.BoundResponse]) }, 3},
	{"/v1/grid",
		`{"n1":9600,"n2":2400,"n3":600,"p":512,"mem":1000000}`,
		func() any { return new(service.GridRequest) },
		func() any { return new(service.GridResponse) }, 4},
	{"/v1/plan",
		`{"problems":[{"n1":2000,"n2":2000,"n3":2000,"mem":1000000,"pMin":64,"pMax":1024,"log2":true}]}`,
		func() any { return new(service.PlanRequest) },
		func() any { return new(service.PlanEnvelope) }, 5},
}

type apiWarm struct {
	srv    *server
	offset int      // seeded start of the round robin
	ref    [][]byte // first answer per call
}

func newAPIWarm(seed uint64) (instance, error) {
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	w := &apiWarm{srv: srv, offset: int(mix(seed, 0) % uint64(len(apiCalls)))}
	for _, c := range apiCalls {
		resp, err := srv.post(context.Background(), c.path, []byte(c.body), 200)
		if err != nil {
			srv.close()
			return nil, fmt.Errorf("api-warm warm-up: %w", err)
		}
		w.ref = append(w.ref, resp)
	}
	return w, nil
}

func (w *apiWarm) op(ctx context.Context, i int) (func() error, error) {
	k := (i + w.offset) % len(apiCalls)
	resp, err := w.srv.post(ctx, apiCalls[k].path, []byte(apiCalls[k].body), 200)
	if err != nil {
		return nil, err
	}
	return func() error {
		if !bytes.Equal(resp, w.ref[k]) {
			return fmt.Errorf("%s: answer differs from the first answer to the same body", apiCalls[k].path)
		}
		return nil
	}, nil
}

func (w *apiWarm) verify() int { return 0 }

func (w *apiWarm) replay(ctx context.Context, rec *recorder, budget time.Duration) ([]string, error) {
	cases, err := w.codec()
	if err != nil {
		return nil, err
	}
	cache := service.NewCache(1 << 16)
	keys := make([][]string, len(apiCalls))
	for k, c := range apiCalls {
		for j := 0; j < c.lookups; j++ {
			keys[k] = append(keys[k], fmt.Sprintf("warm:%d:%d", k, j))
			cache.GetOrCompute(keys[k][j], func() any { return j })
		}
	}
	start := time.Now()
	for n := 0; replayMore(n, start, budget); n++ {
		k := (n + w.offset) % len(apiCalls)
		op := rec.begin("op", -1, n)
		rec.timed("http", op, n, func() { _, err = w.srv.post(ctx, apiCalls[k].path, []byte(apiCalls[k].body), 200) })
		if err != nil {
			return nil, err
		}
		rec.timed("service.decode", op, n, func() { err = json.Unmarshal(cases[k].body, cases[k].newReq()) })
		if err != nil {
			return nil, err
		}
		rec.timed("service.memo", op, n, func() {
			for _, key := range keys[k] {
				cache.GetOrCompute(key, func() any { return nil })
			}
		})
		rec.timed("service.encode", op, n, func() { err = encodeJSON(io.Discard, cases[k].answer) })
		if err != nil {
			return nil, err
		}
		rec.end(op)
	}
	return []string{"service.decode", "service.memo", "service.encode"}, nil
}

// encodeJSON encodes v the way the service writes answers.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

func (w *apiWarm) codec() ([]codecCase, error) {
	out := make([]codecCase, len(apiCalls))
	for k, c := range apiCalls {
		answer := c.newResp()
		if err := json.Unmarshal(w.ref[k], answer); err != nil {
			return nil, fmt.Errorf("decode %s answer: %w", c.path, err)
		}
		out[k] = codecCase{body: []byte(c.body), newReq: c.newReq, answer: answer}
	}
	return out, nil
}

func (w *apiWarm) close() { w.srv.close() }

// --- alg1-scale: whole Algorithm 1 runs ---

// alg1Shape is an n×n×n Algorithm 1 problem on p ranks.
type alg1Shape struct{ n, p int }

// alg1Scale is alg1-scale's problem, and the shape every traced run times
// the simulator layers on.
var alg1Scale = alg1Shape{n: 256, p: 16384}

func (s alg1Shape) dims() core.Dims { return core.Square(s.n) }

// alg1Opts are the options every Algorithm 1 run uses: the default engine
// and the bandwidth-only machine.
var alg1Opts = algs.Opts{Config: machine.BandwidthOnly()}

// run simulates the shape on the inputs a /v1/simulate job with this seed
// draws.
func (s alg1Shape) run(seed uint64) (*algs.Result, error) {
	return algs.Alg1(matrix.Random(s.n, s.n, 2*seed+17), matrix.Random(s.n, s.n, 2*seed+18), s.p, alg1Opts)
}

type alg1Run struct {
	seed   uint64
	a, b   *matrix.Dense
	ref    *matrix.Dense // serial product
	refMax float64       // largest |ref| entry, the scale of the 1e-9 relative check
}

// newAlg1 sets up alg1-scale: seeded inputs and the serial reference
// product every run is checked against.
func newAlg1(seed uint64) (instance, error) {
	s := alg1Scale
	w := &alg1Run{seed: seed, a: matrix.Random(s.n, s.n, mix(seed, 1)), b: matrix.Random(s.n, s.n, mix(seed, 2))}
	w.ref = matrix.Mul(w.a, w.b)
	for i := 0; i < s.n; i++ {
		for _, v := range w.ref.Row(i) {
			w.refMax = math.Max(w.refMax, math.Abs(v))
		}
	}
	return w, nil
}

func (w *alg1Run) op(_ context.Context, _ int) (func() error, error) {
	res, err := algs.Alg1(w.a, w.b, alg1Scale.p, alg1Opts)
	if err != nil {
		return nil, err
	}
	return func() error {
		if rel := res.C.MaxAbsDiff(w.ref) / w.refMax; !(rel <= 1e-9) {
			return fmt.Errorf("alg1: product off the serial reference by %g relative", rel)
		}
		if want := grid.CommCost(alg1Scale.dims(), res.Grid); res.CommCost() != want {
			return fmt.Errorf("alg1: moved %g words, eq. (3) gives %g", res.CommCost(), want)
		}
		return nil
	}, nil
}

func (w *alg1Run) verify() int { return 0 }

// replay times whole runs only; Algorithm 1's internals are estimated
// from separate calls on its shape (see alg1Explained).
func (w *alg1Run) replay(ctx context.Context, rec *recorder, budget time.Duration) ([]string, error) {
	start := time.Now()
	for k := 0; replayMore(k, start, budget); k++ {
		var err error
		rec.timed("algs.alg1", -1, k, func() { _, err = w.op(ctx, replayBase+k) })
		if err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// codec is the /v1/simulate request for the workload's problem and the job
// answer the service gives for it: the service's way into the same run.
func (w *alg1Run) codec() ([]codecCase, error) {
	s := alg1Scale
	res, err := s.run(w.seed)
	if err != nil {
		return nil, err
	}
	bound := core.LowerBound(s.dims(), s.p)
	answer := service.JobResponse{ID: "j1", Status: string(service.JobDone), Result: service.SimulateResult{
		Problem:      service.Problem{N1: s.n, N2: s.n, N3: s.n, P: s.p},
		Alg:          "Alg1",
		Grid:         service.GridJSON{P1: res.Grid.P1, P2: res.Grid.P2, P3: res.Grid.P3},
		CommCost:     res.CommCost(),
		Bound:        bound,
		RatioToBound: res.CommCost() / bound,
		TotalWords:   res.Stats.TotalWordsSent,
		CriticalPath: res.Stats.CriticalPath,
	}}
	return []codecCase{{
		body:   []byte(fmt.Sprintf(`{"n1":%d,"n2":%d,"n3":%d,"p":%d,"seed":%d}`, s.n, s.n, s.n, s.p, w.seed)),
		newReq: func() any { return new(service.SimulateRequest) },
		answer: answer,
	}}, nil
}

func (w *alg1Run) close() {}
