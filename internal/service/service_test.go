package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, JobTimeout: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, ts
}

// post sends body to path and returns the status and raw response body.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func decode[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("unmarshal %T from %s: %v", v, raw, err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	status, raw := get(t, ts, "/healthz")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if h := decode[HealthResponse](t, raw); h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	// Off by default: the profile endpoints must not exist.
	_, ts := newTestServer(t)
	if status, _ := get(t, ts, "/debug/pprof/"); status != http.StatusNotFound {
		t.Fatalf("pprof disabled but /debug/pprof/ answered %d", status)
	}

	s := New(Config{Workers: 2, EnablePprof: true})
	tsOn := httptest.NewServer(s.Handler())
	defer tsOn.Close()
	defer s.Shutdown(context.Background())
	status, raw := get(t, tsOn, "/debug/pprof/")
	if status != http.StatusOK {
		t.Fatalf("pprof enabled but /debug/pprof/ answered %d", status)
	}
	if !bytes.Contains(raw, []byte("goroutine")) {
		t.Fatalf("pprof index does not list profiles: %.200s", raw)
	}
}

func TestLowerBoundSingle(t *testing.T) {
	_, ts := newTestServer(t)
	status, raw := post(t, ts, "/v1/lowerbound", `{"n1":9600,"n2":2400,"n3":600,"p":512}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	resp := decode[LowerBoundResponse](t, raw)
	d := core.NewDims(9600, 2400, 600)
	if want := core.LowerBound(d, 512); resp.Bound != want {
		t.Fatalf("bound = %v, want %v", resp.Bound, want)
	}
	if resp.Case != int(core.CaseOf(d, 512)) {
		t.Fatalf("case = %d", resp.Case)
	}
	if resp.Footprint != core.D(d, 512) {
		t.Fatalf("footprint = %v", resp.Footprint)
	}
}

func TestLowerBoundBatch(t *testing.T) {
	_, ts := newTestServer(t)
	status, raw := post(t, ts, "/v1/lowerbound",
		`{"batch":[{"n1":100,"n2":100,"n3":100,"p":8},{"n1":9600,"n2":2400,"n3":600,"p":512}]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	resp := decode[BatchLowerBoundResponse](t, raw)
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	if want := core.LowerBound(core.Square(100), 8); resp.Results[0].Bound != want {
		t.Fatalf("batch[0].bound = %v, want %v", resp.Results[0].Bound, want)
	}
	if resp.Results[1].Problem.P != 512 {
		t.Fatalf("batch order lost: %+v", resp.Results[1].Problem)
	}
}

// TestErrorStatusMapping pins the taxonomy → HTTP status contract of every
// v1 endpoint.
func TestErrorStatusMapping(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, path, body string
		wantStatus       int
		wantKind         string
	}{
		{"bad dims", "/v1/lowerbound", `{"n1":0,"n2":5,"n3":5,"p":4}`, 400, "bad_dims"},
		{"bad dims in batch", "/v1/lowerbound", `{"batch":[{"n1":5,"n2":5,"n3":5,"p":4},{"n1":-1,"n2":5,"n3":5,"p":4}]}`, 400, "bad_dims"},
		{"bad P", "/v1/lowerbound", `{"n1":5,"n2":5,"n3":5,"p":0}`, 400, "bad_processor_count"},
		{"malformed JSON", "/v1/lowerbound", `{"n1":`, 400, "bad_request"},
		{"bad dims grid", "/v1/grid", `{"n1":5,"n2":-2,"n3":5,"p":4}`, 400, "bad_dims"},
		{"grid mismatch", "/v1/predict", `{"n1":64,"n2":64,"n3":64,"p":8,"grid":{"p1":2,"p2":2,"p3":3},"beta":1}`, 422, "grid_mismatch"},
		{"bad grid extents", "/v1/predict", `{"n1":64,"n2":64,"n3":64,"p":8,"grid":{"p1":0,"p2":2,"p3":4},"beta":1}`, 422, "grid_mismatch"},
		{"unknown alg", "/v1/simulate", `{"alg":"Strassen9000","n1":8,"n2":8,"n3":8,"p":4}`, 404, "unsupported_alg"},
		{"sim too large", "/v1/simulate", `{"n1":4000,"n2":4000,"n3":4000,"p":8}`, 400, "bad_dims"},
		{"sim too many procs", "/v1/simulate", `{"n1":64,"n2":64,"n3":64,"p":2000000}`, 400, "too_many_ranks"},
		{"sim too many procs event", "/v1/simulate", `{"n1":64,"n2":64,"n3":64,"p":2000000,"engine":"event"}`, 400, "too_many_ranks"},
		{"unknown engine", "/v1/simulate", `{"n1":64,"n2":64,"n3":64,"p":8,"engine":"fibers"}`, 400, "bad_opts"},
		{"sim grid mismatch", "/v1/simulate", `{"n1":64,"n2":64,"n3":64,"p":8,"grid":{"p1":-1,"p2":2,"p3":4}}`, 422, "grid_mismatch"},
		{"unknown topology", "/v1/predict", `{"n1":64,"n2":64,"n3":64,"p":8,"beta":1,"topology":{"spec":"hypercube=3"}}`, 400, "bad_topology"},
		{"topology size mismatch", "/v1/predict", `{"n1":64,"n2":64,"n3":64,"p":8,"beta":1,"topology":{"spec":"torus=4x4"}}`, 400, "bad_topology"},
		{"unknown placement", "/v1/simulate", `{"n1":64,"n2":64,"n3":64,"p":8,"topology":{"spec":"flat","place":"zigzag"}}`, 400, "bad_topology"},
		{"batch topology mismatch", "/v1/simulate", `{"batch":[{"n1":64,"n2":64,"n3":64,"p":8},{"n1":48,"n2":48,"n3":48,"p":4}],"topology":{"spec":"torus=2x2x2"}}`, 400, "bad_topology"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := post(t, ts, tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", status, tc.wantStatus, raw)
			}
			if e := decode[ErrorResponse](t, raw); e.Kind != tc.wantKind {
				t.Fatalf("kind = %q, want %q (%s)", e.Kind, tc.wantKind, e.Error)
			}
		})
	}
	if status, raw := get(t, ts, "/v1/jobs/nope"); status != 404 {
		t.Fatalf("unknown job status = %d: %s", status, raw)
	}
}

func TestGridEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	status, raw := post(t, ts, "/v1/grid", `{"n1":9600,"n2":2400,"n3":600,"p":512}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	resp := decode[GridResponse](t, raw)
	d := core.NewDims(9600, 2400, 600)
	want := grid.Optimal(d, 512)
	if resp.Optimal != (GridJSON{want.P1, want.P2, want.P3}) {
		t.Fatalf("optimal = %+v, want %v", resp.Optimal, want)
	}
	if resp.CommCost != grid.CommCost(d, want) {
		t.Fatalf("commCost = %v", resp.CommCost)
	}
	if resp.CaseGrid == nil {
		t.Fatalf("caseGrid missing (this shape admits the exact §5.2 grid): %s", raw)
	}
	// The §5.2 grid on this shape attains the bound: ratio 1.
	if math.Abs(resp.RatioToBound-1) > 1e-9 {
		t.Fatalf("ratioToBound = %v", resp.RatioToBound)
	}
	// With a memory limit admitting the optimal grid (its footprint here
	// is D = 270000 words) the constrained answer matches it; tighter
	// limits report that nothing fits, since eq. (3)'s positive terms are
	// exactly the footprint.
	status, raw = post(t, ts, "/v1/grid", `{"n1":9600,"n2":2400,"n3":600,"p":512,"mem":300000}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	memResp := decode[GridResponse](t, raw)
	if !memResp.UnderMemoryFits || memResp.UnderMemory == nil {
		t.Fatalf("underMemory missing: %s", raw)
	}
	if memResp.UnderMemoryCost < memResp.CommCost {
		t.Fatalf("memory-constrained cost %v below unconstrained %v", memResp.UnderMemoryCost, memResp.CommCost)
	}
}

func TestPredictEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	status, raw := post(t, ts, "/v1/predict",
		`{"n1":9600,"n2":2400,"n3":600,"p":512,"alpha":1e-6,"beta":1e-9,"gamma":1e-11}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	resp := decode[PredictResponse](t, raw)
	if resp.Total <= 0 || resp.Total != resp.Compute+resp.Bandwidth+resp.Latency {
		t.Fatalf("inconsistent decomposition: %+v", resp)
	}
	if resp.Words <= 0 || resp.Messages <= 0 {
		t.Fatalf("words/messages missing: %+v", resp)
	}
}

// TestCacheHitBitIdentical asserts a cache hit serves byte-identical JSON
// to the cold computation, and that the hit is observable via /debug/vars.
func TestCacheHitBitIdentical(t *testing.T) {
	s, ts := newTestServer(t)
	body := `{"n1":9600,"n2":2400,"n3":600,"p":512}`
	for _, path := range []string{"/v1/grid", "/v1/lowerbound", "/v1/predict"} {
		req := body
		if path == "/v1/predict" {
			req = `{"n1":9600,"n2":2400,"n3":600,"p":512,"alpha":1,"beta":2,"gamma":3}`
		}
		status, cold := post(t, ts, path, req)
		if status != http.StatusOK {
			t.Fatalf("%s cold status %d: %s", path, status, cold)
		}
		hitsBefore, _ := s.Cache().Stats()
		status, warm := post(t, ts, path, req)
		if status != http.StatusOK {
			t.Fatalf("%s warm status %d", path, status)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("%s: cached response differs from cold:\n%s\n%s", path, cold, warm)
		}
		if hitsAfter, _ := s.Cache().Stats(); hitsAfter <= hitsBefore {
			t.Fatalf("%s: repeat request did not hit the cache", path)
		}
	}
	status, raw := get(t, ts, "/debug/vars")
	if status != http.StatusOK {
		t.Fatalf("vars status %d", status)
	}
	vars := decode[VarsResponse](t, raw)
	if vars.CacheHits == 0 || vars.CacheMisses == 0 || vars.CacheEntries == 0 {
		t.Fatalf("cache counters not visible: %+v", vars)
	}
	if vars.Requests == 0 {
		t.Fatalf("request counter not visible: %+v", vars)
	}
}

// waitJob polls the job API until the job leaves the queue/run states.
func waitJob(t *testing.T, ts *httptest.Server, id string) JobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, raw := get(t, ts, "/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("jobs/%s status %d: %s", id, status, raw)
		}
		resp := decode[JobResponse](t, raw)
		if resp.Status != string(JobQueued) && resp.Status != string(JobRunning) {
			return resp
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, resp.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSimAdmissionOneCap pins the single simulation P limit: by default
// every P up to 2^20 is admitted, with or without the legacy "engine"
// field, and one more rank is refused. The legacy names are accepted and
// ignored, so the same body answers the same result under each of them.
func TestSimAdmissionOneCap(t *testing.T) {
	s, ts := newTestServer(t)
	for _, tc := range []struct {
		p    int
		want error
	}{{4097, nil}, {100000, nil}, {1 << 20, nil}, {1<<20 + 1, core.ErrTooManyRanks}} {
		if _, err := s.checkSimProblem(Problem{N1: 64, N2: 64, N3: 64, P: tc.p}); !errors.Is(err, tc.want) {
			t.Errorf("P=%d: admission err = %v, want %v", tc.p, err, tc.want)
		}
	}
	var first SimulateResult
	for i, engine := range []string{"", "goroutine", "event"} {
		body := fmt.Sprintf(`{"n1":16,"n2":16,"n3":16,"p":8,"engine":%q}`, engine)
		status, raw := post(t, ts, "/v1/simulate", body)
		if status != http.StatusAccepted {
			t.Fatalf("engine %q: status %d: %s", engine, status, raw)
		}
		final := waitJob(t, ts, decode[JobResponse](t, raw).ID)
		if final.Status != string(JobDone) {
			t.Fatalf("engine %q: job = %+v", engine, final)
		}
		res := decode[SimulateResult](t, mustMarshal(t, final.Result))
		if i == 0 {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Errorf("engine %q: result %+v differs from %+v", engine, res, first)
		}
	}
}

// TestSimulateJobLifecycle drives POST /v1/simulate → GET /v1/jobs/{id}
// end-to-end and checks the simulated run attains the Theorem 3 bound on a
// conforming configuration.
func TestSimulateJobLifecycle(t *testing.T) {
	s, ts := newTestServer(t)
	status, raw := post(t, ts, "/v1/simulate", `{"n1":64,"n2":64,"n3":64,"p":8,"verify":true}`)
	if status != http.StatusAccepted {
		t.Fatalf("accept status %d: %s", status, raw)
	}
	accepted := decode[JobResponse](t, raw)
	if accepted.ID == "" || accepted.Status != string(JobQueued) {
		t.Fatalf("accept = %+v", accepted)
	}
	final := waitJob(t, ts, accepted.ID)
	if final.Status != string(JobDone) {
		t.Fatalf("job = %+v", final)
	}
	res := decode[SimulateResult](t, mustMarshal(t, final.Result))
	if res.Alg != "Alg1" {
		t.Fatalf("alg = %q", res.Alg)
	}
	// 64³ on P=8 admits the exact 2×2×2 grid: measured == bound.
	if math.Abs(res.RatioToBound-1) > 1e-9 {
		t.Fatalf("ratioToBound = %v (grid %+v)", res.RatioToBound, res.Grid)
	}
	if res.MaxAbsDiff == nil || *res.MaxAbsDiff > 1e-9*64 {
		t.Fatalf("verification failed: %+v", res.MaxAbsDiff)
	}
	if s.WordsSimulated() <= 0 {
		t.Fatal("wordsSimulated counter not incremented")
	}
}

func TestSimulateBatchJob(t *testing.T) {
	_, ts := newTestServer(t)
	status, raw := post(t, ts, "/v1/simulate",
		`{"alg":"alg1","batch":[{"n1":64,"n2":64,"n3":64,"p":8},{"n1":48,"n2":48,"n3":48,"p":4}]}`)
	if status != http.StatusAccepted {
		t.Fatalf("accept status %d: %s", status, raw)
	}
	accepted := decode[JobResponse](t, raw)
	final := waitJob(t, ts, accepted.ID)
	if final.Status != string(JobDone) {
		t.Fatalf("job = %+v", final)
	}
	results := decode[[]SimulateResult](t, mustMarshal(t, final.Result))
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Problem.P != 8 || results[1].Problem.P != 4 {
		t.Fatalf("batch order lost: %+v", results)
	}
	for _, r := range results {
		if r.CommCost <= 0 || r.CommCost < r.Bound {
			t.Fatalf("measured %v below bound %v", r.CommCost, r.Bound)
		}
	}
}

func TestSimulateJobCancel(t *testing.T) {
	_, ts := newTestServer(t)
	// A wide batch keeps the job running long enough to cancel; the
	// between-point context checks then stop it.
	var sb strings.Builder
	sb.WriteString(`{"batch":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"n1":96,"n2":96,"n3":96,"p":16}`)
	}
	sb.WriteString(`]}`)
	status, raw := post(t, ts, "/v1/simulate", sb.String())
	if status != http.StatusAccepted {
		t.Fatalf("accept status %d: %s", status, raw)
	}
	id := decode[JobResponse](t, raw).ID
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	final := waitJob(t, ts, id)
	// The job may have finished before the cancel landed; both terminal
	// states are legal, but a cancelled job must report the context error.
	if final.Status == string(JobCancelled) && final.Error == "" {
		t.Fatalf("cancelled without error: %+v", final)
	}
	if final.Status == string(JobFailed) {
		t.Fatalf("job failed: %+v", final)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
