package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
)

// planRow mirrors PlanRow for decoding the NDJSON stream in tests.
type planRow struct {
	Problem int            `json:"problem"`
	Summary *plan.Summary  `json:"summary"`
	Point   *plan.Point    `json:"point"`
	Error   *EnvelopeError `json:"error"`
	Done    bool           `json:"done"`
}

// TestPlanInline: a small range answers one inline envelope that matches
// the plan package's own Run output exactly.
func TestPlanInline(t *testing.T) {
	_, ts := newTestServer(t)
	status, raw := post(t, ts, "/v1/plan",
		`{"problems":[{"n1":64,"n2":64,"n3":64,"mem":1e9,"pMin":1,"pMax":16}]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	env := decode[struct {
		Results []*PlanResult   `json:"results"`
		Errors  []EnvelopeError `json:"errors"`
	}](t, raw)
	if len(env.Results) != 1 || env.Results[0] == nil || len(env.Errors) != 0 {
		t.Fatalf("envelope = %+v", env)
	}
	wantSum, wantPts, err := plan.Run(context.Background(), plan.Request{
		Dims: core.NewDims(64, 64, 64), Mem: 1e9, PMin: 1, PMax: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := env.Results[0].Summary; !reflect.DeepEqual(got, wantSum) {
		t.Fatalf("summary = %+v, want %+v", got, wantSum)
	}
	if got := env.Results[0].Points; !reflect.DeepEqual(got, wantPts) {
		t.Fatalf("points differ from plan.Run: %d vs %d", len(got), len(wantPts))
	}
}

// TestPlanValidationEnvelope: invalid problems fail the whole request with
// 400 and one indexed envelope error each; valid entries compute nothing.
func TestPlanValidationEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	status, raw := post(t, ts, "/v1/plan", `{"problems":[
		{"n1":64,"n2":64,"n3":64,"mem":1e9,"pMin":1,"pMax":8},
		{"n1":64,"n2":64,"n3":64,"mem":0,"pMin":1,"pMax":8},
		{"n1":0,"n2":64,"n3":64,"mem":1e9,"pMin":1,"pMax":8}]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d: %s", status, raw)
	}
	env := decode[PlanEnvelope](t, raw)
	if len(env.Results) != 3 || env.Results[0] != nil {
		t.Fatalf("results = %+v, want three nulls", env.Results)
	}
	if len(env.Errors) != 2 ||
		env.Errors[0].Index != 1 || env.Errors[0].Code != "bad_plan_range" ||
		env.Errors[1].Index != 2 || env.Errors[1].Code != "bad_dims" {
		t.Fatalf("errors = %+v", env.Errors)
	}

	status, _ = post(t, ts, "/v1/plan", `{"problems":[]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("empty problems status %d", status)
	}
}

// streamPlanRows posts body to /v1/plan under ctx and decodes every NDJSON
// row until EOF.
func streamPlanRows(t *testing.T, ts *httptest.Server, body string) []planRow {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var rows []planRow
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		rows = append(rows, decode[planRow](t, sc.Bytes()))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestPlanStreamNDJSON: a range past the inline limit streams NDJSON —
// summary row first, then every point in P order, then the done row.
func TestPlanStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t) // inline limit defaults to 512; 600 points stream
	rows := streamPlanRows(t, ts,
		`{"problems":[{"n1":96,"n2":96,"n3":96,"mem":1e9,"pMin":1,"pMax":600}]}`)
	if len(rows) != 602 {
		t.Fatalf("got %d rows, want summary + 600 points + done", len(rows))
	}
	if rows[0].Summary == nil || rows[0].Summary.Points != 600 {
		t.Fatalf("first row = %+v, want the summary", rows[0])
	}
	for i, row := range rows[1:601] {
		if row.Point == nil || row.Problem != 0 {
			t.Fatalf("row %d = %+v, want a point", i+1, row)
		}
		if row.Point.P != i+1 {
			t.Fatalf("row %d out of order: P = %d, want %d", i+1, row.Point.P, i+1)
		}
	}
	if !rows[601].Done {
		t.Fatalf("last row = %+v, want done", rows[601])
	}

	// Forcing stream on a tiny range exercises the same path end to end.
	rows = streamPlanRows(t, ts,
		`{"problems":[{"n1":64,"n2":64,"n3":64,"mem":1e9,"pMin":1,"pMax":4}],"stream":true}`)
	if len(rows) != 6 || rows[0].Summary == nil || !rows[5].Done {
		t.Fatalf("forced stream rows = %+v", rows)
	}
}

// TestPlanStreamCancel: cancelling a client mid-stream stops the sweep and
// releases the pool workers; the server keeps serving. Run with -race this
// is the cancellation-correctness test for the streaming path.
func TestPlanStreamCancel(t *testing.T) {
	_, ts := newTestServer(t)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"problems":[{"n1":512,"n2":512,"n3":512,"mem":1e9,"pMin":1,"pMax":30000}]}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/plan", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a couple of rows so the stream is demonstrably live, then hang up.
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 3 && sc.Scan(); i++ {
	}
	cancel()
	resp.Body.Close()

	// The sweep's workers must exit once the context error propagates.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+8 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancel: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And the limiter slot is back: a fresh plan succeeds.
	status, raw := post(t, ts, "/v1/plan",
		`{"problems":[{"n1":64,"n2":64,"n3":64,"mem":1e9,"pMin":1,"pMax":8}]}`)
	if status != http.StatusOK {
		t.Fatalf("post-cancel plan status %d: %s", status, raw)
	}
}

// TestPlanOverload503: with one plan slot, a live stream makes the next
// plan request answer 503 "overloaded" immediately; releasing the slot
// restores service.
func TestPlanOverload503(t *testing.T) {
	s := New(Config{Workers: 2, PlanConcurrency: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	// Headers arrive once streamPlan starts writing, so receiving the
	// response means the handler holds the only slot.
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(
		`{"problems":[{"n1":512,"n2":512,"n3":512,"mem":1e9,"pMin":1,"pMax":30000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}

	status, raw := post(t, ts, "/v1/plan",
		`{"problems":[{"n1":64,"n2":64,"n3":64,"mem":1e9,"pMin":1,"pMax":8}]}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("second plan status %d: %s", status, raw)
	}
	if e := decode[ErrorResponse](t, raw); e.Kind != "overloaded" {
		t.Fatalf("kind = %q", e.Kind)
	}
	if s.overloads.Load() == 0 {
		t.Fatal("overload counter not incremented")
	}

	resp.Body.Close() // hang up; the handler notices and releases the slot
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _ = post(t, ts, "/v1/plan",
			`{"problems":[{"n1":64,"n2":64,"n3":64,"mem":1e9,"pMin":1,"pMax":8}]}`)
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released: status %d", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPlanSingleflightCollapse: concurrent identical topology-priced plans
// compute each point exactly once, the guarantee that makes a fleet of
// clients planning one fabric cost one fabric build per point. 6 clients ×
// 200 points must cost 200 misses, not 1200. Closed-form points skip the
// memo, so this needs a topology.
func TestPlanSingleflightCollapse(t *testing.T) {
	s := New(Config{Workers: 2, PlanConcurrency: 8, PlanInlineLimit: 1000})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	const clients, points = 6, 200
	body := `{"problems":[{"n1":64,"n2":64,"n3":64,"mem":1e9,"pMin":1,"pMax":200,"topology":{"spec":"flat"}}]}`
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, raw := post(t, ts, "/v1/plan", body)
			if status != http.StatusOK {
				t.Errorf("plan status %d: %s", status, raw)
			}
		}()
	}
	wg.Wait()

	hits, misses := s.cache.Stats()
	if misses != points {
		t.Fatalf("misses = %d, want exactly %d (one compute per point)", misses, points)
	}
	if hits+s.cache.Shared() != int64(clients-1)*points {
		t.Fatalf("hits %d + shared %d ≠ %d", hits, s.cache.Shared(), (clients-1)*points)
	}
	if got := s.planPoints.Load(); got != clients*points {
		t.Fatalf("planPoints = %d, want %d", got, clients*points)
	}

	status, raw := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	m := parseProm(t, raw)
	if m["service_plan_points_total"] != clients*points || m["service_cache_shared_total"] != float64(s.cache.Shared()) {
		t.Fatalf("plan points %v, shared %v; want %d, %d",
			m["service_plan_points_total"], m["service_cache_shared_total"], clients*points, s.cache.Shared())
	}
}

// TestJobListEndpoint drives GET /v1/jobs end to end: ordering, cursor
// pagination, state filter, and parameter validation.
func TestJobListEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var ids []string
	for i := 0; i < 3; i++ {
		status, raw := post(t, ts, "/v1/simulate", `{"n1":64,"n2":64,"n3":64,"p":8}`)
		if status != http.StatusAccepted {
			t.Fatalf("simulate status %d: %s", status, raw)
		}
		id := decode[JobResponse](t, raw).ID
		waitJob(t, ts, id)
		ids = append(ids, id)
	}

	status, raw := get(t, ts, "/v1/jobs")
	if status != http.StatusOK {
		t.Fatalf("list status %d: %s", status, raw)
	}
	all := decode[JobListResponse](t, raw)
	if len(all.Jobs) != 3 || all.NextCursor != "" {
		t.Fatalf("list = %+v", all)
	}
	for i, j := range all.Jobs {
		if j.ID != ids[i] || j.Status != string(JobDone) || j.Created.IsZero() {
			t.Fatalf("jobs[%d] = %+v, want %s done", i, j, ids[i])
		}
	}

	_, raw = get(t, ts, "/v1/jobs?limit=2")
	page := decode[JobListResponse](t, raw)
	if len(page.Jobs) != 2 || page.NextCursor != ids[1] {
		t.Fatalf("page 1 = %+v", page)
	}
	_, raw = get(t, ts, "/v1/jobs?limit=2&cursor="+page.NextCursor)
	page = decode[JobListResponse](t, raw)
	if len(page.Jobs) != 1 || page.Jobs[0].ID != ids[2] || page.NextCursor != "" {
		t.Fatalf("page 2 = %+v", page)
	}

	_, raw = get(t, ts, "/v1/jobs?state=done")
	if done := decode[JobListResponse](t, raw); len(done.Jobs) != 3 {
		t.Fatalf("state=done = %+v", done)
	}
	_, raw = get(t, ts, "/v1/jobs?state=failed")
	if failed := decode[JobListResponse](t, raw); len(failed.Jobs) != 0 {
		t.Fatalf("state=failed = %+v", failed)
	}

	for _, q := range []string{"state=bogus", "limit=0", "limit=x", "cursor=7", "cursor=jx"} {
		if status, raw := get(t, ts, "/v1/jobs?"+q); status != http.StatusBadRequest {
			t.Fatalf("%s status %d: %s", q, status, raw)
		}
	}
}

// TestOverflowingPredictionIsBadOpts: an α, β or γ that pushes a predicted
// time past float64 is that problem's bad_opts error on every shape —
// inline plan, stream, job, predict envelope and single predict — where
// encoding/json used to refuse the +Inf after a 200 status line was out.
// A mem so small that the summary's crossover or memory floor overflows is
// bad_plan_range, and a negative α, β or γ bad_opts, before any plan
// answer starts.
func TestOverflowingPredictionIsBadOpts(t *testing.T) {
	_, ts := newArtifactServer(t, Config{})
	const ok = `{"n1":64,"n2":64,"n3":64,"mem":1e9,"pMin":1,"pMax":8}`
	for _, c := range []struct{ fields, code string }{
		{`"mem":1e-250`, "bad_plan_range"},
		{`"mem":5e-324`, "bad_plan_range"},
		{`"mem":1e9,"alpha":-1e308`, "bad_opts"},
		{`"mem":1e9,"beta":-1e308`, "bad_opts"},
		{`"mem":1e9,"gamma":-1e308`, "bad_opts"},
	} {
		body := `{"problems":[` + ok + `,{"n1":64,"n2":64,"n3":64,` + c.fields + `,"pMin":1,"pMax":8}]`
		for _, mode := range []string{`"stream":false`, `"stream":true`, `"job":true`} {
			status, raw := post(t, ts, "/v1/plan", body+`,`+mode+`}`)
			env := decode[PlanEnvelope](t, raw)
			if status != http.StatusBadRequest || len(env.Errors) != 1 || env.Errors[0].Index != 1 ||
				env.Errors[0].Code != c.code {
				t.Errorf("%s, %s: status %d, %s", c.fields, mode, status, raw)
			}
		}
	}
	for _, field := range []string{`"alpha":1e308`, `"beta":1e308`, `"gamma":1e308`} {
		bad := `{"n1":64,"n2":64,"n3":64,"mem":1e9,"pMin":2,"pMax":8,` + field + `}`
		body := `{"problems":[` + ok + `,` + bad + `]`

		status, raw := post(t, ts, "/v1/plan", body+`,"stream":false}`)
		env := decode[PlanEnvelope](t, raw)
		if status != http.StatusOK || len(env.Results) != 2 || env.Results[0] == nil || env.Results[1] != nil ||
			len(env.Errors) != 1 || env.Errors[0].Index != 1 || env.Errors[0].Code != "bad_opts" {
			t.Errorf("%s inline: status %d, %s", field, status, raw)
		}

		rows := streamPlanRows(t, ts, body+`,"stream":true}`)
		var errRows []*EnvelopeError
		for _, r := range rows {
			if r.Error != nil {
				errRows = append(errRows, r.Error)
			}
		}
		if len(errRows) != 1 || errRows[0].Index != 1 || errRows[0].Code != "bad_opts" || !rows[len(rows)-1].Done {
			t.Errorf("%s stream: error rows %+v", field, errRows)
		}

		status, raw = post(t, ts, "/v1/plan", body+`,"job":true}`)
		if status != http.StatusAccepted {
			t.Fatalf("%s job submit: status %d: %s", field, status, raw)
		}
		job := waitJob(t, ts, decode[JobResponse](t, raw).ID)
		var res PlanJobResult
		if err := json.Unmarshal(mustJSON(t, job.Result), &res); err != nil {
			t.Fatal(err)
		}
		if job.Status != string(JobDone) || len(res.Errors) != 1 || res.Errors[0].Code != "bad_opts" {
			t.Errorf("%s job: %+v", field, job)
		}

		single := `{"n1":64,"n2":64,"n3":64,"p":8,` + field + `}`
		status, raw = post(t, ts, "/v1/predict", `{"problems":[{"n1":64,"n2":64,"n3":64,"p":8,"beta":1},`+single+`]}`)
		penv := decode[Envelope[PredictResponse]](t, raw)
		if status != http.StatusOK || penv.Results[0] == nil || penv.Results[1] != nil ||
			len(penv.Errors) != 1 || penv.Errors[0].Code != "bad_opts" {
			t.Errorf("%s predict envelope: status %d, %s", field, status, raw)
		}
		status, raw = post(t, ts, "/v1/predict", single)
		if status != http.StatusBadRequest || decode[ErrorResponse](t, raw).Kind != "bad_opts" {
			t.Errorf("%s predict: status %d, %s", field, status, raw)
		}
	}
}

// TestForcedInlinePlanCapsTotal: "stream": false buffers every problem of
// the batch in one envelope, so MaxPlanPoints caps their total; streams
// and jobs hold one chunk at a time and keep the per-problem cap.
func TestForcedInlinePlanCapsTotal(t *testing.T) {
	_, ts := newArtifactServer(t, Config{MaxPlanPoints: 100})
	p := `{"n1":64,"n2":64,"n3":64,"mem":1e9,"pMin":1,"pMax":100}`
	body := `{"problems":[` + p + `,` + p + `,` + p + `]`
	status, raw := post(t, ts, "/v1/plan", body+`,"stream":false}`)
	if e := decode[ErrorResponse](t, raw); status != http.StatusBadRequest || e.Kind != "bad_plan_range" ||
		!strings.Contains(e.Error, "300") || !strings.Contains(e.Error, "100") {
		t.Fatalf("forced inline: status %d: %s", status, raw)
	}
	if rows := streamPlanRows(t, ts, body+`,"stream":true}`); len(rows) != 3*101+1 {
		t.Fatalf("stream: %d rows, want %d", len(rows), 3*101+1)
	}
	if status, raw := post(t, ts, "/v1/plan", body+`,"job":true}`); status != http.StatusAccepted {
		t.Fatalf("job: status %d: %s", status, raw)
	}
	if status, raw := post(t, ts, "/v1/plan", `{"problems":[`+p+`],"stream":false}`); status != http.StatusOK {
		t.Fatalf("one problem at the cap: status %d: %s", status, raw)
	}
}
