package service

import (
	"net/http"
	"reflect"
	"testing"
)

// TestLowerBoundEnvelope: the unified {"problems": [...]} shape answers an
// envelope with per-index partial success, and the legacy single and batch
// shapes keep answering their old bodies for the same inputs.
func TestLowerBoundEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	status, raw := post(t, ts, "/v1/lowerbound", `{"problems":[
		{"n1":9600,"n2":2400,"n3":600,"p":512},
		{"n1":0,"n2":5,"n3":5,"p":4},
		{"n1":100,"n2":100,"n3":100,"p":0}]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	env := decode[Envelope[LowerBoundResponse]](t, raw)
	if len(env.Results) != 3 || env.Results[0] == nil || env.Results[1] != nil || env.Results[2] != nil {
		t.Fatalf("results = %+v", env.Results)
	}
	if len(env.Errors) != 2 ||
		env.Errors[0].Index != 1 || env.Errors[0].Code != "bad_dims" ||
		env.Errors[1].Index != 2 || env.Errors[1].Code != "bad_processor_count" {
		t.Fatalf("errors = %+v", env.Errors)
	}

	// The envelope result for a valid problem is bit-for-bit the legacy
	// single response.
	status, legacyRaw := post(t, ts, "/v1/lowerbound", `{"n1":9600,"n2":2400,"n3":600,"p":512}`)
	if status != http.StatusOK {
		t.Fatalf("legacy status %d", status)
	}
	legacy := decode[LowerBoundResponse](t, legacyRaw)
	if !reflect.DeepEqual(*env.Results[0], legacy) {
		t.Fatalf("envelope result %+v differs from legacy %+v", *env.Results[0], legacy)
	}
}

// TestPredictEnvelope: each envelope entry carries its own machine model
// and optional grid/topology, and matches the legacy single-shape answer.
func TestPredictEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	status, raw := post(t, ts, "/v1/predict", `{"problems":[
		{"n1":9600,"n2":2400,"n3":600,"p":512,"alpha":1e-6,"beta":1e-9,"gamma":1e-11},
		{"n1":64,"n2":64,"n3":64,"p":8,"beta":1,"grid":{"p1":2,"p2":2,"p3":2}},
		{"n1":64,"n2":64,"n3":64,"p":8,"beta":1,"grid":{"p1":2,"p2":2,"p3":3}}]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	env := decode[Envelope[PredictResponse]](t, raw)
	if len(env.Results) != 3 || env.Results[0] == nil || env.Results[1] == nil || env.Results[2] != nil {
		t.Fatalf("results = %+v", env.Results)
	}
	if len(env.Errors) != 1 || env.Errors[0].Index != 2 || env.Errors[0].Code != "grid_mismatch" {
		t.Fatalf("errors = %+v", env.Errors)
	}
	if g := env.Results[1].Grid; g != (GridJSON{2, 2, 2}) {
		t.Fatalf("pinned grid lost: %+v", g)
	}

	status, legacyRaw := post(t, ts, "/v1/predict",
		`{"n1":9600,"n2":2400,"n3":600,"p":512,"alpha":1e-6,"beta":1e-9,"gamma":1e-11}`)
	if status != http.StatusOK {
		t.Fatalf("legacy status %d", status)
	}
	legacy := decode[PredictResponse](t, legacyRaw)
	if !reflect.DeepEqual(*env.Results[0], legacy) {
		t.Fatalf("envelope result %+v differs from legacy %+v", *env.Results[0], legacy)
	}
}

// TestSimulateEnvelope: {"problems": [...]} collects every bad index into
// a 400 envelope; a valid list runs as one job whose result is an
// Envelope[SimulateResult].
func TestSimulateEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	status, raw := post(t, ts, "/v1/simulate", `{"problems":[
		{"n1":64,"n2":64,"n3":64,"p":8},
		{"n1":0,"n2":64,"n3":64,"p":8},
		{"n1":64,"n2":64,"n3":64,"p":2000000}]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d: %s", status, raw)
	}
	env := decode[Envelope[SimulateResult]](t, raw)
	if len(env.Results) != 3 || len(env.Errors) != 2 ||
		env.Errors[0].Index != 1 || env.Errors[0].Code != "bad_dims" ||
		env.Errors[1].Index != 2 || env.Errors[1].Code != "too_many_ranks" {
		t.Fatalf("validation envelope = %+v", env)
	}

	status, raw = post(t, ts, "/v1/simulate", `{"problems":[
		{"n1":64,"n2":64,"n3":64,"p":8},
		{"n1":48,"n2":48,"n3":48,"p":4}]}`)
	if status != http.StatusAccepted {
		t.Fatalf("accept status %d: %s", status, raw)
	}
	final := waitJob(t, ts, decode[JobResponse](t, raw).ID)
	if final.Status != string(JobDone) {
		t.Fatalf("job = %+v", final)
	}
	result := decode[Envelope[SimulateResult]](t, mustMarshal(t, final.Result))
	if len(result.Results) != 2 || len(result.Errors) != 0 {
		t.Fatalf("job result envelope = %+v", result)
	}
	for i, r := range result.Results {
		if r == nil || r.CommCost < r.Bound || r.Alg != "Alg1" {
			t.Fatalf("results[%d] = %+v", i, r)
		}
	}
	if result.Results[0].Problem.P != 8 || result.Results[1].Problem.P != 4 {
		t.Fatalf("problem order lost: %+v", result.Results)
	}
}
