package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The endpoints FuzzV1Decoders drives, by its endpoint argument mod 5.
const (
	fuzzLowerBound = iota
	fuzzPredict
	fuzzBound
	fuzzGrid
	fuzzPlan
)

// FuzzV1Decoders drives the v1 decoders with generated bodies: lowerbound,
// predict and bound in every form each accepts, grid, and plan (inline or
// streamed). No answer may panic or be a 5xx; every error kind and envelope
// code must come from the taxonomy table, bad_request or not_found; and
// each legacy answer must equal what reply derives from the envelope
// answer to the same problems. The limits are small so that no input
// starts a long divisor search or sweep.
func FuzzV1Decoders(f *testing.F) {
	s := New(Config{Workers: 1, CacheSize: 1024, MaxSearchProcs: 1 << 12, MaxTopoProcs: 1 << 9, MaxPlanPoints: 64})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()

	// A grid whose extent product wraps to P = 4; on the flat topology,
	// sizing its fibers panics unless Validate rejects it.
	f.Add(uint8(fuzzPredict), uint8(formInline), 64, 64, 64, 4, 4611686018427387905, 4, 1, 0.0, 1.0, 0.0, 0.0, "flat")
	f.Add(uint8(fuzzPredict), uint8(formEnvelope), 64, 64, 64, 4, 4611686018427387905, 4, 1, 0.0, 1.0, 0.0, 0.0, "")
	f.Add(uint8(fuzzPredict), uint8(formInline), 64, 64, 64, 64, 0, 0, 0, 2.0, 1.0, 0.0625, 0.0, "torus=4x4x4")
	f.Add(uint8(fuzzPredict), uint8(formInline), 64, 64, 64, 64, 0, 0, 0, 0.0, 1.0, 0.0, 0.0, "torus=64x288230376151711745")
	f.Add(uint8(fuzzPredict), uint8(formInline), 64, 64, 64, 8, 2, 2, 2, 1e308, 1e308, 0.0, 0.0, "")
	f.Add(uint8(fuzzLowerBound), uint8(formBatch), 9600, 2400, 600, 512, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, "")
	f.Add(uint8(fuzzLowerBound), uint8(formInline), 0, 5, 5, 4, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, "")
	f.Add(uint8(fuzzLowerBound), uint8(formBatch), 9007199254740993, 2, 2, 4, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, "")
	f.Add(uint8(fuzzBound), uint8(formInline), 9600, 600, 2400, 512, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, "")
	f.Add(uint8(fuzzBound), uint8(formInline), 0, 0, 0, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, "F[i] += X[i]*Y[j] | i=4096 j=4096")
	f.Add(uint8(fuzzBound), uint8(formEnvelope), 8, 8, 8, 0, 8, 0, 0, 0.0, 0.0, 0.0, 0.0, "A[i]*B[i] -> C[j]")
	f.Add(uint8(fuzzGrid), uint8(formInline), 9600, 2400, 600, 512, 0, 0, 0, 0.0, 0.0, 0.0, 300000.0, "")
	f.Add(uint8(fuzzPlan), uint8(0), 64, 64, 64, 1, 16, 1, 0, 0.0, 0.0, 0.0, 1e6, "")
	f.Add(uint8(fuzzPlan), uint8(1), 512, 512, 512, 8, 4096, 0, 1, 2.0, 1.0, 0.0625, 1e6, "twolevel=4")
	f.Add(uint8(fuzzPlan), uint8(2), 64, 64, 64, 2, 16, 1, 0, 1e308, 0.0, 0.0, 1e9, "")

	f.Fuzz(func(t *testing.T, endpoint, shape uint8, n1, n2, n3, p, g1, g2, g3 int, alpha, beta, gamma, mem float64, spec string) {
		prob := Problem{N1: n1, N2: n2, N3: n3, P: p}
		var grid *GridJSON
		if g1 != 0 || g2 != 0 || g3 != 0 {
			grid = &GridJSON{g1, g2, g3}
		}
		var topology *TopologyJSON
		if spec != "" {
			topology = &TopologyJSON{Spec: spec}
		}
		fm := form(shape % 3)
		// Predict and bound have no batch form: theirs is an envelope.
		listed := fm
		if fm == formBatch {
			listed = formEnvelope
		}
		switch endpoint % 5 {
		case fuzzLowerBound:
			fuzzForms[Problem, LowerBoundResponse](t, h, "/v1/lowerbound", fm,
				[]Problem{prob, {N1: n3, N2: n2, N3: n1, P: g1}},
				func(f form, list []Problem) any {
					switch f {
					case formInline:
						return LowerBoundRequest{Problem: list[0]}
					case formBatch:
						return LowerBoundRequest{Batch: list}
					}
					return LowerBoundRequest{Problems: list}
				})
		case fuzzPredict:
			pp := PredictProblem{Problem: prob, Grid: grid, Alpha: alpha, Beta: beta, Gamma: gamma, Topology: topology}
			fuzzForms[PredictProblem, PredictResponse](t, h, "/v1/predict", listed,
				[]PredictProblem{pp, {Problem: prob, Alpha: alpha, Beta: beta, Gamma: gamma}},
				func(f form, list []PredictProblem) any {
					if f == formInline {
						return PredictRequest{PredictProblem: list[0]}
					}
					return PredictRequest{Problems: list}
				})
		case fuzzBound:
			// A spec shaped like a statement is the program; otherwise
			// the dims are matmul's extents.
			program := spec
			if !strings.Contains(spec, "->") && !strings.Contains(spec, "+=") {
				program = fmt.Sprintf("A[i,k]*B[k,j] -> C[i,j] | i=%d k=%d j=%d", n1, n2, n3)
			}
			fuzzForms[BoundProblem, BoundResponse](t, h, "/v1/bound", listed,
				[]BoundProblem{{Program: program, P: p}, {Program: program, P: g1}},
				func(f form, list []BoundProblem) any {
					if f == formInline {
						return BoundRequest{BoundProblem: list[0]}
					}
					return BoundRequest{Problems: list}
				})
		case fuzzGrid:
			fuzzPost(t, h, "/v1/grid", GridRequest{Problem: prob, Mem: mem})
		case fuzzPlan:
			req := PlanRequest{Problems: []PlanProblem{{
				N1: n1, N2: n2, N3: n3, Mem: mem, PMin: p, PMax: g1, PStep: g2, Log2: g3%2 != 0,
				Alpha: alpha, Beta: beta, Gamma: gamma, Topology: topology,
			}}}
			if shape%3 > 0 {
				stream := shape%3 == 1
				req.Stream = &stream
			}
			fuzzPost(t, h, "/v1/plan", req)
		}
	})
}

// fuzzForms posts problems to path in form f, the inline form taking the
// first. For a legacy form it posts the same problems as an envelope too,
// and holds the legacy answer to what reply derives from the envelope's.
func fuzzForms[P, T any](t *testing.T, h http.Handler, path string, f form, problems []P, body func(form, []P) any) {
	if f == formInline {
		problems = problems[:1]
	}
	status, raw, ok := fuzzPost(t, h, path, body(f, problems))
	if !ok || f == formEnvelope {
		return
	}
	envStatus, envRaw, _ := fuzzPost(t, h, path, body(formEnvelope, problems))
	if envStatus != http.StatusOK {
		t.Fatalf("envelope answer %d: %s", envStatus, envRaw)
	}
	var env Envelope[T]
	if err := json.Unmarshal(envRaw, &env); err != nil {
		t.Fatalf("envelope answer: %v: %s", err, envRaw)
	}
	want := httptest.NewRecorder()
	reply(want, http.StatusOK, f, env)
	if status != want.Code || !bytes.Equal(raw, want.Body.Bytes()) {
		t.Fatalf("form %d answered %d %s; its envelope %s derives %d %s",
			f, status, raw, envRaw, want.Code, want.Body.Bytes())
	}
}

// fuzzPost serves v as the JSON body of a POST to path and checks the
// answer: no 5xx, and every error kind or code from the taxonomy. ok is
// false when v has no JSON form (a NaN or infinite float).
func fuzzPost(t *testing.T, h http.Handler, path string, v any) (status int, raw []byte, ok bool) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, false
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	status, raw = rec.Code, rec.Body.Bytes()
	if status >= 500 {
		t.Fatalf("POST %s %s: %d %s", path, body, status, raw)
	}
	rows := [][]byte{raw}
	if rec.Header().Get("Content-Type") == "application/x-ndjson" {
		rows = bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	}
	for _, row := range rows {
		var answer struct {
			Kind   string          `json:"kind"`
			Errors []EnvelopeError `json:"errors"`
			Error  json.RawMessage `json:"error"`
		}
		if err := json.Unmarshal(row, &answer); err != nil {
			t.Fatalf("POST %s %s: %d answer is not JSON: %v: %s", path, body, status, err, row)
		}
		var streamed EnvelopeError
		if len(answer.Error) > 0 && answer.Error[0] == '{' {
			if err := json.Unmarshal(answer.Error, &streamed); err != nil {
				t.Fatal(err)
			}
			answer.Errors = append(answer.Errors, streamed)
		}
		if status >= 300 && answer.Kind == "" && len(answer.Errors) == 0 {
			t.Fatalf("POST %s %s: %d answer names no error: %s", path, body, status, row)
		}
		if answer.Kind != "" && !knownKind(answer.Kind) {
			t.Fatalf("POST %s %s: kind %q is outside the taxonomy: %s", path, body, answer.Kind, row)
		}
		for _, e := range answer.Errors {
			if !knownKind(e.Code) {
				t.Fatalf("POST %s %s: code %q is outside the taxonomy: %s", path, body, e.Code, row)
			}
		}
	}
	return status, raw, true
}

// knownKind reports whether kind is one an answer may carry: a taxonomy
// kind, bad_request or not_found.
func knownKind(kind string) bool {
	for _, t := range taxonomy {
		if t.kind == kind {
			return true
		}
	}
	return kind == "bad_request" || kind == "not_found"
}
