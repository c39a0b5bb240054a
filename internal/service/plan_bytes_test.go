package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/plan"
)

// planByteBodies are /v1/plan problem lists, each answered inline, as an
// NDJSON stream and as a job's plan.ndjson. The closing brace is left off
// so each mode can add its own field.
var planByteBodies = []struct{ name, body string }{
	{"plan-cold", `{"problems":[{"n1":2000,"n2":2000,"n3":2000,"mem":10001,"pMin":100000,"pMax":104999}]`},
	{"api-warm", `{"problems":[{"n1":2000,"n2":2000,"n3":2000,"mem":1000000,"pMin":64,"pMax":1024,"log2":true}]`},
	{"ci-crossover", `{"problems":[{"n1":9600,"n2":2400,"n3":600,"mem":40000,"pMin":64,"pMax":1024,"log2":true}]`},
	// Memory-dependence ends in Case 2, at P = 2500, away from the Case 3
	// threshold 2963: the summary and the flagged point must agree.
	{"case2-crossover", `{"problems":[{"n1":1000,"n2":1000,"n3":10,"mem":100,"pMin":2000,"pMax":3000}]`},
	{"ci-small", `{"problems":[{"n1":64,"n2":64,"n3":64,"mem":1e6,"pMin":1,"pMax":4}]`},
	{"pstep", `{"problems":[{"n1":9600,"n2":2400,"n3":600,"mem":40000,"pMin":100,"pMax":3000,"pStep":7,"alpha":1e-6,"beta":1e-9,"gamma":1e-11}]`},
	{"partial-fit", `{"problems":[{"n1":2000,"n2":2000,"n3":2000,"mem":120000,"pMin":100,"pMax":2000,"pStep":50,"alpha":2,"beta":1}]`},
	{"flat", `{"problems":[{"n1":512,"n2":512,"n3":512,"mem":1e6,"pMin":8,"pMax":4096,"log2":true,"alpha":2,"beta":1,"gamma":0.0625,"topology":{"spec":"flat"}}]`},
	{"twolevel", `{"problems":[{"n1":512,"n2":512,"n3":512,"mem":1e6,"pMin":8,"pMax":4096,"log2":true,"alpha":2,"beta":1,"gamma":0.0625,"topology":{"spec":"twolevel=4","place":"roundrobin"}}]`},
	{"batch", `{"problems":[{"n1":64,"n2":64,"n3":64,"mem":1e9,"pMin":1,"pMax":16},{"n1":9600,"n2":2400,"n3":600,"mem":40000,"pMin":64,"pMax":1024,"log2":true,"alpha":1e-6,"beta":1e-9,"gamma":1e-11}]`},
	// The second problem's predicted times overflow float64 from P = 4 on,
	// so it answers a bad_opts error. It has no pinned hash: encoding/json
	// cannot encode the +Inf point, so it never wrote an answer to pin.
	{"batch-overflow", `{"problems":[{"n1":64,"n2":64,"n3":64,"mem":1e9,"pMin":1,"pMax":16},{"n1":64,"n2":64,"n3":64,"mem":1e9,"pMin":2,"pMax":16,"alpha":1e308}]`},
}

// planModes are the three ways a plan is answered, as body suffixes.
var planModes = []struct{ name, suffix string }{
	{"inline", `,"stream":false}`},
	{"stream", `,"stream":true}`},
	{"job", `,"job":true}`},
}

// planAnswerSHA256 pins the SHA-256 of every answer to planByteBodies, as
// encoding/json writes it, keyed "body/mode".
var planAnswerSHA256 = map[string]string{
	"plan-cold/inline":       "3efd12d7819895ec9ef972b50800f89b35ba5cac415588378e725a5c90683d66",
	"plan-cold/stream":       "b6af111d4cf6536bf42827e0d61c52747d1e368a6f7d7c9639f698e032533cc8",
	"plan-cold/job":          "b6af111d4cf6536bf42827e0d61c52747d1e368a6f7d7c9639f698e032533cc8",
	"api-warm/inline":        "3862c1647647da2d343591a014eb2f8f8098892d1a6d5e50516437daa2082c8b",
	"api-warm/stream":        "7ad1a8d95c1bf1b43477dfbe66e503b0ef0bd9481b7e80973108726103b85998",
	"api-warm/job":           "7ad1a8d95c1bf1b43477dfbe66e503b0ef0bd9481b7e80973108726103b85998",
	"ci-crossover/inline":    "3b96035a8dfc2fcabff5440abdb4bb43e5482ea6ac9a1819eb13975fc4b4677d",
	"ci-crossover/stream":    "a341372748f620935920c3a5c2079554a3cd69662b2c5d6f76727b63c85c0d2c",
	"ci-crossover/job":       "a341372748f620935920c3a5c2079554a3cd69662b2c5d6f76727b63c85c0d2c",
	"case2-crossover/inline": "d56d7f5c336870c290a537128d5d8db466ade9bcb79900d8f24a809d46324f0e",
	"case2-crossover/stream": "9f96a6af11e18359815b52a1d280f8a4ed253f9fc118b20ca4b7c0342ebf858f",
	"case2-crossover/job":    "9f96a6af11e18359815b52a1d280f8a4ed253f9fc118b20ca4b7c0342ebf858f",
	"ci-small/inline":        "8a53f95b3e33326888f898d462dd089de913573024a47b6ec6c1678f49ae3b9f",
	"ci-small/stream":        "ff72b1b65848734fe3c0226dcc5ff98731a9f4c670840de5e0b5415bf95e9683",
	"ci-small/job":           "ff72b1b65848734fe3c0226dcc5ff98731a9f4c670840de5e0b5415bf95e9683",
	"pstep/inline":           "54f71f4730a8c7fbaffe00531973c4e904a57ff2313deed1664d5c70d8fdae5e",
	"pstep/stream":           "8be772359261afb017362b77838dc83c8cf624f57a8f60530060bae57ce800c5",
	"pstep/job":              "8be772359261afb017362b77838dc83c8cf624f57a8f60530060bae57ce800c5",
	"partial-fit/inline":     "c1aaefc340aefe027c3310a0473fed4f1b3ca420311276de34cce23acef7eb59",
	"partial-fit/stream":     "3c123f85699b472e7660dc4d23863bb768715c55a73ef13a5f7d4e534d33fc88",
	"partial-fit/job":        "3c123f85699b472e7660dc4d23863bb768715c55a73ef13a5f7d4e534d33fc88",
	"flat/inline":            "8b230e03b4a2893bea787665b6c1aac9f68855035479e6fa0c9988048fd0878a",
	"flat/stream":            "bdcf9a43a3a4cf47621de65c75df906e3213335c2eae6f0856b3824fd31e7ed6",
	"flat/job":               "bdcf9a43a3a4cf47621de65c75df906e3213335c2eae6f0856b3824fd31e7ed6",
	"twolevel/inline":        "254decc54a26965997c6f5fc69e8baed6d065d50c410871255697e2f8556d49f",
	"twolevel/stream":        "d87bf0e4878d8b513abac84b1bfae94790571efb83f0e882eb23e9ccad2eba28",
	"twolevel/job":           "d87bf0e4878d8b513abac84b1bfae94790571efb83f0e882eb23e9ccad2eba28",
	"batch/inline":           "809ded4c501455f633eeea6e6b7785a7cb49fd3217c7814d6ade846c16d1a5f8",
	"batch/stream":           "462a299bce2b0fd90b9b7c5d8309c3e3428d88b4c70cc4726a65ea0df59e0950",
	"batch/job":              "462a299bce2b0fd90b9b7c5d8309c3e3428d88b4c70cc4726a65ea0df59e0950",
}

// fetchPlan posts body and returns the answer: the response body inline or
// streamed, the plan.ndjson artifact for a job.
func fetchPlan(t *testing.T, ts *httptest.Server, mode, body string) []byte {
	t.Helper()
	status, raw := post(t, ts, "/v1/plan", body)
	if mode != "job" {
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		return raw
	}
	if status != http.StatusAccepted {
		t.Fatalf("job submit status %d: %s", status, raw)
	}
	id := decode[JobResponse](t, raw).ID
	if job := waitJob(t, ts, id); job.Status != string(JobDone) {
		t.Fatalf("job = %+v", job)
	}
	status, raw = get(t, ts, "/v1/jobs/"+id+"/artifacts/plan.ndjson")
	if status != http.StatusOK {
		t.Fatalf("artifact status %d", status)
	}
	return raw
}

// planOracle encodes the answer with encoding/json alone: plan.Run and
// Planner.Sweep without a memo, every value through an Encoder with HTML
// escaping off.
func planOracle(t *testing.T, s *Server, mode, body string) []byte {
	t.Helper()
	var req PlanRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	encode := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if mode == "inline" {
		env := PlanEnvelope{Results: make([]*PlanResult, len(req.Problems))}
		for i, p := range req.Problems {
			sum, pts, err := plan.Run(ctx, s.planRequest(p))
			if err != nil {
				env.Errors = append(env.Errors, EnvelopeError{Index: i, Code: kindFor(err), Message: err.Error()})
				continue
			}
			env.Results[i] = &PlanResult{Summary: sum, Points: pts}
		}
		encode(env)
		return buf.Bytes()
	}
	for i, p := range req.Problems {
		pr := s.planRequest(p)
		sum, err := plan.Summarize(pr)
		if err != nil {
			t.Fatal(err)
		}
		encode(PlanRow{Problem: i, Summary: &sum})
		_, err = plan.Planner{}.Sweep(ctx, pr, planChunk, func(chunk []plan.Point) error {
			for j := range chunk {
				encode(PlanRow{Problem: i, Point: &chunk[j]})
			}
			return nil
		})
		if err != nil {
			encode(PlanRow{Problem: i, Error: &EnvelopeError{Index: i, Code: kindFor(err), Message: err.Error()}})
		}
	}
	encode(PlanRow{Done: true})
	return buf.Bytes()
}

// TestPlanAnswerBytes holds every inline envelope, stream row and job row
// of planByteBodies to the encoding/json oracle, and to the recorded hash
// of the same answer.
func TestPlanAnswerBytes(t *testing.T) {
	s, ts := newArtifactServer(t, Config{})
	for _, c := range planByteBodies {
		for _, m := range planModes {
			key := c.name + "/" + m.name
			got := fetchPlan(t, ts, m.name, c.body+m.suffix)
			if want := planOracle(t, s, m.name, c.body+"}"); !bytes.Equal(got, want) {
				t.Errorf("%s: %d bytes differ from encoding/json's %d", key, len(got), len(want))
			}
			if c.name == "batch-overflow" {
				continue
			}
			if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != planAnswerSHA256[key] {
				t.Errorf("%s: SHA-256 %x, recorded %s", key, sum, planAnswerSHA256[key])
			}
		}
	}
}

// TestAppendJSONKeepsBufferOnError: a value encoding/json refuses leaves
// the buffer as it was, so a caller can still write an error in its place.
func TestAppendJSONKeepsBufferOnError(t *testing.T) {
	got, err := appendJSON([]byte(`{"summary":`), plan.Summary{CrossoverP: math.Inf(1)})
	if err == nil || string(got) != `{"summary":` {
		t.Fatalf("appendJSON = %q, %v; want the buffer unchanged and an error", got, err)
	}
}
