package service

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPredictTopologyFlat checks the topology block's degenerate case: on
// the flat fabric the topology-aware prediction must agree with the bare
// one exactly, with slowdown 1.
func TestPredictTopologyFlat(t *testing.T) {
	_, ts := newTestServer(t)
	base := `{"n1":64,"n2":64,"n3":64,"p":8,"alpha":2,"beta":1,"gamma":0.0625`
	status, raw := post(t, ts, "/v1/predict", base+`}`)
	if status != http.StatusOK {
		t.Fatalf("bare status %d: %s", status, raw)
	}
	bare := decode[PredictResponse](t, raw)

	status, raw = post(t, ts, "/v1/predict", base+`,"topology":{"spec":"flat"}}`)
	if status != http.StatusOK {
		t.Fatalf("flat status %d: %s", status, raw)
	}
	flat := decode[PredictResponse](t, raw)
	if flat.Total != bare.Total {
		t.Fatalf("flat topology total %v != bare %v", flat.Total, bare.Total)
	}
	if flat.Topology != "flat" || flat.Placement != "contiguous" {
		t.Fatalf("echo = %q/%q", flat.Topology, flat.Placement)
	}
	if flat.FlatTotal != bare.Total || flat.Slowdown != 1 {
		t.Fatalf("flatTotal %v slowdown %v, want %v and 1", flat.FlatTotal, flat.Slowdown, bare.Total)
	}
}

// TestPredictTopologyCongestion checks a contended fabric reports a
// slowdown > 1 decomposing as Total = FlatTotal · Slowdown.
func TestPredictTopologyCongestion(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"n1":64,"n2":64,"n3":64,"p":64,"alpha":2,"beta":1,"gamma":0.0625,` +
		`"topology":{"spec":"twolevel=8","place":"roundrobin"}}`
	status, raw := post(t, ts, "/v1/predict", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	resp := decode[PredictResponse](t, raw)
	if resp.Slowdown <= 1 {
		t.Fatalf("twolevel=8 slowdown = %v, want > 1", resp.Slowdown)
	}
	if resp.Topology != "twolevel=8" || resp.Placement != "roundrobin" {
		t.Fatalf("echo = %q/%q", resp.Topology, resp.Placement)
	}
	if math.Abs(resp.Total-resp.FlatTotal*resp.Slowdown) > 1e-9*resp.Total {
		t.Fatalf("total %v != flatTotal %v · slowdown %v", resp.Total, resp.FlatTotal, resp.Slowdown)
	}
}

// TestSimulateTopologyJob runs the same problem on the flat and skinny-tree
// fabrics through the job API: the tree run must echo the fabric and come
// back with a strictly longer critical path, same communication volume.
func TestSimulateTopologyJob(t *testing.T) {
	_, ts := newTestServer(t)
	run := func(body string) SimulateResult {
		t.Helper()
		status, raw := post(t, ts, "/v1/simulate", body)
		if status != http.StatusAccepted {
			t.Fatalf("accept status %d: %s", status, raw)
		}
		final := waitJob(t, ts, decode[JobResponse](t, raw).ID)
		if final.Status != string(JobDone) {
			t.Fatalf("job = %+v", final)
		}
		return decode[SimulateResult](t, mustMarshal(t, final.Result))
	}
	base := `{"n1":48,"n2":48,"n3":48,"p":8,"alpha":2,"beta":1,"gamma":0.0625,"verify":true`
	flat := run(base + `}`)
	tree := run(base + `,"topology":{"spec":"tree=2x3","place":"contiguous"}}`)

	if tree.Topology != "tree=2x3" || tree.Placement != "contiguous" {
		t.Fatalf("echo = %q/%q", tree.Topology, tree.Placement)
	}
	if flat.Topology != "" || flat.Placement != "" {
		t.Fatalf("flat run echoed a topology: %q/%q", flat.Topology, flat.Placement)
	}
	if tree.CriticalPath <= flat.CriticalPath {
		t.Fatalf("tree critical path %v not above flat %v", tree.CriticalPath, flat.CriticalPath)
	}
	if tree.TotalWords != flat.TotalWords || tree.CommCost != flat.CommCost {
		t.Fatalf("topology changed communication volume: %+v vs %+v", tree, flat)
	}
	if tree.MaxAbsDiff == nil || *tree.MaxAbsDiff > 1e-9*48 {
		t.Fatalf("verification failed: %+v", tree.MaxAbsDiff)
	}
}

// TestPredictTopologyWalkMode checks a synchronous topology prediction at
// P = 4096: the walk-mode charge oracle must serve it with the usual
// Total = FlatTotal · Slowdown decomposition intact.
func TestPredictTopologyWalkMode(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"n1":512,"n2":512,"n3":512,"p":4096,"alpha":2,"beta":1,"gamma":0.0625,` +
		`"topology":{"spec":"torus=16x16x16","place":"roundrobin"}}`
	status, raw := post(t, ts, "/v1/predict", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	resp := decode[PredictResponse](t, raw)
	if resp.Slowdown < 1 {
		t.Fatalf("torus=16x16x16 slowdown = %v, want ≥ 1", resp.Slowdown)
	}
	if math.Abs(resp.Total-resp.FlatTotal*resp.Slowdown) > 1e-9*resp.Total {
		t.Fatalf("total %v != flatTotal %v · slowdown %v", resp.Total, resp.FlatTotal, resp.Slowdown)
	}
}

// TestPredictTopologyProcsLimit checks the MaxTopoProcs admission gate: a
// topology prediction beyond the configured ceiling is a 400 bad_topology
// naming the effective limit, and the same request without a topology
// block still succeeds.
func TestPredictTopologyProcsLimit(t *testing.T) {
	s := New(Config{Workers: 2, MaxTopoProcs: 512})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	base := `{"n1":256,"n2":256,"n3":256,"p":1024,"alpha":2,"beta":1`
	status, raw := post(t, ts, "/v1/predict", base+`,"topology":{"spec":"torus=8x8x16"}}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, raw)
	}
	e := decode[ErrorResponse](t, raw)
	if e.Kind != "bad_topology" {
		t.Fatalf("kind = %q, want bad_topology (%s)", e.Kind, e.Error)
	}
	if !strings.Contains(e.Error, "512") {
		t.Fatalf("rejection does not name the limit 512: %q", e.Error)
	}
	if status, raw := post(t, ts, "/v1/predict", base+`}`); status != http.StatusOK {
		t.Fatalf("bare predict at the same P rejected: %d %s", status, raw)
	}
}

// TestSimulateTopologyLargeP runs a P = 65536 torus problem through the
// job API, served by the walk-mode charge oracle. The body keeps the legacy
// "engine" field, which is accepted and ignored.
func TestSimulateTopologyLargeP(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("65536-rank simulation")
	}
	_, ts := newTestServer(t)
	body := `{"n1":64,"n2":64,"n3":64,"p":65536,"engine":"event",` +
		`"topology":{"spec":"torus=16x16x16x16","place":"contiguous"}}`
	status, raw := post(t, ts, "/v1/simulate", body)
	if status != http.StatusAccepted {
		t.Fatalf("accept status %d: %s", status, raw)
	}
	final := waitJob(t, ts, decode[JobResponse](t, raw).ID)
	if final.Status != string(JobDone) {
		t.Fatalf("job = %+v", final)
	}
	res := decode[SimulateResult](t, mustMarshal(t, final.Result))
	if res.Topology != "torus=16x16x16x16" {
		t.Fatalf("echo = %q", res.Topology)
	}
	if res.CriticalPath <= 0 || res.TotalWords <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

// TestPredictTopologyCacheHit checks the topology prediction is served from
// the memo layer on repeat, byte-identical.
func TestPredictTopologyCacheHit(t *testing.T) {
	s, ts := newTestServer(t)
	body := `{"n1":64,"n2":64,"n3":64,"p":64,"alpha":2,"beta":1,"gamma":0.0625,` +
		`"topology":{"spec":"torus=4x4x4"}}`
	status, cold := post(t, ts, "/v1/predict", body)
	if status != http.StatusOK {
		t.Fatalf("cold status %d: %s", status, cold)
	}
	hitsBefore, _ := s.cache.Stats()
	status, warm := post(t, ts, "/v1/predict", body)
	if status != http.StatusOK {
		t.Fatalf("warm status %d", status)
	}
	if string(cold) != string(warm) {
		t.Fatalf("cached topology prediction differs:\n%s\n%s", cold, warm)
	}
	if hitsAfter, _ := s.cache.Stats(); hitsAfter <= hitsBefore {
		t.Fatal("repeat topology predict did not hit the cache")
	}
}
