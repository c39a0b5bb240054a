package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// parseProm extracts the sample lines of a Prometheus text exposition into
// a map from "name{labels}" (or bare name) to value.
func parseProm(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsEndpoint round-trips GET /metrics: valid exposition, the
// service families present, and the request and cache counters moving in
// response to real traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	resp.Body.Close()

	_, before := get(t, ts, "/metrics")
	m0 := parseProm(t, before)
	for _, want := range []string{
		"service_requests_total",
		"service_cache_hits_total",
		"service_cache_misses_total",
		"service_cache_entries",
		"service_jobs_submitted_total",
		"service_jobs_inflight",
		`service_jobs{state="done"}`,
		"service_jobs_evicted_total",
		"service_words_simulated_total",
		`service_request_seconds_count{endpoint="GET /metrics"}`,
		"machine_worlds_total",
		`collective_ops_total{op="allgather"}`,
	} {
		if _, ok := m0[want]; !ok {
			t.Errorf("exposition missing %s", want)
		}
	}

	// One repeated grid request: the first searches (miss), the second
	// hits.
	body := `{"n1":96,"n2":24,"n3":6,"p":8}`
	for i := 0; i < 2; i++ {
		if status, raw := post(t, ts, "/v1/grid", body); status != http.StatusOK {
			t.Fatalf("grid status %d: %s", status, raw)
		}
	}
	_, after := get(t, ts, "/metrics")
	m1 := parseProm(t, after)
	if m1["service_requests_total"] < m0["service_requests_total"]+2 {
		t.Errorf("service_requests_total %v -> %v, want +2 at least",
			m0["service_requests_total"], m1["service_requests_total"])
	}
	if m1["service_cache_misses_total"] <= m0["service_cache_misses_total"] {
		t.Errorf("cache misses did not move: %v -> %v",
			m0["service_cache_misses_total"], m1["service_cache_misses_total"])
	}
	if m1["service_cache_hits_total"] <= m0["service_cache_hits_total"] {
		t.Errorf("cache hits did not move: %v -> %v",
			m0["service_cache_hits_total"], m1["service_cache_hits_total"])
	}
	if m1[`service_request_seconds_count{endpoint="POST /v1/grid"}`] < 2 {
		t.Errorf("grid latency histogram count = %v, want >= 2",
			m1[`service_request_seconds_count{endpoint="POST /v1/grid"}`])
	}

	// /metrics is the one counter view: the JSON one is gone.
	if status, raw := get(t, ts, "/debug/vars"); status != http.StatusNotFound {
		t.Errorf("GET /debug/vars = %d %s, want 404", status, raw)
	}
}

// TestMetricsSimulatorCountersMove checks the simulator side of /metrics:
// with instrumentation enabled (as parmmd runs), a completed simulation
// moves the machine_* and collective_* families.
func TestMetricsSimulatorCountersMove(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	_, ts := newTestServer(t)

	_, before := get(t, ts, "/metrics")
	m0 := parseProm(t, before)

	status, raw := post(t, ts, "/v1/simulate", `{"n1":64,"n2":64,"n3":64,"p":8}`)
	if status != http.StatusAccepted {
		t.Fatalf("accept status %d: %s", status, raw)
	}
	accepted := decode[JobResponse](t, raw)
	if final := waitJob(t, ts, accepted.ID); final.Status != string(JobDone) {
		t.Fatalf("job = %+v", final)
	}

	_, after := get(t, ts, "/metrics")
	m1 := parseProm(t, after)
	for _, name := range []string{
		"machine_worlds_total",
		"machine_sends_total",
		"machine_words_sent_total",
		`collective_ops_total{op="allgather"}`,
		`collective_ops_total{op="reducescatter"}`,
	} {
		if m1[name] <= m0[name] {
			t.Errorf("%s did not move: %v -> %v", name, m0[name], m1[name])
		}
	}
	if m1["service_jobs_submitted_total"] <= m0["service_jobs_submitted_total"] {
		t.Errorf("service_jobs_submitted_total did not move")
	}
}

// TestRequestIDAndAccessLog checks the request-logging middleware: every
// response carries an X-Request-ID (honoring an inbound one), and each
// request emits one structured JSON log line with the id.
func TestRequestIDAndAccessLog(t *testing.T) {
	var logBuf bytes.Buffer
	s := New(Config{Workers: 1, AccessLog: &logBuf})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

	// Generated id.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	genID := resp.Header.Get("X-Request-ID")
	if genID == "" {
		t.Fatal("no X-Request-ID on response")
	}

	// Inbound id echoed.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "corr-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "corr-42" {
		t.Errorf("X-Request-ID = %q, want corr-42", got)
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), logBuf.String())
	}
	ids := make([]string, 0, 2)
	for _, line := range lines {
		var entry struct {
			Msg      string  `json:"msg"`
			ID       string  `json:"id"`
			Method   string  `json:"method"`
			Path     string  `json:"path"`
			Endpoint string  `json:"endpoint"`
			Status   int     `json:"status"`
			Bytes    int64   `json:"bytes"`
			Duration float64 `json:"duration"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		if entry.Msg != "request" || entry.Method != http.MethodGet ||
			entry.Path != "/healthz" || entry.Endpoint != "GET /healthz" ||
			entry.Status != http.StatusOK || entry.Bytes == 0 {
			t.Errorf("log entry = %+v", entry)
		}
		ids = append(ids, entry.ID)
	}
	if ids[0] != genID || ids[1] != "corr-42" {
		t.Errorf("logged ids %v, want [%s corr-42]", ids, genID)
	}
}

// TestJobGetAfterEviction404 is the HTTP-level regression test for the
// job-retention bug: once the retention TTL evicts a finished job, GET on
// its id answers 404 like an id that never existed.
func TestJobGetAfterEviction404(t *testing.T) {
	s := New(Config{Workers: 1, JobRetention: 30 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

	status, raw := post(t, ts, "/v1/simulate", `{"n1":8,"n2":8,"n3":8,"p":2}`)
	if status != http.StatusAccepted {
		t.Fatalf("accept status %d: %s", status, raw)
	}
	accepted := decode[JobResponse](t, raw)
	if final := waitJob(t, ts, accepted.ID); final.Status != string(JobDone) {
		t.Fatalf("job = %+v", final)
	}
	time.Sleep(60 * time.Millisecond)
	if status, raw := get(t, ts, "/v1/jobs/"+accepted.ID); status != http.StatusNotFound {
		t.Fatalf("evicted job answered %d: %s", status, raw)
	}
	if n := s.jobs.Evicted(); n < 1 {
		t.Errorf("Evicted() = %d, want >= 1", n)
	}
	// The eviction shows in /metrics too.
	_, raw = get(t, ts, "/metrics")
	m := parseProm(t, raw)
	if m["service_jobs_evicted_total"] < 1 {
		t.Errorf("service_jobs_evicted_total = %v, want >= 1", m["service_jobs_evicted_total"])
	}
	if done := m[`service_jobs{state="done"}`]; done != 0 {
		t.Errorf(`service_jobs{state="done"} = %v after eviction`, done)
	}
}
