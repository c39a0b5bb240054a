package service

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// newArtifactServer builds a server with a temp-dir filesystem artifact
// store, plus any extra config the test needs.
func newArtifactServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	fs, err := store.NewFS(t.TempDir())
	if err != nil {
		t.Fatalf("NewFS: %v", err)
	}
	cfg.ArtifactStore = fs
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 30 * time.Second
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, ts
}

// getRange GETs path with a Range header, returning status, body, and the
// Content-Range header.
func getRange(t *testing.T, ts *httptest.Server, path, rng string) (int, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Range", rng)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("Content-Range")
}

// TestTraceArtifactRoundTrip is the tentpole acceptance path: a simulate
// job with "trace": true stores a Chrome trace artifact, the job response
// names it, the listing returns it with its hash, full and ranged GETs
// serve the exact bytes, and everything keeps working after the job's own
// metadata is evicted.
func TestTraceArtifactRoundTrip(t *testing.T) {
	_, ts := newArtifactServer(t, Config{JobRetention: 40 * time.Millisecond})
	status, raw := post(t, ts, "/v1/simulate", `{"n1":8,"n2":8,"n3":8,"p":4,"trace":true}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, raw)
	}
	id := decode[JobResponse](t, raw).ID
	job := waitJob(t, ts, id)
	if job.Status != string(JobDone) {
		t.Fatalf("job = %+v", job)
	}
	// The done job's response lists its artifacts and the result names the
	// trace.
	res := decode[SimulateResult](t, mustJSON(t, job.Result))
	if res.TraceArtifact != "trace.json" {
		t.Fatalf("traceArtifact = %q", res.TraceArtifact)
	}
	names := map[string]ArtifactJSON{}
	for _, a := range job.Artifacts {
		names[a.Name] = a
	}
	if _, ok := names["trace.json"]; !ok {
		t.Fatalf("job artifacts missing trace.json: %+v", job.Artifacts)
	}
	if _, ok := names["result.json"]; !ok {
		t.Fatalf("job artifacts missing result.json: %+v", job.Artifacts)
	}

	// Listing endpoint agrees.
	status, raw = get(t, ts, "/v1/jobs/"+id+"/artifacts")
	if status != http.StatusOK {
		t.Fatalf("list status %d: %s", status, raw)
	}
	listing := decode[ArtifactListResponse](t, raw)
	if listing.Job != id || len(listing.Artifacts) != len(job.Artifacts) {
		t.Fatalf("listing = %+v", listing)
	}

	// Full GET: bytes hash to the advertised sha256, valid trace JSON.
	status, body := get(t, ts, "/v1/jobs/"+id+"/artifacts/trace.json")
	if status != http.StatusOK {
		t.Fatalf("artifact status %d", status)
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != names["trace.json"].SHA256 {
		t.Fatalf("content hash mismatch: %x vs %s", sum, names["trace.json"].SHA256)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("trace.json not Chrome trace JSON (%v): %.120s", err, body)
	}

	// Ranged GET: 206 with exactly the requested window.
	status, part, cr := getRange(t, ts, "/v1/jobs/"+id+"/artifacts/trace.json", "bytes=10-29")
	if status != http.StatusPartialContent {
		t.Fatalf("range status %d", status)
	}
	if string(part) != string(body[10:30]) {
		t.Fatalf("range bytes = %q, want %q", part, body[10:30])
	}
	if want := fmt.Sprintf("bytes 10-29/%d", len(body)); cr != want {
		t.Fatalf("Content-Range = %q, want %q", cr, want)
	}

	// Evict the job (40ms retention) and re-fetch: the job 404s, the
	// artifacts do not — durability past retention is the contract.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if status, _ := get(t, ts, "/v1/jobs/"+id); status == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	status, raw = get(t, ts, "/v1/jobs/"+id+"/artifacts")
	if status != http.StatusOK || len(decode[ArtifactListResponse](t, raw).Artifacts) != len(listing.Artifacts) {
		t.Fatalf("post-eviction listing: status %d, %s", status, raw)
	}
	status, part, _ = getRange(t, ts, "/v1/jobs/"+id+"/artifacts/trace.json", "bytes=10-29")
	if status != http.StatusPartialContent || string(part) != string(body[10:30]) {
		t.Fatalf("post-eviction ranged GET: status %d, %q", status, part)
	}
}

// TestTraceArtifactDedupe: traced jobs of one problem write the same trace
// bytes, whatever the scheduler's interleaving, so they all list one
// trace.json hash and the content-addressed store holds one blob for them.
// Four jobs of a 16-rank world run two at a time: when equal-time events
// were ordered by scheduling, most runs of this test saw more than one
// hash.
func TestTraceArtifactDedupe(t *testing.T) {
	_, ts := newArtifactServer(t, Config{})
	var ids []string
	for i := 0; i < 4; i++ {
		status, raw := post(t, ts, "/v1/simulate", `{"n1":32,"n2":32,"n3":32,"p":16,"trace":true}`)
		if status != http.StatusAccepted {
			t.Fatalf("submit %d status %d: %s", i, status, raw)
		}
		ids = append(ids, decode[JobResponse](t, raw).ID)
	}
	hashes := map[string]bool{}
	for _, id := range ids {
		job := waitJob(t, ts, id)
		if job.Status != string(JobDone) {
			t.Fatalf("job = %+v", job)
		}
		for _, a := range job.Artifacts {
			if a.Name == "trace.json" {
				hashes[a.SHA256] = true
			}
		}
	}
	if len(hashes) != 1 {
		t.Fatalf("four identical traced jobs list trace.json hashes %v, want one", hashes)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestBatchTraceAndCSVArtifacts(t *testing.T) {
	_, ts := newArtifactServer(t, Config{})
	status, raw := post(t, ts, "/v1/simulate",
		`{"problems":[{"n1":8,"n2":8,"n3":8,"p":4},{"n1":8,"n2":8,"n3":8,"p":2}],"trace":true}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, raw)
	}
	id := decode[JobResponse](t, raw).ID
	job := waitJob(t, ts, id)
	if job.Status != string(JobDone) {
		t.Fatalf("job = %+v", job)
	}
	var got []string
	for _, a := range job.Artifacts {
		got = append(got, a.Name)
	}
	want := []string{"result.json", "results.csv", "trace-0.json", "trace-1.json"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("artifacts = %v, want %v", got, want)
	}
	status, body := get(t, ts, "/v1/jobs/"+id+"/artifacts/results.csv")
	if status != http.StatusOK {
		t.Fatalf("csv status %d", status)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "n1,n2,n3,p,alg") {
		t.Fatalf("csv = %q", body)
	}
}

func TestTraceWithoutStoreIs400(t *testing.T) {
	_, ts := newTestServer(t) // no artifact store
	status, raw := post(t, ts, "/v1/simulate", `{"n1":8,"n2":8,"n3":8,"p":4,"trace":true}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d: %s", status, raw)
	}
	if !strings.Contains(string(raw), "artifact storage") {
		t.Fatalf("error does not explain the fix: %s", raw)
	}
	// And the artifact routes answer 404, not 500.
	if status, _ := get(t, ts, "/v1/jobs/j1/artifacts"); status != http.StatusNotFound {
		t.Fatalf("artifact list without store = %d", status)
	}
}

func TestArtifactMissingAnd400s(t *testing.T) {
	_, ts := newArtifactServer(t, Config{})
	if status, _ := get(t, ts, "/v1/jobs/j999/artifacts/nope.json"); status != http.StatusNotFound {
		t.Fatalf("missing artifact = %d", status)
	}
	// Unknown job's listing is empty 200 (the catalog cannot distinguish
	// never-existed from wrote-nothing).
	status, raw := get(t, ts, "/v1/jobs/j999/artifacts")
	if status != http.StatusOK || len(decode[ArtifactListResponse](t, raw).Artifacts) != 0 {
		t.Fatalf("unknown job listing = %d: %s", status, raw)
	}
	// Traversal-shaped ids are 400, not filesystem errors.
	if status, _ := get(t, ts, "/v1/jobs/%2e%2e/artifacts"); status != http.StatusBadRequest {
		t.Fatalf("traversal id = %d", status)
	}
}

func TestPlanJobWritesNDJSONArtifact(t *testing.T) {
	_, ts := newArtifactServer(t, Config{})
	status, raw := post(t, ts, "/v1/plan",
		`{"problems":[{"n1":64,"n2":64,"n3":64,"mem":100000,"pMin":1,"pMax":16}],"job":true}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, raw)
	}
	id := decode[JobResponse](t, raw).ID
	job := waitJob(t, ts, id)
	if job.Status != string(JobDone) {
		t.Fatalf("job = %+v", job)
	}
	var res PlanJobResult
	if err := json.Unmarshal(mustJSON(t, job.Result), &res); err != nil {
		t.Fatal(err)
	}
	if res.Points != 16 || res.Artifact != "plan.ndjson" || len(res.Errors) != 0 {
		t.Fatalf("plan job result = %+v", res)
	}
	status, body := get(t, ts, "/v1/jobs/"+id+"/artifacts/plan.ndjson")
	if status != http.StatusOK {
		t.Fatalf("artifact status %d", status)
	}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	var rows []PlanRow
	for sc.Scan() {
		var row PlanRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON row %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	// 1 summary + 16 points + 1 done row.
	if len(rows) != 18 || rows[0].Summary == nil || !rows[len(rows)-1].Done {
		t.Fatalf("rows = %d (first %+v, last %+v)", len(rows), rows[0], rows[len(rows)-1])
	}
	points := 0
	for _, r := range rows {
		if r.Point != nil {
			points++
		}
	}
	if points != 16 {
		t.Fatalf("point rows = %d, want 16", points)
	}
}

func TestPlanJobWithoutStoreIs400(t *testing.T) {
	_, ts := newTestServer(t)
	status, raw := post(t, ts, "/v1/plan",
		`{"problems":[{"n1":64,"n2":64,"n3":64,"mem":100000,"pMin":1,"pMax":4}],"job":true}`)
	if status != http.StatusBadRequest || !strings.Contains(string(raw), "artifact storage") {
		t.Fatalf("status %d: %s", status, raw)
	}
}

// TestMetricsAndStatsdAgree is the push-pipeline acceptance check: after
// one flush interval, the statsd sink's counters and the /metrics
// exposition report the same counts.
func TestMetricsAndStatsdAgree(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen udp: %v", err)
	}
	defer pc.Close()
	lines := make(chan string, 256)
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, _, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			for _, l := range strings.Split(strings.TrimRight(string(buf[:n]), "\n"), "\n") {
				lines <- l
			}
		}
	}()

	s, ts := newArtifactServer(t, Config{})
	pusher, err := obs.NewPusher(obs.PushConfig{
		Addr:       pc.LocalAddr().String(),
		Interval:   time.Hour, // flushed explicitly
		Registries: []*obs.Registry{s.Registry()},
	})
	if err != nil {
		t.Fatalf("NewPusher: %v", err)
	}
	defer pusher.Close()

	const reqs = 5
	for i := 0; i < reqs; i++ {
		post(t, ts, "/v1/lowerbound", `{"n1":64,"n2":64,"n3":64,"p":8}`)
	}
	pusher.Flush()

	// The statsd side of service_requests_total.
	var pushed float64
	deadline := time.After(5 * time.Second)
	for pushed == 0 {
		select {
		case l := <-lines:
			if v, ok := strings.CutPrefix(l, "service_requests_total:"); ok {
				c, _, _ := strings.Cut(v, "|")
				pushed, _ = strconv.ParseFloat(c, 64)
			}
		case <-deadline:
			t.Fatal("statsd sink never received service_requests_total")
		}
	}
	if pushed < reqs {
		t.Fatalf("statsd counted %v requests, want ≥ %d", pushed, reqs)
	}

	// The /metrics side. The scrape itself is one more request; the pushed
	// flush happened before it, so pushed ≤ scraped ≤ pushed+poll slack.
	status, raw := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	var scraped float64
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "service_requests_total "); ok {
			scraped, _ = strconv.ParseFloat(v, 64)
		}
	}
	if scraped < pushed || scraped > pushed+2 {
		t.Fatalf("scraped %v vs pushed %v: the two pipelines disagree", scraped, pushed)
	}
	// Artifact counters are exported on both paths too.
	if !strings.Contains(string(raw), "service_artifacts_written_total") {
		t.Fatalf("/metrics missing artifact counters:\n%.400s", raw)
	}
}
