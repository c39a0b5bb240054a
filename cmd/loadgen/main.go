// Command loadgen drives mixed traffic at a parmmd instance —
// /v1/lowerbound, /v1/predict, and generalized HBL /v1/bound envelopes
// plus inline and streaming /v1/plan sweeps — and records sustained
// throughput, latency percentiles, and the memo counters it scrapes from
// GET /metrics to BENCH_serving.json.
//
//	loadgen -duration 10s -clients 8 -out BENCH_serving.json
//
// With no -addr, an in-process parmmd serves on a loopback listener, so the
// run needs no external setup (this is what the CI smoke uses). Clients in
// the same 250 ms epoch issue identical plan requests with a fresh memory
// budget, so every epoch is a burst of concurrent cold sweeps. The plans
// are closed-form, which the service computes without its memo, so the
// clients compute their points side by side; the recorded cacheShared
// counter covers only memoized work. Exits non-zero when no request
// succeeds, making any short run a liveness assertion.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/benchrec"
	"repro/internal/service"
	"repro/internal/store"
)

// outcome is one request's measurement.
type outcome struct {
	endpoint string
	latency  time.Duration
	ok       bool
}

// client loops over the traffic mix until ctx is done, appending one
// outcome per request. epoch0 anchors the shared plan-epoch clock. With
// artifacts on, every eighth request is an artifact round trip: submit a
// traced simulation, poll the job, list its artifacts, and issue a ranged
// GET against the trace — the serving path for durable job outputs.
func client(ctx context.Context, base string, epoch0 time.Time, artifacts bool, out *[]outcome) {
	hc := &http.Client{}
	bodies := []struct{ endpoint, path, body string }{
		{"POST /v1/lowerbound", "/v1/lowerbound",
			`{"problems":[{"n1":9600,"n2":2400,"n3":600,"p":512},{"n1":2000,"n2":2000,"n3":2000,"p":64},{"n1":100,"n2":100,"n3":100,"p":8}]}`},
		{"POST /v1/predict", "/v1/predict",
			`{"problems":[{"n1":9600,"n2":2400,"n3":600,"p":512,"alpha":1e-6,"beta":1e-9,"gamma":1e-11},{"n1":64,"n2":64,"n3":64,"p":8,"beta":1}]}`},
		{"POST /v1/bound", "/v1/bound",
			`{"problems":[{"program":"A[i,k]*B[k,j] -> C[i,j] | i=9600 k=600 j=2400","p":512},` +
				`{"program":"F[i] += X[i]*Y[j] | i=4096 j=4096","p":64},` +
				`{"program":"A[a1,a2,c1]*B[c1,b1] -> C[a1,a2,b1] | a1=48 a2=48 c1=48 b1=48","p":27}]}`},
	}
	for i := 0; ctx.Err() == nil; i++ {
		var endpoint, path, body string
		stream := false
		if artifacts && i%8 == 5 {
			start := time.Now()
			ok := artifactRoundTrip(ctx, hc, base)
			*out = append(*out, outcome{endpoint: "artifact round-trip", latency: time.Since(start), ok: ok})
			continue
		}
		if i%4 == 3 {
			// Every client sleeps to the next epoch boundary and then fires
			// the identical plan request with a memory budget nobody has
			// swept before: a synchronized burst of concurrent cold sweeps,
			// each point a real divisor search.
			const epochLen = 250 * time.Millisecond
			wait := epochLen - time.Since(epoch0)%epochLen
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
			epoch := int(time.Since(epoch0) / epochLen)
			endpoint, path = "POST /v1/plan", "/v1/plan"
			stream = epoch%4 == 3 // every fourth epoch exercises NDJSON
			body = fmt.Sprintf(
				`{"problems":[{"n1":2000,"n2":2000,"n3":2000,"mem":%d,"pMin":100000,"pMax":104999}],"stream":%v}`,
				10000+epoch, stream)
		} else {
			b := bodies[i%4]
			endpoint, path, body = b.endpoint, b.path, b.body
		}
		start := time.Now()
		ok := doRequest(ctx, hc, base+path, body, stream)
		*out = append(*out, outcome{endpoint: endpoint, latency: time.Since(start), ok: ok})
	}
}

// doRequest posts body and drains the response; streaming responses are
// read line by line so the measured latency includes the full sweep.
func doRequest(ctx context.Context, hc *http.Client, url, body string, stream bool) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	if stream {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		n := 0
		for sc.Scan() {
			n++
		}
		return sc.Err() == nil && n > 0
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err == nil
}

// artifactRoundTrip drives the durable-artifact path end to end: a traced
// simulate job, the job poll loop, the artifact listing, and a ranged GET
// of the Chrome trace (which must answer 206 with at most the window).
func artifactRoundTrip(ctx context.Context, hc *http.Client, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/simulate",
		strings.NewReader(`{"n1":16,"n2":16,"n3":16,"p":4,"trace":true}`))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	var job struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return false
	}
	for job.Status == "queued" || job.Status == "running" {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(5 * time.Millisecond):
		}
		r, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+job.ID, nil)
		if err != nil {
			return false
		}
		resp, err = hc.Do(r)
		if err != nil {
			return false
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return false
		}
	}
	if job.Status != "done" {
		return false
	}
	r, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+job.ID+"/artifacts", nil)
	if err != nil {
		return false
	}
	resp, err = hc.Do(r)
	if err != nil {
		return false
	}
	var listing struct {
		Artifacts []struct {
			Name string `json:"name"`
		} `json:"artifacts"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(listing.Artifacts) == 0 {
		return false
	}
	r, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+job.ID+"/artifacts/trace.json", nil)
	if err != nil {
		return false
	}
	r.Header.Set("Range", "bytes=0-99")
	resp, err = hc.Do(r)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	return err == nil && resp.StatusCode == http.StatusPartialContent && n <= 100
}

// scrapeCounters reads the Prometheus exposition at base's /metrics into a
// map from series to value. It splits each sample line at its first space,
// which is exact for the unlabelled counters a run records.
func scrapeCounters(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	out := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		series, value, _ := strings.Cut(sc.Text(), " ")
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[series] = int64(v)
		}
	}
	return out, sc.Err()
}

func main() {
	addr := flag.String("addr", "", "parmmd base URL (e.g. http://127.0.0.1:8080); empty serves in-process")
	duration := flag.Duration("duration", 10*time.Second, "how long to sustain the load")
	clients := flag.Int("clients", 8, "concurrent load-generating clients")
	out := flag.String("out", "BENCH_serving.json", "output record path (empty: stdout only)")
	artifacts := flag.Bool("artifacts", false, "mix in artifact round trips (traced simulate job → listing → ranged GET); requires the target to run with artifact storage. Always on for the in-process server.")
	flag.Parse()

	base := *addr
	if base == "" {
		dir, err := os.MkdirTemp("", "loadgen-artifacts-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		fs, err := store.NewFS(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		*artifacts = true
		srv := service.New(service.Config{
			PlanConcurrency:    *clients,
			ComputeConcurrency: 4 * *clients,
			// Keep the 5000-point epoch sweep inline unless the client asks
			// to stream, so both response modes appear in the mix.
			PlanInlineLimit: 8192,
			CacheSize:       1 << 16,
			ArtifactStore:   fs,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		defer srv.Shutdown(context.Background())
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "loadgen: in-process parmmd on %s\n", base)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	perClient := make([][]outcome, *clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client(ctx, base, start, *artifacts, &perClient[i])
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	latencies := make(map[string][]time.Duration)
	errors := make(map[string]int)
	total := 0
	for _, list := range perClient {
		for _, o := range list {
			if o.ok {
				latencies[o.endpoint] = append(latencies[o.endpoint], o.latency)
				total++
			} else {
				errors[o.endpoint]++
			}
		}
	}
	if total == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no request succeeded")
		os.Exit(1)
	}

	rec := benchrec.NewServingRecord(*clients)
	rec.DurationSec = wall.Seconds()
	rec.TotalRequests = total
	rec.TotalRequestsPerSec = float64(total) / wall.Seconds()
	endpoints := make([]string, 0, len(latencies))
	for ep := range latencies {
		endpoints = append(endpoints, ep)
	}
	for ep := range errors {
		if _, ok := latencies[ep]; !ok {
			endpoints = append(endpoints, ep)
		}
	}
	sort.Strings(endpoints)
	for _, ep := range endpoints {
		rec.Samples = append(rec.Samples, benchrec.ServingSampleOf(ep, latencies[ep], errors[ep], wall))
	}

	c, err := scrapeCounters(base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: reading /metrics: %v\n", err)
	}
	rec.PlanPoints = c["service_plan_points_total"]
	rec.Overloads = c["service_overloads_total"]
	rec.Singleflight = benchrec.ServingSingleflight{
		CacheHits:   c["service_cache_hits_total"],
		CacheMisses: c["service_cache_misses_total"],
		CacheShared: c["service_cache_shared_total"],
	}
	if d := rec.Singleflight.CacheMisses + rec.Singleflight.CacheShared; d > 0 {
		rec.Singleflight.DedupedPercent = 100 * float64(rec.Singleflight.CacheShared) / float64(d)
	}

	blob, _ := json.MarshalIndent(rec, "", "\t")
	fmt.Println(string(blob))
	if *out != "" {
		if err := rec.WriteFile(*out); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "loadgen: %d requests (%.0f req/s), %d shared memo flights, wrote %s\n",
			total, rec.TotalRequestsPerSec, rec.Singleflight.CacheShared, *out)
	}
}
