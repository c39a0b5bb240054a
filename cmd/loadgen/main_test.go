package main

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
)

// TestScrapeCounters: after one lowerbound and one plan request to an
// in-process parmmd, the /metrics reader returns the memo, overload and
// plan-point counts the server holds.
func TestScrapeCounters(t *testing.T) {
	srv := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// The repeated problem hits the memo; the flat-priced plan's four points
	// go through it too.
	for _, r := range []struct{ path, body string }{
		{"/v1/lowerbound", `{"problems":[{"n1":96,"n2":24,"n3":6,"p":8},{"n1":96,"n2":24,"n3":6,"p":8}]}`},
		{"/v1/plan", `{"problems":[{"n1":64,"n2":64,"n3":64,"mem":1e6,"pMin":1,"pMax":4,"topology":{"spec":"flat"}}]}`},
	} {
		if !doRequest(context.Background(), ts.Client(), ts.URL+r.path, r.body, false) {
			t.Fatalf("POST %s failed", r.path)
		}
	}

	got, err := scrapeCounters(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := srv.Cache().Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("the requests left hits %d, misses %d; want both non-zero", hits, misses)
	}
	for name, want := range map[string]int64{
		"service_cache_hits_total":   hits,
		"service_cache_misses_total": misses,
		"service_cache_shared_total": srv.Cache().Shared(),
		"service_overloads_total":    0,
		"service_plan_points_total":  4,
	} {
		if v, ok := got[name]; !ok || v != want {
			t.Errorf("%s = %d (present %v), want %d", name, v, ok, want)
		}
	}
}
