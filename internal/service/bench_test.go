package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// benchDims/benchP: a large-divisor processor count (55440 = 2^4·3^2·5·7·11
// has 120 divisors) makes the exhaustive divisor search of grid.Optimal
// genuinely expensive, which is what the memo layer exists to absorb.
var (
	benchDims = core.NewDims(55440, 27720, 13860)
	benchP    = 55440
)

// BenchmarkOptimalGridCold is the uncached exhaustive search.
func BenchmarkOptimalGridCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = grid.Optimal(benchDims, benchP)
	}
}

// BenchmarkOptimalGridCached is the same query through the memo layer
// after warm-up; the acceptance target is ≥ 10× faster than the cold
// search (in practice it is orders of magnitude).
func BenchmarkOptimalGridCached(b *testing.B) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	_ = s.optimalGrid(benchDims, benchP) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.optimalGrid(benchDims, benchP)
	}
}

// TestCachedOptimalGridSpeedup pins the acceptance criterion without
// relying on running the benchmarks: the cached path must be at least 10×
// faster than the cold divisor search for a large-divisor P. The margin in
// practice is ~1000×, so the assertion has huge slack against noisy CI.
func TestCachedOptimalGridSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	s := New(Config{})
	defer s.Shutdown(context.Background())
	cold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = grid.Optimal(benchDims, benchP)
		}
	})
	warm := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = s.optimalGrid(benchDims, benchP)
		}
	})
	coldNs := float64(cold.NsPerOp())
	warmNs := float64(warm.NsPerOp())
	if warmNs <= 0 {
		return
	}
	if coldNs < 10*warmNs {
		t.Fatalf("cached OptimalGrid only %.1f× faster than cold (%v vs %v)", coldNs/warmNs, cold, warm)
	}
	t.Logf("cached OptimalGrid %.0f× faster (cold %v, cached %v)", coldNs/warmNs, cold, warm)
}

// planBenchBody is the repository benchmark's plan-cold request: 2000³
// over the 5000 P from 100000 to 104999, answered inline.
func planBenchBody(mem float64) string {
	return fmt.Sprintf(`{"problems":[{"n1":2000,"n2":2000,"n3":2000,"mem":%g,"pMin":100000,"pMax":104999}],"stream":false}`, mem)
}

// benchPlans posts body(i) for the i-th plan from GOMAXPROCS clients at
// once (two on a 2-core host, as in plan-cold) to a server configured as
// the repository benchmark's, draining each answer.
func benchPlans(b *testing.B, body func(i int64) string) {
	s := New(Config{CacheSize: 1 << 16, PlanInlineLimit: 8192})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	post := func(i int64) {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body(i)))
		if err != nil {
			b.Error(err)
			return
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			b.Errorf("status %d, %v", resp.StatusCode, err)
		}
	}
	post(-1) // warm the connection pool and, for a repeated body, the memo
	var n atomic.Int64
	b.SetParallelism(1)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			post(n.Add(1))
		}
	})
}

// BenchmarkPlanCold is plan-cold's loop: every plan has a memory budget of
// its own, so no point was computed before.
func BenchmarkPlanCold(b *testing.B) {
	benchPlans(b, func(i int64) string { return planBenchBody(10000 + float64(i)) })
}

// BenchmarkPlanWarmRepeat repeats one plan-cold body, so a server that
// memoizes closed-form points answers every point from its cache.
func BenchmarkPlanWarmRepeat(b *testing.B) {
	benchPlans(b, func(int64) string { return planBenchBody(10001) })
}
