// Command bench is the repository's benchmark: three seeded workloads over
// the parmmd service and whole Algorithm 1 runs, their end-to-end metrics,
// and a traced replay that breaks each workload down by layer. It is a
// module of its own that builds against the repository around it; run it
// from the repository root, where it finds BENCHMARK.json:
//
//	bash bench/run.sh -seed 1                  # every workload, one process each
//	bash bench/run.sh -workload plan-cold -seed 1 -seconds 30 -trace 0
//	bash bench/run.sh -workload plan-cold -seed 1 -trace 1
//	bash bench/run.sh -compare A.json B.json   # or A1.json A2.json -- B1.json B2.json
//
// See README.md for the workloads, the metrics, and how to read a
// comparison.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// After each load segment a run sets its workload up again, once, and a
// second time if the first took less than setupBudget; setup_s is the
// median of all set-ups. Spread over the run, they sample the host's
// changing speed as the load does.
const setupBudget = 40 * time.Millisecond

func main() {
	var (
		name      = flag.String("workload", "", "workload to run; empty runs every workload, each in its own process, and writes a set record")
		seed      = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", 30, "measured seconds per workload")
		traceMode = flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics instead of end-to-end ones")
		rounds    = flag.Int("rounds", 1, "with no -workload, how many times to run each workload, cycling through them")
		out       = flag.String("out", filepath.Join(".bench_build", "out"), "directory for set records and Chrome traces")
		compare   = flag.Bool("compare", false, "compare set records given as arguments (see README.md) and exit non-zero on a regression")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		var regressed bool
		regressed, err = runCompare(os.Stdout, flag.Args(), "BENCHMARK.json")
		if err == nil && regressed {
			os.Exit(1)
		}
	case *traceMode != 0 && *traceMode != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traceMode)
	case *rounds < 1:
		err = fmt.Errorf("-rounds must be at least 1, got %d", *rounds)
	case *name == "":
		err = runSet(*seed, *seconds, *traceMode, *rounds, *out)
	default:
		err = runOne(*name, *seed, *seconds, *traceMode == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// runOne measures one workload in this process and prints its metrics.
func runOne(name string, seed uint64, seconds float64, traced bool, out string) error {
	w, err := workloadNamed(name)
	if err != nil {
		return err
	}
	d := time.Duration(seconds * float64(time.Second))
	if traced {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		return traceOne(w, seed, d, out)
	}
	return measureOne(w, seed, d)
}

// measureOne is an untraced run: set the workload up, drive it for d,
// set it up again between load segments, check every answer, and report
// the end-to-end metrics.
func measureOne(w *workload, seed uint64, d time.Duration) error {
	var setups []float64
	setUp := func() (instance, error) {
		// A set-up after a load segment must not pay for collecting the
		// garbage the load left; on alg1-scale that garbage is hundreds of
		// MiB, and collecting it made setup_s swing by a quarter.
		runtime.GC()
		start := time.Now()
		inst, err := w.setup(seed)
		setups = append(setups, time.Since(start).Seconds())
		return inst, err
	}
	inst, err := setUp()
	if err != nil {
		return err
	}
	defer inst.close()
	var setupErr error
	lr := runLoad(context.Background(), w, inst, d, func() {
		for k := 0; setupErr == nil && (k == 0 || (k == 1 && setups[len(setups)-1] < setupBudget.Seconds())); k++ {
			var again instance
			if again, setupErr = setUp(); setupErr == nil {
				again.close()
			}
		}
	})
	if setupErr != nil {
		return setupErr
	}
	wrong := inst.verify()
	values, err := loadValues(w, lr, wrong)
	if err != nil {
		return err
	}
	values["setup_s"] = median(setups)
	values["max_rss_mb"] = maxRSSMB()
	return report(os.Stdout, w.name, values, e2eMetrics, resultOf(lr, wrong))
}

// loadValues computes the metrics of a load phase: latency percentiles,
// throughput and the error rate.
func loadValues(w *workload, lr phase, wrong int) (map[string]float64, error) {
	lat := &lr.latencies
	if lat.n == 0 {
		return nil, fmt.Errorf("%s: no operation succeeded", w.name)
	}
	if q, ok := tailFor(lat.n); q < w.tail || !ok {
		fmt.Fprintf(os.Stderr, "%s: %d samples leave fewer than ten above p%g\n", w.name, lat.n, 100*w.tail)
	}
	values := map[string]float64{
		"latency_p50_ms":   lat.quantile(0.5),
		"latency_tail_ms":  lat.quantile(w.tail),
		"throughput_ops_s": float64(lat.n) / lr.wall.Seconds(),
		"error_rate":       float64(lr.failed+wrong) / float64(lr.attempted),
		"bench.samples":    float64(lat.n),
	}
	return values, nil
}

func resultOf(lr phase, wrong int) result {
	return result{Correct: lr.wrong+wrong == 0, Attempted: lr.attempted, Failed: lr.failed + wrong}
}

// traceOne is a traced run: an untraced load phase for half of d (the
// latency the layers must explain, and the service counters), the traced
// replay for a quarter of d, then every layer measurement. The spans go to
// out/<workload>.trace.json.
func traceOne(w *workload, seed uint64, d time.Duration, out string) error {
	ctx := context.Background()
	inst, err := w.setup(seed)
	if err != nil {
		return err
	}
	defer inst.close()
	srv := serverOf(inst)
	var before, after map[string]float64
	if srv != nil {
		if before, err = srv.counters(ctx); err != nil {
			return err
		}
	}
	lr := runLoad(ctx, w, inst, d/2, func() {})
	if srv != nil {
		if after, err = srv.counters(ctx); err != nil {
			return err
		}
	}
	wrong := inst.verify()
	values, err := loadValues(w, lr, wrong)
	if err != nil {
		return err
	}

	rec := newRecorder()
	parts, err := inst.replay(ctx, rec, d/4)
	if err != nil {
		return fmt.Errorf("%s replay: %w", w.name, err)
	}
	ls, err := measureLayers(ctx, w, inst, seed, rec)
	if err != nil {
		return fmt.Errorf("%s layers: %w", w.name, err)
	}
	for k, v := range ls.metrics {
		values[k] = v
	}

	explained := alg1Explained(ls)
	if parts != nil {
		explained = 0
		byName := selfByName(rec.spans, selfTimes(rec.spans))
		for _, part := range parts {
			explained += nanos(median(byName[part]))
		}
	}
	values["service.residual_ms"] = values["latency_p50_ms"] - ms(explained)

	delta := func(name string) float64 { return after[name] - before[name] }
	hits := delta("service_cache_hits_total")
	lookups := hits + delta("service_cache_misses_total") + delta("service_cache_shared_total")
	values["service.memo_lookups"] = lookups
	values["service.memo_hit_ratio"] = 0
	if lookups > 0 {
		values["service.memo_hit_ratio"] = hits / lookups
	}
	values["service.overloads"] = delta("service_overloads_total")

	if err := writeChromeTrace(filepath.Join(out, w.name+".trace.json"), rec.spans); err != nil {
		return err
	}
	return report(os.Stdout, w.name, values, layerMetrics, resultOf(lr, wrong))
}

// serverOf returns the in-process server an instance drives, or nil.
func serverOf(inst instance) *server {
	switch v := inst.(type) {
	case *planCold:
		return v.srv
	case *apiWarm:
		return v.srv
	}
	return nil
}

// envInfo records where a set ran.
type envInfo struct {
	GoVersion      string `json:"goVersion"`
	GOOS           string `json:"goos"`
	GOARCH         string `json:"goarch"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	NumCPU         int    `json:"nproc"`
	NonTestGoLines int    `json:"nonTestGoLines"`
	Date           string `json:"date"`
}

func currentEnv() envInfo {
	return envInfo{
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		NonTestGoLines: nonTestGoLines("."),
		Date:           time.Now().UTC().Format(time.RFC3339),
	}
}
