package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are the end-to-end metrics an untraced run reports, in
// BENCHMARK.json order.
var e2eMetrics = []metricDef{
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MiB", "lower"},
}

// layerMetrics are the per-layer metrics a traced run reports, in
// BENCHMARK.json order. README.md says which end-to-end metric and
// workload each should move.
var layerMetrics = []metricDef{
	{"service.decode_us", "us", "lower"},
	{"service.encode_us", "us", "lower"},
	{"service.memo_lookup_us", "us", "lower"},
	{"service.memo_insert_us", "us", "lower"},
	{"service.memo_hit_ratio", "ratio", "higher"},
	{"service.memo_lookups", "count", "lower"},
	{"service.overloads", "count", "lower"},
	{"service.residual_ms", "ms", "lower"},
	{"plan.sweep_ms", "ms", "lower"},
	{"plan.summary_us", "us", "lower"},
	{"grid.optimal_under_memory_us", "us", "lower"},
	{"grid.optimal_us", "us", "lower"},
	{"model.alg1_time_us", "us", "lower"},
	{"hbl.solve_us", "us", "lower"},
	{"hbl.bound_us", "us", "lower"},
	{"core.lower_bound_ns", "ns", "lower"},
	{"machine.world_new_ms", "ms", "lower"},
	{"machine.handoff_ns", "ns", "lower"},
	{"machine.msgs_per_run", "count", "lower"},
	{"machine.words_per_run", "words", "lower"},
	{"collective.allgather_us", "us", "lower"},
	{"collective.phase_words", "words", "lower"},
	{"matrix.mulinto_ms", "ms", "lower"},
	{"matrix.kernel_share", "ratio", "lower"},
	{"bench.samples", "count", "higher"},
	{"error_rate", "ratio", "lower"},
}

// runExtras are measurements a run prints besides the metrics of its
// mode: they qualify an untraced run, and give a traced run the latency
// its layers explain.
var runExtras = []string{"error_rate", "bench.samples", "latency_p50_ms"}

// unitOf returns the declared unit of a metric.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("undeclared metric " + name)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, the benchmark's contract with
// whatever drives it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every measurement as "workload metric value unit", then
// the result line carrying the metrics named in keep.
func report(w io.Writer, workload string, values map[string]float64, keep []metricDef, res result) error {
	printed := make(map[string]bool)
	line := func(name string) error {
		v, ok := values[name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", workload, name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", workload, name, v)
		}
		printed[name] = true
		_, err := fmt.Fprintf(w, "%s %s %v %s\n", workload, name, v, unitOf(name))
		return err
	}
	res.Metrics = make(map[string]metricValue, len(keep))
	for _, d := range keep {
		if err := line(d.name); err != nil {
			return err
		}
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	for _, name := range runExtras {
		if _, ok := values[name]; ok && !printed[name] {
			if err := line(name); err != nil {
				return err
			}
		}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
