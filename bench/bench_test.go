package main

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q, want float64
	}{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.25, 3}, {0.5, 5}, {0.75, 8}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile(nil) = %g, want NaN", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
}

// TestHistogramQuantile checks the histogram's nearest-rank quantiles
// against the exact ones, and that merging two halves changes nothing.
func TestHistogramQuantile(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var xs []float64
	var whole, a, b histogram
	for i := 0; i < 10000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(time.Millisecond))
		xs = append(xs, ms(d))
		whole.add(d)
		if i%2 == 0 {
			a.add(d)
		} else {
			b.add(d)
		}
	}
	a.merge(b)
	sorted := sortedCopy(xs)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		want := quantile(sorted, q)
		got := whole.quantile(q)
		if math.Abs(got-want) > 0.00025*want {
			t.Errorf("quantile(%g) = %g, exact %g", q, got, want)
		}
		if merged := a.quantile(q); merged != got {
			t.Errorf("merged quantile(%g) = %g, whole %g", q, merged, got)
		}
	}
	if whole.n != len(xs) || a.n != len(xs) {
		t.Errorf("counts %d and %d, want %d", whole.n, a.n, len(xs))
	}
	var empty histogram
	if got := empty.quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %g, want NaN", got)
	}
}

func TestTailFor(t *testing.T) {
	for _, c := range []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{1000, 0.99, true}, // rank 990 leaves 10
		{999, 0.95, true},  // rank 990 leaves 9
		{200, 0.95, true},  // p99 rank 198 leaves 2; p95 rank 190 leaves 10
		{199, 0.90, true},  // p95 rank 190 leaves 9
		{100, 0.90, true},
		{99, 0.75, true},
		{40, 0.75, true}, // rank 30 leaves 10
		{39, 0.75, false},
		{0, 0.75, false},
	} {
		got, ok := tailFor(c.n)
		if got != c.want || ok != c.wantOK {
			t.Errorf("tailFor(%d) = %g, %t; want %g, %t", c.n, got, ok, c.want, c.wantOK)
		}
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "op", start: ms(0), end: ms(100), parent: -1},
		{name: "a", start: ms(10), end: ms(40), parent: 0},
		{name: "b", start: ms(30), end: ms(60), parent: 0},  // overlaps a
		{name: "c", start: ms(80), end: ms(120), parent: 0}, // runs past op; clipped
		{name: "a1", start: ms(15), end: ms(20), parent: 1},
		{name: "a2", start: ms(18), end: ms(25), parent: 1},
		{name: "other", start: ms(0), end: ms(5), parent: -1},
	}
	want := []time.Duration{ms(30), ms(20), ms(30), ms(40), ms(5), ms(7), ms(5)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestClassify(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name        string
		a, b        []float64
		bound       float64
		lowerBetter bool
		want        string
	}{
		{"same", steady, steady, 0.1, true, unchanged},
		{"within bound", steady, scale(steady, 1.05), 0.1, true, unchanged},
		{"worse", steady, scale(steady, 1.2), 0.1, true, regressed},
		{"better", steady, scale(steady, 0.8), 0.1, true, improved},
		{"higher is better, lower", steady, scale(steady, 0.8), 0.1, false, regressed},
		{"higher is better, higher", steady, scale(steady, 1.2), 0.1, false, improved},
		{"noisy parent", noisy, scale(steady, 1.05), 0.1, true, unresolved},
		{"noisy change", steady, noisy, 0.1, true, unresolved},
		{"noisy but every run better", scale(noisy, 3), noisy, 0.1, true, improved},
		{"single runs within bound", []float64{100}, []float64{108}, 0.1, true, unchanged},
		{"single runs past bound", []float64{100}, []float64{112}, 0.1, true, regressed},
	} {
		if got, _ := classify(c.a, c.b, c.bound, c.lowerBetter); got != c.want {
			t.Errorf("%s: classify = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSpecMatchesCode checks that BENCHMARK.json declares exactly the
// workloads and metrics the benchmark measures, in the same order and
// units.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", e2e, e2eMetrics)
	}
	if !reflect.DeepEqual(layers, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, code %v", layers, layerMetrics)
	}
}

// TestEachWorkloadOnce sets every workload up and runs one checked
// operation on it.
func TestEachWorkloadOnce(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(1)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			check, err := inst.op(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := check(); err != nil {
				t.Fatal(err)
			}
			if wrong := inst.verify(); wrong != 0 {
				t.Fatalf("%d wrong answers", wrong)
			}
		})
	}
}
