package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	v := 7.0
	r.GaugeFunc("g", "a gauge", func() float64 { return v })
	v = 4
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "\ng 4\n") {
		t.Fatalf("gauge scrape, want g 4:\n%s", sb.String())
	}
}

func TestStripedSumsAcrossCells(t *testing.T) {
	r := NewRegistry()
	s := r.Striped("s_total", "striped")
	for hint := 0; hint < 1000; hint++ {
		s.Add(hint, 2)
	}
	if s.Value() != 2000 {
		t.Fatalf("striped sum = %d, want 2000", s.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+5+50; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	// 0.1 is ≤ 0.1: cumulative buckets 2, 3, 4 and +Inf 5.
	for _, line := range []string{
		`h_seconds_bucket{le="0.1"} 2`,
		`h_seconds_bucket{le="1"} 3`,
		`h_seconds_bucket{le="10"} 4`,
		`h_seconds_bucket{le="+Inf"} 5`,
		`h_seconds_count 5`,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("output missing %q:\n%s", line, out)
		}
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "dup", "op", "x")
	b := r.Counter("dup_total", "dup", "op", "x")
	if a != b {
		t.Fatal("re-registration returned a different metric")
	}
	c := r.Counter("dup_total", "dup", "op", "y")
	if c == a {
		t.Fatal("distinct labels shared a metric")
	}
	a.Inc()
	c.Add(2)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	if strings.Count(out, "# TYPE dup_total counter") != 1 {
		t.Fatalf("family not grouped under one TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `dup_total{op="x"} 1`) || !strings.Contains(out, `dup_total{op="y"} 2`) {
		t.Fatalf("children missing:\n%s", out)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "m")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.GaugeFunc("m", "m", func() float64 { return 0 })
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "requests", "endpoint", `p"ath`).Add(3)
	r.GaugeFunc("entries", "cache entries\nmultiline", func() float64 { return 12 })
	r.CounterFunc("mirrored_total", "mirrored", func() float64 { return 2.5 })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, line := range []string{
		"# HELP reqs_total requests\n# TYPE reqs_total counter\n",
		`reqs_total{endpoint="p\"ath"} 3`,
		"# HELP entries cache entries\\nmultiline\n# TYPE entries gauge\nentries 12\n",
		"# TYPE mirrored_total counter\nmirrored_total 2.5\n",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("output missing %q:\n%s", line, out)
		}
	}
}

// TestLabelOrderDeterministic: label pairs render sorted by key, whatever
// the registration order.
func TestLabelOrderDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("l_total", "l", "zeta", "1", "alpha", "2").Inc()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `l_total{alpha="2",zeta="1"} 1`) {
		t.Fatalf("labels not sorted:\n%s", sb.String())
	}
}

// TestUpdateAllocs pins the zero-allocation contract of every mutator: the
// simulator's hot path runs through these.
func TestUpdateAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ac_total", "c")
	s := r.Striped("as_total", "s")
	h := r.Histogram("ah_seconds", "h", nil)
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		s.Add(17, 5)
		h.Observe(0.012)
	}); n != 0 {
		t.Fatalf("metric updates allocate %.1f allocs/op, want 0", n)
	}
}

// TestConcurrentUpdatesAndScrapes hammers every metric type from many
// goroutines while scraping; under -race this is the synchronization proof.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "c")
	s := r.Striped("cs_total", "s")
	h := r.Histogram("ch_seconds", "h", nil)
	const (
		workers = 8
		iters   = 2000
	)
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				s.Add(wkr, 1)
				h.Observe(float64(i) * 1e-4)
				if i%500 == 0 {
					var sb strings.Builder
					r.WritePrometheus(&sb)
				}
			}
		}(wkr)
	}
	wg.Wait()
	if c.Value() != workers*iters || s.Value() != workers*iters {
		t.Fatalf("counter %d striped %d, want %d", c.Value(), s.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram count %d, want %d", h.Count(), workers*iters)
	}
}

// TestScrapeRegistrationRace is the -race regression test for the
// scrape/registration data race: WritePrometheus used to copy the family
// order under the lock but iterate each family's children after unlocking,
// while register appended to the same slice. Concurrent scrapes against
// late registrations must neither race nor drop settled children.
func TestScrapeRegistrationRace(t *testing.T) {
	r := NewRegistry()
	r.Counter("race_total", "seed", "op", "seed").Inc()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				r.WritePrometheus(&sb)
				if !strings.Contains(sb.String(), `race_total{op="seed"} 1`) {
					t.Error("settled child missing from scrape")
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		// Same family (append to children) and fresh families (append to
		// order), the two slices the scraper iterates.
		r.Counter("race_total", "seed", "op", fmt.Sprintf("op%d", i)).Inc()
		r.Counter(fmt.Sprintf("race_fam_%d_total", i), "late family").Inc()
	}
	close(stop)
	wg.Wait()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `race_total{op="op499"} 1`) {
		t.Fatalf("late registration missing from final scrape")
	}
}

// TestHistogramBoundsNormalized: unsorted, duplicated, and +Inf bounds must
// render strictly monotone `le` lines (Prometheus rejects duplicates and
// non-monotone cumulative buckets).
func TestHistogramBoundsNormalized(t *testing.T) {
	cases := []struct {
		name   string
		bounds []float64
		les    []string // expected le label values, in order, +Inf implicit last
	}{
		{"unsorted", []float64{1, 0.5, 2}, []string{"0.5", "1", "2"}},
		{"duplicates", []float64{1, 1, 0.5, 2, 2}, []string{"0.5", "1", "2"}},
		{"explicit_inf", []float64{0.5, math.Inf(1), 1}, []string{"0.5", "1"}},
		{"all_dup", []float64{3, 3, 3}, []string{"3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.Histogram("hb_seconds", "h", tc.bounds)
			h.Observe(0.75)
			h.Observe(1.5)
			var sb strings.Builder
			r.WritePrometheus(&sb)
			out := sb.String()
			want := append(append([]string{}, tc.les...), "+Inf")
			var got []string
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "hb_seconds_bucket{") {
					le := strings.TrimPrefix(line, `hb_seconds_bucket{le="`)
					got = append(got, le[:strings.Index(le, `"`)])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("le lines = %v, want %v:\n%s", got, want, out)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("le lines = %v, want %v:\n%s", got, want, out)
				}
			}
			// Cumulative counts must be non-decreasing with all
			// observations accounted for in +Inf.
			if !strings.Contains(out, `hb_seconds_bucket{le="+Inf"} 2`) {
				t.Fatalf("+Inf bucket must hold every observation:\n%s", out)
			}
		})
	}
}

func TestHistogramNaNBoundPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on NaN bucket bound")
		}
	}()
	r.Histogram("nan_seconds", "h", []float64{0.1, math.NaN()})
}

func TestEnabledToggle(t *testing.T) {
	if Enabled() {
		t.Fatal("instrumentation must default off")
	}
	SetEnabled(true)
	if !Enabled() {
		t.Fatal("SetEnabled(true) not visible")
	}
	SetEnabled(false)
}

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }
