package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricKind is the Prometheus TYPE of a metric family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	return [...]string{"counter", "gauge", "histogram"}[k]
}

// child is one labeled member of a family: its rendered label pairs (inner
// part, without braces) plus the metric and how to render it. A child is
// immutable once created — only the metric's own atomics change — so
// snapshotting a family means copying child pointers under the registry
// lock.
type child struct {
	labels string   // `k="v",k2="v2"` or ""
	kv     []string // the raw key/value pairs, for exporters (push.go)
	metric any
	write  func(w io.Writer, name, labels string)
}

// family groups all children sharing one metric name under a single
// HELP/TYPE block, as the exposition format requires.
type family struct {
	name     string
	help     string
	kind     metricKind
	children []*child
}

// Registry holds named metric families and renders them in the Prometheus
// text exposition format. Registration is idempotent: registering the same
// name and labels again returns the existing metric (and panics only on a
// kind mismatch, which is a programming error). Families and children
// render in registration order, so output is deterministic.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*family
	order  []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// register finds or creates the (family, child) slot and returns the child
// metric, creating it with mk on first registration.
func (r *Registry) register(name, help string, kind metricKind, labels []string, mk func() (any, func(io.Writer, string, string))) any {
	inner := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.order = append(r.order, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, f.kind))
	}
	for _, c := range f.children {
		if c.labels == inner {
			return c.metric
		}
	}
	m, write := mk()
	kv := make([]string, len(labels))
	copy(kv, labels)
	f.children = append(f.children, &child{labels: inner, kv: kv, metric: m, write: write})
	return m
}

// Counter registers (or returns the existing) counter under name with the
// given label key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.register(name, help, kindCounter, labels, func() (any, func(io.Writer, string, string)) {
		c := &Counter{}
		return c, func(w io.Writer, n, l string) {
			fmt.Fprintf(w, "%s%s %s\n", n, braced(l), strconv.FormatUint(c.Value(), 10))
		}
	}).(*Counter)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for mirroring counts that already live elsewhere (an existing
// atomic, a cache's hit count) without double accounting.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindCounter, labels, func() (any, func(io.Writer, string, string)) {
		return fn, func(w io.Writer, n, l string) {
			fmt.Fprintf(w, "%s%s %s\n", n, braced(l), formatFloat(fn()))
		}
	})
}

// Striped registers (or returns the existing) striped counter under name.
// It renders as a counter whose value is the sum over stripes.
func (r *Registry) Striped(name, help string, labels ...string) *Striped {
	return r.register(name, help, kindCounter, labels, func() (any, func(io.Writer, string, string)) {
		s := &Striped{}
		return s, func(w io.Writer, n, l string) {
			fmt.Fprintf(w, "%s%s %s\n", n, braced(l), strconv.FormatUint(s.Value(), 10))
		}
	}).(*Striped)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGauge, labels, func() (any, func(io.Writer, string, string)) {
		return fn, func(w io.Writer, n, l string) {
			fmt.Fprintf(w, "%s%s %s\n", n, braced(l), formatFloat(fn()))
		}
	})
}

// Histogram registers (or returns the existing) histogram under name with
// the given bucket upper bounds (nil selects DefSecondsBuckets). Bounds are
// sorted and deduplicated, and an explicit +Inf bound is dropped in favor
// of the implicit final bucket, so the rendered cumulative `le` lines are
// strictly monotone — Prometheus rejects expositions where they are not. A
// NaN bound is unorderable and panics, like a kind mismatch: both are
// programming errors at registration sites.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if bounds == nil {
		bounds = DefSecondsBuckets()
	}
	for _, b := range bounds {
		if math.IsNaN(b) {
			panic(fmt.Sprintf("obs: histogram %q registered with a NaN bucket bound", name))
		}
	}
	return r.register(name, help, kindHistogram, labels, func() (any, func(io.Writer, string, string)) {
		h := newHistogram(bounds)
		return h, func(w io.Writer, n, l string) {
			cum := uint64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", n, braced(joinLabels(l, `le="`+formatFloat(b)+`"`)), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", n, braced(joinLabels(l, `le="+Inf"`)), cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", n, braced(l), formatFloat(h.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", n, braced(l), h.Count())
		}
	}).(*Histogram)
}

// famSnapshot is one family captured under the registry lock: the header
// fields plus a copy of the children slice, so rendering and exporting can
// iterate it after unlocking while register keeps appending to the live
// slice.
type famSnapshot struct {
	name     string
	help     string
	kind     metricKind
	children []*child
}

// snapshot copies every family's header and children under the lock.
// Children are immutable after creation, so pointer copies suffice; what
// must not escape the lock is the children slice header itself, which
// register rewrites on append.
func (r *Registry) snapshot() []famSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]famSnapshot, len(r.order))
	for i, f := range r.order {
		cs := make([]*child, len(f.children))
		copy(cs, f.children)
		fams[i] = famSnapshot{name: f.name, help: f.help, kind: f.kind, children: cs}
	}
	return fams
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4): one HELP and TYPE line per family, then one sample line
// per child (several for histograms). It writes from a locked snapshot, so
// scrapes race metric registrations safely: a child registered mid-scrape
// appears in the next scrape.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.snapshot() {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind)
		for _, c := range f.children {
			c.write(w, f.name, c.labels)
		}
	}
}

// renderLabels turns variadic key/value pairs into the deterministic inner
// label string `k="v",…`, sorted by key.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	type pair struct{ k, v string }
	ps := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ps = append(ps, pair{kv[i], kv[i+1]})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	var b strings.Builder
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// braced wraps a non-empty inner label string in the exposition braces.
func braced(inner string) string {
	if inner == "" {
		return ""
	}
	return "{" + inner + "}"
}

// joinLabels concatenates two inner label strings.
func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// escapeValue escapes a label value per the exposition format.
func escapeValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
