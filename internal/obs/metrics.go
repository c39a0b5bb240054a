package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. All methods are safe for
// concurrent use and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// stripes is the cell count of a Striped counter. 64 cells × 64-byte cache
// lines is 4 KiB per metric — cheap next to eliminating cross-rank cache
// bouncing on the simulator's send path.
const stripes = 64

// stripedCell is one padded cell: the counter plus padding filling the rest
// of a cache line, so adjacent stripes never share a line.
type stripedCell struct {
	v atomic.Uint64
	_ [56]byte
}

// Striped is a counter sharded over cache-line-padded cells. Writers pick a
// cell with any roughly-uniform hint (the simulator uses the rank id), so
// thousands of concurrent writers do not contend on one cache line; readers
// sum the cells. The sum is not a point-in-time snapshot across cells —
// exactly the Prometheus counter contract, where scrapes race updates
// anyway.
type Striped struct {
	cells [stripes]stripedCell
}

// Add adds n to the cell selected by hint.
func (s *Striped) Add(hint int, n uint64) { s.cells[uint(hint)%stripes].v.Add(n) }

// Inc adds one to the cell selected by hint.
func (s *Striped) Inc(hint int) { s.cells[uint(hint)%stripes].v.Add(1) }

// Value returns the sum over cells.
func (s *Striped) Value() uint64 {
	var t uint64
	for i := range s.cells {
		t += s.cells[i].v.Load()
	}
	return t
}

// Histogram counts observations in cumulative ≤-bound buckets, plus the sum
// and total count — the Prometheus histogram model. Observe is lock-free:
// one binary search over the fixed bounds and three atomic adds.
type Histogram struct {
	bounds []float64       // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64 // len(bounds)+1, non-cumulative per bucket
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	n      atomic.Uint64
}

// DefSecondsBuckets are the default latency buckets, in seconds, spanning
// sub-millisecond cache hits to multi-second simulation jobs.
func DefSecondsBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// newHistogram normalizes the bounds — sorted, duplicates collapsed, an
// explicit +Inf dropped in favor of the implicit final bucket — so the
// cumulative `le` exposition lines are strictly monotone whatever order or
// redundancy the caller passed.
func newHistogram(bounds []float64) *Histogram {
	sorted := make([]float64, len(bounds))
	copy(sorted, bounds)
	sort.Float64s(sorted)
	bs := make([]float64, 0, len(sorted))
	for _, b := range sorted {
		if math.IsInf(b, 1) {
			continue
		}
		if len(bs) > 0 && bs[len(bs)-1] == b {
			continue
		}
		bs = append(bs, b)
	}
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v; len(bounds) → +Inf
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }
