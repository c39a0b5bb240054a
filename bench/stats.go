package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least ⌈q·n⌉ samples at or below it. It returns NaN for an
// empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	return sorted[rankOf(n, q)-1]
}

// rankOf is the 1-based nearest rank of the q-quantile among n samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// tailCandidates are the tail percentiles a workload may report, highest
// first.
var tailCandidates = []float64{0.99, 0.95, 0.90, 0.75}

// tailFor applies the tail-percentile rule: the highest candidate that
// leaves at least ten samples above its nearest rank among n samples. When
// none does, the lowest candidate is returned with ok false.
func tailFor(n int) (q float64, ok bool) {
	for _, q := range tailCandidates {
		if n-rankOf(n, q) >= 10 {
			return q, true
		}
	}
	return tailCandidates[len(tailCandidates)-1], false
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the nearest-rank median of xs.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles returns the nearest-rank first quartile, median and third
// quartile of xs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// histogram counts durations in logarithmic buckets, histRes to an e-fold
// (0.05% wide). A run's memory then stays the same however many
// operations it completes; one sample per operation grew with the host's
// speed and showed in max_rss_mb.
type histogram struct {
	counts map[int]int // by bucket
	n      int
}

const histRes = 2000

func (h *histogram) add(d time.Duration) {
	h.addCount(int(math.Floor(math.Log(float64(max(d, 1)))*histRes)), 1)
}

func (h *histogram) addCount(bucket, count int) {
	if h.counts == nil {
		h.counts = make(map[int]int)
	}
	h.counts[bucket] += count
	h.n += count
}

func (h *histogram) merge(o histogram) {
	for b, c := range o.counts {
		h.addCount(b, c)
	}
}

// quantile returns the nearest-rank q-quantile in milliseconds: the
// geometric centre of the bucket that holds the sample of rank ⌈q·n⌉, off
// the sample by at most 0.025%. It returns NaN for an empty histogram.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	buckets := make([]int, 0, len(h.counts))
	for b := range h.counts {
		buckets = append(buckets, b)
	}
	sort.Ints(buckets)
	rank, seen := rankOf(h.n, q), 0
	for _, b := range buckets {
		if seen += h.counts[b]; seen >= rank {
			return math.Exp((float64(b)+0.5)/histRes) / 1e6
		}
	}
	panic("histogram counts do not add up to n")
}

// ms, us and ns convert a duration, or a per-call time in nanoseconds, to
// float milliseconds, microseconds and nanoseconds.
func ms[T time.Duration | nanos](d T) float64 { return float64(d) / 1e6 }
func us[T time.Duration | nanos](d T) float64 { return float64(d) / 1e3 }
func ns[T time.Duration | nanos](d T) float64 { return float64(d) }

// maxRSSMB returns the peak resident set size of this process in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
