package machine

import (
	"fmt"
	"strings"
)

// TrafficMatrix accumulates per-(source, destination) word counts — the
// network's full traffic pattern, useful for checking that an algorithm's
// communication stays on its intended fibers and for visualizing locality.
// Row src is written only by rank src's sends, so recording takes no lock;
// read the matrix after Run.
type TrafficMatrix struct {
	p     int
	words []float64 // p×p, row-major [src*p+dst]
}

// EnableTraffic attaches a traffic matrix to the world; call before Run.
func (w *World) EnableTraffic() *TrafficMatrix {
	w.traffic = &TrafficMatrix{p: w.p, words: make([]float64, w.p*w.p)}
	return w.traffic
}

// add records a message (called from the body of rank src).
func (t *TrafficMatrix) add(src, dst int, words float64) {
	t.words[src*t.p+dst] += words
}

// Words returns the total words sent from src to dst.
func (t *TrafficMatrix) Words(src, dst int) float64 {
	return t.words[src*t.p+dst]
}

// ActivePairs returns the number of ordered (src, dst) pairs that
// exchanged any data — a locality measure (an all-to-all uses p(p−1)
// pairs; fiber-structured algorithms far fewer).
func (t *TrafficMatrix) ActivePairs() int {
	n := 0
	for _, v := range t.words {
		if v > 0 {
			n++
		}
	}
	return n
}

// Heatmap renders the matrix as an ASCII density grid (rows = sources,
// columns = destinations; ' ' none, '.' light, '+' medium, '#' heavy,
// scaled to the maximum cell). Intended for small P.
func (t *TrafficMatrix) Heatmap() string {
	max := 0.0
	for _, v := range t.words {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "traffic heatmap (%d ranks, max cell %.4g words)\n", t.p, max)
	for s := 0; s < t.p; s++ {
		b.WriteString("|")
		for d := 0; d < t.p; d++ {
			v := t.words[s*t.p+d]
			switch {
			case v == 0:
				b.WriteByte(' ')
			case v < max/3:
				b.WriteByte('.')
			case v < 2*max/3:
				b.WriteByte('+')
			default:
				b.WriteByte('#')
			}
		}
		b.WriteString("|\n")
	}
	return b.String()
}
