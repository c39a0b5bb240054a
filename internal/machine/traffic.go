package machine

import (
	"fmt"
	"strings"
)

// TrafficMatrix holds per-(source, destination) word counts — the
// network's full traffic pattern, useful for checking that an algorithm's
// communication stays on its intended fibers and for visualizing locality.
// Trace.Traffic builds one from a traced run.
type TrafficMatrix struct {
	p     int
	words []float64 // p×p, row-major [src*p+dst]
}

// Traffic sums the trace's send events into a TrafficMatrix, each rank's
// in program order. A nil trace gives an empty matrix.
func (t *Trace) Traffic() *TrafficMatrix {
	p := t.Ranks()
	tm := &TrafficMatrix{p: p, words: make([]float64, p*p)}
	for r := 0; r < p; r++ {
		for _, e := range t.events[r] {
			if e.Kind == EventSend {
				tm.words[r*p+e.Peer] += e.Words
			}
		}
	}
	return tm
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

// heatmapCells caps the heatmap's cells per axis.
const heatmapCells = 64

// Heatmap renders the matrix as an ASCII density grid (rows = sources,
// columns = destinations; ' ' none, '.' light, '+' medium, '#' heavy,
// scaled to the maximum cell). Past 64 ranks it bins them into 64 groups
// of consecutive ranks per axis, rank r falling in group ⌊64·r/P⌋, and
// each cell sums the words between its two groups, so the grid stays 64
// glyphs wide at any P.
func (t *TrafficMatrix) Heatmap() string {
	n := min(t.p, heatmapCells)
	cells := make([]float64, n*n)
	for s := 0; s < t.p; s++ {
		row := cells[s*n/t.p*n:][:n]
		for d, v := range t.words[s*t.p : (s+1)*t.p] {
			row[d*n/t.p] += v
		}
	}
	max := 0.0
	for _, v := range cells {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	if n < t.p {
		fmt.Fprintf(&b, "traffic heatmap (%d ranks in %d groups per axis, max cell %.4g words)\n", t.p, n, max)
	} else {
		fmt.Fprintf(&b, "traffic heatmap (%d ranks, max cell %.4g words)\n", t.p, max)
	}
	for s := 0; s < n; s++ {
		b.WriteString("|")
		for _, v := range cells[s*n : (s+1)*n] {
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
