package algs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/matrix"
)

// TestAlg1TrafficStaysOnFibers inspects the full traffic matrix of an
// Algorithm 1 run: every message travels within one of the three grid
// fibers through its endpoints, so the active communication pairs are a
// small subset of the P(P−1) possible — the locality structure Figure 1
// depicts with its three arrows.
func TestAlg1TrafficStaysOnFibers(t *testing.T) {
	d := core.Square(24)
	p := 27
	g, err := grid.CaseGrid(d, p)
	if err != nil {
		t.Fatal(err)
	}
	opts := bwOpts()
	opts.Grid = g
	opts.Trace = true
	res, err := Alg1(matrix.Random(24, 24, 1), matrix.Random(24, 24, 2), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Trace.Traffic()

	sameFiber := func(x, y int) bool {
		x1, x2, x3 := g.Coords(x)
		y1, y2, y3 := g.Coords(y)
		same := 0
		if x1 == y1 {
			same++
		}
		if x2 == y2 {
			same++
		}
		if x3 == y3 {
			same++
		}
		return same >= 2 // differ in at most one grid coordinate
	}
	active := 0
	for s := 0; s < p; s++ {
		for dst := 0; dst < p; dst++ {
			if tm.Words(s, dst) == 0 {
				continue
			}
			active++
			if !sameFiber(s, dst) {
				t.Fatalf("off-fiber message %d→%d (%v words)", s, dst, tm.Words(s, dst))
			}
		}
	}
	if active == 0 || active >= p*(p-1) {
		t.Fatalf("active pairs = %d of %d", active, p*(p-1))
	}
	if tm.ActivePairs() != active {
		t.Fatalf("ActivePairs %d != counted %d", tm.ActivePairs(), active)
	}
}

// TestTrafficEveryAlgorithm traces every registry algorithm: the traffic
// matrix its trace sums must have row src sum to the words rank src sent,
// and its cells sum to the run's total.
func TestTrafficEveryAlgorithm(t *testing.T) {
	const p = 4
	a := matrix.Random(16, 16, 1)
	b := matrix.Random(16, 16, 2)
	opts := bwOpts()
	opts.Trace = true
	for _, e := range Registry() {
		res, err := e.Run(a, b, p, opts)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if res.Trace == nil {
			t.Errorf("%s: Opts.Trace set but Result.Trace is nil", e.Name)
			continue
		}
		tm := res.Trace.Traffic()
		total := 0.0
		for src := 0; src < p; src++ {
			row := 0.0
			for dst := 0; dst < p; dst++ {
				row += tm.Words(src, dst)
			}
			if row != res.Stats.Ranks[src].WordsSent {
				t.Errorf("%s: rank %d row sums to %v words, rank sent %v", e.Name, src, row, res.Stats.Ranks[src].WordsSent)
			}
			total += row
		}
		if total != res.Stats.TotalWordsSent || total == 0 {
			t.Errorf("%s: traffic cells sum to %v words, run sent %v", e.Name, total, res.Stats.TotalWordsSent)
		}
	}
}
