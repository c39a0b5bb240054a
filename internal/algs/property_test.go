package algs

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
)

// TestAlg1PropertyRandomShapes drives Alg1 over random shapes, processor
// counts, and cost models: the product always matches the serial reference
// and the communication never beats Theorem 3.
func TestAlg1PropertyRandomShapes(t *testing.T) {
	f := func(n1Raw, n2Raw, n3Raw, pRaw, seedRaw uint8) bool {
		n1 := int(n1Raw%14) + 1
		n2 := int(n2Raw%14) + 1
		n3 := int(n3Raw%14) + 1
		p := int(pRaw%12) + 1
		d := core.NewDims(n1, n2, n3)
		a := matrix.Random(n1, n2, uint64(seedRaw))
		b := matrix.Random(n2, n3, uint64(seedRaw)+1)
		res, err := Alg1(a, b, p, Opts{Config: machine.BandwidthOnly()})
		if err != nil {
			// Only acceptable failure: the optimal grid exceeds a tiny
			// dimension (P larger than the iteration space allows).
			return p > n1 || p > n2 || p > n3 || p > n1*n2*n3
		}
		if !res.C.Equal(matrix.Mul(a, b), 1e-9*float64(n2+1)) {
			return false
		}
		return res.CommCost() >= core.LowerBound(d, p)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestAllAlgorithmsAgreeProperty cross-checks every applicable algorithm
// against each other on a shared random instance.
func TestAllAlgorithmsAgreeProperty(t *testing.T) {
	f := func(seedRaw uint8) bool {
		n := 12
		p := 4
		a := matrix.Random(n, n, uint64(seedRaw)*3+1)
		b := matrix.Random(n, n, uint64(seedRaw)*3+2)
		var first *matrix.Dense
		for _, e := range Registry() {
			res, err := e.Run(a, b, p, Opts{Config: machine.BandwidthOnly()})
			if err != nil {
				return false
			}
			if first == nil {
				first = res.C
			} else if !res.C.Equal(first, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestOptimal3DFamilyMatchesEquation3 checks that the Optimal3D-flagged
// algorithms measure exactly the eq.(3) volume of their grid when every
// block divides its fiber.
func TestOptimal3DFamilyMatchesEquation3(t *testing.T) {
	d := core.NewDims(32, 16, 8)
	p := 16
	a := matrix.Random(d.N1, d.N2, 5)
	b := matrix.Random(d.N2, d.N3, 6)
	for _, e := range Registry() {
		if !e.Optimal3D {
			continue
		}
		res, err := e.Run(a, b, p, Opts{Config: machine.BandwidthOnly()})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		want := 0.0
		// eq.(3) via the grid actually used by the run.
		g := res.Grid
		want = d.SizeA()/float64(g.P1*g.P2)*frac(g.P3) +
			d.SizeB()/float64(g.P2*g.P3)*frac(g.P1) +
			d.SizeC()/float64(g.P1*g.P3)*frac(g.P2)
		if math.Abs(res.CommCost()-want) > 1e-9 {
			t.Errorf("%s grid %v: measured %v, eq.(3) %v", e.Name, g, res.CommCost(), want)
		}
	}
}

func frac(p int) float64 {
	if p <= 1 {
		return 0
	}
	return 1 - 1/float64(p)
}

// FuzzAlg1Tightness holds §5.2's tightness claim as a property. On every
// grid that divides the dimensions and whose blocks split evenly over their
// fibers, Algorithm 1's simulated per-rank words equal eq. (3)
// (grid.CommCost) exactly and are at least Theorem 3's bound; on
// grid.CaseGrid's grid they also equal the bound, within E6's tolerance.
// The seeds are E6's shape at one P per Theorem 3 case.
func FuzzAlg1Tightness(f *testing.F) {
	for _, p := range []uint16{3, 16, 512} {
		f.Add(uint16(768), uint16(192), uint16(48), p, uint8(0))
	}
	f.Fuzz(func(t *testing.T, n1, n2, n3, pRaw uint16, pick uint8) {
		d := core.NewDims(int(n1), int(n2), int(n3))
		p := int(pRaw)
		// E6's shape bounds the simulated work and memory of one input.
		if d.Validate() != nil || p < 1 || p > 512 || d.Flops() > 768*192*48 {
			t.Skip("outside the simulated range")
		}
		var even []grid.Grid
		for p1 := 1; p1 <= p; p1++ {
			for p2 := 1; p1*p2 <= p; p2++ {
				g := grid.Grid{P1: p1, P2: p2, P3: p / (p1 * p2)}
				if g.Size() == p && splitsEvenly(d, g) {
					even = append(even, g)
				}
			}
		}
		if len(even) == 0 {
			t.Skip("no grid splits the blocks evenly")
		}
		a := matrix.Random(d.N1, d.N2, 1)
		b := matrix.Random(d.N2, d.N3, 2)
		bound := core.LowerBound(d, p)
		words := func(g grid.Grid) float64 {
			res, err := Alg1(a, b, p, Opts{Config: machine.BandwidthOnly(), Grid: g})
			if err != nil {
				t.Fatalf("%v on grid %v: %v", d, g, err)
			}
			got := res.CommCost()
			if want := grid.CommCost(d, g); got != want {
				t.Fatalf("%v P=%d grid %v: simulated %v words, eq. (3) %v", d, p, g, got, want)
			}
			if got < bound-1e-9*(1+bound) {
				t.Fatalf("%v P=%d grid %v: simulated %v words beat the bound %v", d, p, g, got, bound)
			}
			return got
		}
		g := even[int(pick)%len(even)]
		words(g)
		if cg, err := grid.CaseGrid(d, p); err == nil && splitsEvenly(d, cg) {
			got := words(cg)
			if math.Abs(got-bound) > 1e-9*(1+bound) {
				t.Fatalf("%v P=%d case grid %v: simulated %v words, bound %v", d, p, cg, got, bound)
			}
		}
	})
}

// splitsEvenly reports whether g divides d and every rank's share of the
// A, B and C blocks over its fiber is whole: the conditions under which
// Algorithm 1 moves exactly eq. (3)'s words.
func splitsEvenly(d core.Dims, g grid.Grid) bool {
	if !grid.Divides(d, g) {
		return false
	}
	a := d.N1 / g.P1 * (d.N2 / g.P2)
	b := d.N2 / g.P2 * (d.N3 / g.P3)
	c := d.N1 / g.P1 * (d.N3 / g.P3)
	return a%g.P3 == 0 && b%g.P1 == 0 && c%g.P2 == 0
}
