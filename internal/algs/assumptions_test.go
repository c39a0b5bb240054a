package algs

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matrix"
)

// testWorld creates a BandwidthOnly world of p ranks, failing the test on
// construction errors.
func testWorld(t *testing.T, p int) *machine.World {
	t.Helper()
	w, err := machine.New(p, machine.BandwidthOnly())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestOneCopyAssumptionNecessity demonstrates why Theorem 3 assumes the
// inputs start as ONE copy: if B is fully replicated on every processor
// before the algorithm begins, the block-row algorithm communicates zero
// words — far below the bound — so the bound genuinely depends on the
// starting distribution, not just on the computation.
func TestOneCopyAssumptionNecessity(t *testing.T) {
	n1, n2, n3, p := 16, 8, 8, 4
	d := core.NewDims(n1, n2, n3)
	a := matrix.Random(n1, n2, 1)
	b := matrix.Random(n2, n3, 2)
	want := matrix.Mul(a, b)

	w := testWorld(t, p)
	bands := make([][]float64, p)
	err := w.Run(func(r *machine.Rank) {
		// Cheating start: every rank already holds all of B (P copies in
		// the machine) plus its row band of A.
		r0, h := blockRange(n1, p, r.ID())
		aBand := a.View(r0, 0, h, n2).Clone()
		cBand := localMul(r, aBand, b)
		bands[r.ID()] = cBand.Pack()
	})
	if err != nil {
		t.Fatal(err)
	}
	c := matrix.New(n1, n3)
	for i := 0; i < p; i++ {
		r0, h := blockRange(n1, p, i)
		c.View(r0, 0, h, n3).Unpack(bands[i])
	}
	if !c.Equal(want, 1e-9) {
		t.Fatal("replicated-input run produced a wrong product")
	}
	if got := w.Stats().CommCost(); got != 0 {
		t.Fatalf("replicated-input run communicated %v words", got)
	}
	if bound := core.LowerBound(d, p); bound <= 0 {
		t.Fatalf("bound should be positive here, got %v", bound)
	}
	// With a legal one-copy start, the same 1D schedule must pay ≥ bound.
	res, err := OneD(a, b, p, Opts{Config: machine.BandwidthOnly()})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommCost() < core.LowerBound(d, p)-1e-9 {
		t.Fatalf("one-copy run beat the bound: %v < %v", res.CommCost(), core.LowerBound(d, p))
	}
}

// TestLoadBalanceAssumptionNecessity shows the other hypothesis at work:
// an algorithm that assigns ALL computation and data to one processor
// communicates nothing — it is neither computation- nor data-balanced, so
// Theorem 3 is silent about it.
func TestLoadBalanceAssumptionNecessity(t *testing.T) {
	n, p := 8, 4
	a := matrix.Random(n, n, 3)
	b := matrix.Random(n, n, 4)
	w := testWorld(t, p)
	var c *matrix.Dense
	err := w.Run(func(r *machine.Rank) {
		if r.ID() == 0 {
			c = localMul(r, a, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().CommCost(); got != 0 {
		t.Fatalf("degenerate run communicated %v words", got)
	}
	if !c.Equal(matrix.Mul(a, b), 1e-9) {
		t.Fatal("degenerate run wrong")
	}
	if core.LowerBound(core.Square(n), p) <= 0 {
		t.Fatal("bound should be positive for balanced algorithms")
	}
}

// TestCollectiveChoiceDoesNotAffectVolume pins a §5.1 assumption: the
// collective implementation family changes latency, never the bandwidth
// that Theorem 3 constrains.
func TestCollectiveChoiceDoesNotAffectVolume(t *testing.T) {
	a := matrix.Random(32, 32, 5)
	b := matrix.Random(32, 32, 6)
	var vols []float64
	for _, alg := range []collective.Algorithm{collective.Ring, collective.Recursive, collective.Auto} {
		res, err := Alg1(a, b, 8, Opts{Config: machine.BandwidthOnly(), Collective: alg})
		if err != nil {
			t.Fatal(err)
		}
		vols = append(vols, res.CommCost())
	}
	if vols[0] != vols[1] || vols[1] != vols[2] {
		t.Fatalf("collective family changed the volume: %v", vols)
	}
}
