package bsp

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/algs"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
)

func TestMachineBasics(t *testing.T) {
	m := New(3, 2, 10)
	s1 := m.Step()
	s1.Send(0, 1, 5)
	s1.Send(2, 1, 3) // proc 1 receives 8: h = 8
	s1.Compute(2, 100)
	s2 := m.Step()
	s2.Send(1, 0, 4)
	c := m.Cost()
	if c.Supersteps != 2 {
		t.Fatalf("supersteps = %d", c.Supersteps)
	}
	if c.HSum != 12 {
		t.Fatalf("HSum = %v, want 12", c.HSum)
	}
	if c.Flops != 100 {
		t.Fatalf("flops = %v", c.Flops)
	}
	if c.Total != 2*12+10*2+100 {
		t.Fatalf("total = %v", c.Total)
	}
	if m.ReceivedTotal(1) != 8 || m.ReceivedTotal(0) != 4 || m.MaxReceivedTotal() != 8 {
		t.Fatal("received accounting wrong")
	}
}

func TestMachinePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 1, 1) },
		func() { New(2, 1, 1).Step().Send(0, 5, 1) },
		func() { New(2, 1, 1).Step().Send(0, 1, -1) },
		func() { New(2, 1, 1).Step().Compute(7, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestFromTraceSupersteps pins the fold's rules on a two-rank run: a send
// opens a superstep and charges both ends, a compute lands in the current
// superstep, a receive opens none, and a new phase label opens one.
func TestFromTraceSupersteps(t *testing.T) {
	w, err := machine.New(2, machine.BandwidthOnly())
	if err != nil {
		t.Fatal(err)
	}
	tr := w.EnableTracing()
	err = w.Run(func(r *machine.Rank) {
		peer := 1 - r.ID()
		r.SetPhase("exchange")
		r.SendRecvInto(peer, peer, 0, make([]float64, 3+r.ID()), make([]float64, 4))
		r.Compute(10)
		r.SendRecvInto(peer, peer, 0, make([]float64, 1), make([]float64, 1))
		r.SetPhase("local")
		r.Compute(float64(100 * (r.ID() + 1)))
	})
	if err != nil {
		t.Fatal(err)
	}
	m := FromTrace(tr, 2, 5)
	want := Cost{Supersteps: 3, HSum: 4 + 1, Flops: 10 + 200}
	want.Total = 2*want.HSum + 5*3 + want.Flops
	if got := m.Cost(); got != want {
		t.Fatalf("cost %+v, want %+v", got, want)
	}
	if m.ReceivedTotal(0) != 5 || m.ReceivedTotal(1) != 4 {
		t.Fatalf("received %v and %v, want 5 and 4", m.ReceivedTotal(0), m.ReceivedTotal(1))
	}
}

// alg1BSP runs Algorithm 1 on grid g with tracing and reads the run as a
// BSP execution with unit gap and zero latency.
func alg1BSP(t *testing.T, d core.Dims, g grid.Grid, alg collective.Algorithm) (Cost, *Machine) {
	t.Helper()
	a := matrix.Random(d.N1, d.N2, 1)
	b := matrix.Random(d.N2, d.N3, 2)
	res, err := algs.Alg1(a, b, g.Size(), algs.Opts{Config: machine.BandwidthOnly(), Grid: g, Collective: alg, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	m := FromTrace(res.Trace, 1, 0)
	return m.Cost(), m
}

// TestAlg1BSPVolumesMatchTheorem3: read as a BSP execution, Algorithm 1
// moves exactly the Theorem 3 volume per processor — the bounds are
// model-robust — in all three cases, for both collective families.
func TestAlg1BSPVolumesMatchTheorem3(t *testing.T) {
	d := core.NewDims(768, 192, 48)
	for _, p := range []int{2, 3, 4, 16, 36, 64, 512} {
		g, err := grid.CaseGrid(d, p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		for _, alg := range []collective.Algorithm{collective.Ring, collective.Auto} {
			_, m := alg1BSP(t, d, g, alg)
			got := m.MaxReceivedTotal()
			want := core.LowerBound(d, p)
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Errorf("P=%d alg=%v: BSP volume %v, bound %v", p, alg, got, want)
			}
		}
	}
}

// TestAlg1BSPHRelations: with balanced fibers the per-superstep h-relation
// equals what any single processor sends, so HSum equals the per-processor
// volume as well.
func TestAlg1BSPHRelations(t *testing.T) {
	d := core.NewDims(768, 192, 48)
	g, _ := grid.CaseGrid(d, 512)
	cost, m := alg1BSP(t, d, g, collective.Auto)
	if math.Abs(cost.HSum-m.MaxReceivedTotal()) > 1e-9 {
		t.Fatalf("HSum %v != max received %v (balanced schedule)", cost.HSum, m.MaxReceivedTotal())
	}
	// Superstep count: log2 of each fiber + 1 compute step.
	log2 := func(n int) int { return bits.Len(uint(n)) - 1 }
	want := log2(g.P3) + log2(g.P1) + log2(g.P2) + 1
	if cost.Supersteps != want {
		t.Fatalf("supersteps = %d, want %d", cost.Supersteps, want)
	}
}

func TestAlg1BSPRingMoreSupersteps(t *testing.T) {
	d := core.Square(64)
	g := grid.Grid{P1: 4, P2: 4, P3: 4}
	rec, _ := alg1BSP(t, d, g, collective.Recursive)
	ring, _ := alg1BSP(t, d, g, collective.Ring)
	if rec.Supersteps != 3*2+1 || ring.Supersteps != 3*3+1 {
		t.Fatalf("ring %d supersteps, recursive %d; want 10 and 7", ring.Supersteps, rec.Supersteps)
	}
	if math.Abs(ring.HSum-rec.HSum) > 1e-9 {
		t.Fatalf("bandwidth differs: ring %v recursive %v", ring.HSum, rec.HSum)
	}
}

// TestBSPComputeBalance: the computation superstep charges the largest
// brick, not the average mnk/P. On 97×36×61 over a 2×1×1 grid the
// bricks hold 49 and 48 rows, and no Reduce-Scatter adds flops.
func TestBSPComputeBalance(t *testing.T) {
	d := core.NewDims(97, 36, 61)
	cost, _ := alg1BSP(t, d, grid.Grid{P1: 2, P2: 1, P3: 1}, collective.Auto)
	if want := 49.0 * 36 * 61; cost.Flops != want {
		t.Fatalf("flops %v, want the larger brick's %v (the average is %v)", cost.Flops, want, d.Flops()/2)
	}
}

// TestLPRAMTightness: in the LPRAM model the bound is the full D and
// Algorithm 1 attains it with the §5.2 grid — tightening Aggarwal et
// al.'s (1/2)^{2/3} constant to the paper's 3 in the cubic case.
func TestLPRAMTightness(t *testing.T) {
	d := core.NewDims(9600, 2400, 600)
	for _, p := range []int{3, 36, 512} {
		g, err := grid.CaseGrid(d, p)
		if err != nil {
			t.Fatal(err)
		}
		got := LPRAMAlg1Cost(d, g)
		want := LPRAMLowerBound(d, p)
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("P=%d: LPRAM cost %v, bound %v", p, got, want)
		}
	}
	// The LPRAM bound exceeds the distributed bound by the owned-data term.
	if LPRAMLowerBound(d, 512) <= core.LowerBound(d, 512) {
		t.Error("LPRAM bound should exceed the distributed bound")
	}
}
