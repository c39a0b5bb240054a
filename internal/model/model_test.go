package model

import (
	"math"
	"testing"

	"repro/internal/algs"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
)

// TestPredictionMatchesSimulation ties the analytic cost model to the
// simulator: on conforming configurations (dividing grids and shares),
// Alg1Time equals the simulated critical path to machine precision, for
// both collective families and several cost models.
func TestPredictionMatchesSimulation(t *testing.T) {
	cases := []struct {
		d   core.Dims
		g   grid.Grid
		cfg machine.Config
		alg collective.Algorithm
	}{
		{core.NewDims(768, 192, 48), grid.Grid{P1: 32, P2: 8, P3: 2}, machine.BandwidthOnly(), collective.Recursive},
		{core.NewDims(768, 192, 48), grid.Grid{P1: 32, P2: 8, P3: 2}, machine.Config{Alpha: 5, Beta: 2, Gamma: 0.25}, collective.Recursive},
		{core.NewDims(768, 192, 48), grid.Grid{P1: 12, P2: 3, P3: 1}, machine.Config{Alpha: 1, Beta: 1, Gamma: 0.01}, collective.Ring},
		{core.Square(48), grid.Grid{P1: 4, P2: 4, P3: 4}, machine.Config{Alpha: 3, Beta: 1.5, Gamma: 0.125}, collective.Recursive},
		{core.Square(48), grid.Grid{P1: 2, P2: 2, P3: 2}, machine.Config{Alpha: 0.5, Beta: 1, Gamma: 0}, collective.Ring},
	}
	for _, c := range cases {
		a := matrix.Random(c.d.N1, c.d.N2, 1)
		b := matrix.Random(c.d.N2, c.d.N3, 2)
		res, err := algs.Alg1(a, b, c.g.Size(), algs.Opts{Config: c.cfg, Grid: c.g, Collective: c.alg})
		if err != nil {
			t.Fatalf("%v %v: %v", c.d, c.g, err)
		}
		pred := Alg1Time(c.d, c.g, c.cfg, c.alg)
		if rel := math.Abs(pred.Total()-res.Stats.CriticalPath) / (1 + res.Stats.CriticalPath); rel > 1e-9 {
			t.Errorf("%v grid %v cfg %+v %v: predicted %v, simulated %v",
				c.d, c.g, c.cfg, c.alg, pred.Total(), res.Stats.CriticalPath)
		}
		if math.Abs(pred.Words-res.CommCost()) > 1e-9*(1+pred.Words) {
			t.Errorf("%v grid %v: predicted %v words, measured %v", c.d, c.g, pred.Words, res.CommCost())
		}
	}
}

func TestPredictionDecomposition(t *testing.T) {
	d := core.Square(64)
	g := grid.Grid{P1: 4, P2: 4, P3: 4}
	cfg := machine.Config{Alpha: 2, Beta: 3, Gamma: 5}
	pred := Alg1Time(d, g, cfg, collective.Recursive)
	if pred.Total() != pred.Compute+pred.Bandwidth+pred.Latency {
		t.Fatal("Total != sum of parts")
	}
	// Bandwidth = β × Theorem 3 bound (cubic grid attains it).
	if want := cfg.Beta * core.LowerBound(d, 64); math.Abs(pred.Bandwidth-want) > 1e-9 {
		t.Fatalf("bandwidth %v, want %v", pred.Bandwidth, want)
	}
	// Messages: 3 collectives × log2(4) steps.
	if pred.Messages != 6 {
		t.Fatalf("messages = %v, want 6", pred.Messages)
	}
	if pred.String() == "" {
		t.Fatal("empty String")
	}
}

func TestCollectiveSteps(t *testing.T) {
	if collectiveSteps(1, collective.Ring) != 0 {
		t.Fatal("singleton should cost nothing")
	}
	if collectiveSteps(8, collective.Ring) != 7 {
		t.Fatal("ring steps")
	}
	if collectiveSteps(8, collective.Auto) != 3 || collectiveSteps(8, collective.Recursive) != 3 {
		t.Fatal("recursive steps")
	}
	if collectiveSteps(6, collective.Auto) != 5 {
		t.Fatal("auto on non-power-of-two should be ring")
	}
	// Recursive on a non-power-of-two group is refused, as the
	// collectives refuse it, rather than priced at a fractional log₂ p.
	defer func() {
		if recover() == nil {
			t.Fatal("Recursive on 6 ranks priced instead of refused")
		}
	}()
	collectiveSteps(6, collective.Recursive)
}

func TestSpeedupMonotoneThenSaturating(t *testing.T) {
	d := core.Square(512)
	cfg := machine.Config{Alpha: 0, Beta: 1, Gamma: 1}
	ps := []int{1, 8, 64, 512, 4096}
	sp := Speedup(d, cfg, ps)
	if sp[0] < 0.99 || sp[0] > 1.01 {
		t.Fatalf("speedup at P=1 is %v", sp[0])
	}
	for i := 1; i < len(sp); i++ {
		if sp[i] < sp[i-1]*0.99 {
			t.Fatalf("speedup decreased: %v", sp)
		}
	}
	// Efficiency decays once communication matters.
	eff := Efficiency(d, cfg, ps)
	if eff[len(eff)-1] >= eff[0] {
		t.Fatalf("efficiency did not decay: %v", eff)
	}
}

func TestCommBoundProcessors(t *testing.T) {
	d := core.Square(1024)
	cfg := machine.Config{Beta: 1, Gamma: 1}
	pStar := CommBoundProcessors(d, cfg)
	// γ=β: P* = mnk/27.
	if want := d.Flops() / 27; math.Abs(pStar-want) > 1e-6*want {
		t.Fatalf("P* = %v, want %v", pStar, want)
	}
	if !math.IsInf(CommBoundProcessors(d, machine.Config{Gamma: 1}), 1) {
		t.Fatal("zero beta should give infinite P*")
	}
	// At P ≪ P*, compute dominates; at P ≫ P*, bandwidth dominates.
	small := Alg1Time(d, grid.Optimal(d, 8), cfg, collective.Auto)
	if small.Compute < small.Bandwidth {
		t.Fatalf("compute should dominate at small P: %+v", small)
	}
}

// Speedup returns SerialTime / Alg1Time on the optimal grid for each P.
func Speedup(d core.Dims, cfg machine.Config, ps []int) []float64 {
	out := make([]float64, len(ps))
	serial := SerialTime(d, cfg)
	for i, p := range ps {
		g := grid.Optimal(d, p)
		t := Alg1Time(d, g, cfg, collective.Auto).Total()
		if t > 0 {
			out[i] = serial / t
		} else {
			out[i] = 1
		}
	}
	return out
}

// Efficiency returns Speedup/P for each P.
func Efficiency(d core.Dims, cfg machine.Config, ps []int) []float64 {
	sp := Speedup(d, cfg, ps)
	for i, p := range ps {
		sp[i] /= float64(p)
	}
	return sp
}
