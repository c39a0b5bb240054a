package parmm

import (
	"errors"
	"testing"
)

// TestTopologyFacade drives the topology surface end-to-end through the
// public API: parse a fabric, run Algorithm 1 on it, and check the
// topology-aware prediction brackets the flat one.
func TestTopologyFacade(t *testing.T) {
	const n, p = 48, 16
	d := SquareDims(n)
	cfg := MachineConfig{Alpha: 2, Beta: 1, Gamma: 1.0 / 16}
	a := RandomMatrix(n, n, 5)
	b := RandomMatrix(n, n, 6)

	flatRes, err := Alg1(a, b, p, Opts{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	fabric, err := ParseTopology("tree=2x4", p, Link{Alpha: cfg.Alpha, Beta: cfg.Beta})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Alg1(a, b, p, Opts{Config: cfg, Topo: fabric, Place: PlaceContiguous})
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.C.MaxAbsDiff(Mul(a, b)); diff > 1e-9*n {
		t.Fatalf("wrong product on topology: %g", diff)
	}
	if res.Stats.CriticalPath <= flatRes.Stats.CriticalPath {
		t.Fatalf("skinny tree critical path %v not above flat %v",
			res.Stats.CriticalPath, flatRes.Stats.CriticalPath)
	}
	if res.Stats.TotalWordsSent != flatRes.Stats.TotalWordsSent {
		t.Fatalf("topology changed word volume: %v vs %v",
			res.Stats.TotalWordsSent, flatRes.Stats.TotalWordsSent)
	}

	pred, err := PredictAlg1TimeOnTopology(d, res.Grid, cfg, fabric, PlaceContiguous)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Slowdown <= 1 {
		t.Fatalf("tree slowdown = %v, want > 1", pred.Slowdown)
	}
	flat := PredictAlg1Time(d, res.Grid, cfg)
	if pred.FlatTotal != flat.Total() {
		t.Fatalf("flatTotal %v != PredictAlg1Time %v", pred.FlatTotal, flat.Total())
	}

	if len(TopologyKinds()) == 0 {
		t.Fatal("TopologyKinds empty")
	}
}

// TestTopologyFacadeErrors pins the ErrBadTopology taxonomy on the public
// surface.
func TestTopologyFacadeErrors(t *testing.T) {
	if _, err := ParseTopology("hypercube=4", 16, Link{Alpha: 1, Beta: 1}); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("unknown spec: %v", err)
	}
	if _, err := ParseTopology("torus=3x3", 16, Link{Alpha: 1, Beta: 1}); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("size mismatch: %v", err)
	}
	fabric, err := ParseTopology("twolevel=4", 8, Link{Alpha: 1, Beta: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := RandomMatrix(8, 8, 1), RandomMatrix(8, 8, 2)
	if _, err := Alg1(a, b, 4, Opts{Config: BandwidthOnly(), Topo: fabric}); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("rank-count mismatch: %v", err)
	}
	d := SquareDims(8)
	if _, err := PredictAlg1TimeOnTopology(d, Grid{P1: 2, P2: 2, P3: 1}, BandwidthOnly(), fabric, PlaceContiguous); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("prediction grid-size mismatch: %v", err)
	}
	if _, err := PredictAlg1TimeOnTopology(d, Grid{P1: -2, P2: -2, P3: 2}, BandwidthOnly(), fabric, PlaceContiguous); !errors.Is(err, ErrGridMismatch) {
		t.Fatalf("prediction on an invalid grid: %v", err)
	}
	if _, err := PredictAlg1TimeOnTopology(d, Grid{P1: 2, P2: 2, P3: 2}, BandwidthOnly(), fabric, Placement(7)); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("prediction under an unknown placement: %v", err)
	}
}
