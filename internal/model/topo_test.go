package model

import (
	"errors"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/topo"
)

func testNetwork(t *testing.T, spec string, p int, cfg machine.Config, pol topo.Policy) *topo.Network {
	t.Helper()
	fabric, err := topo.Parse(spec, p, topo.Link{Alpha: cfg.Alpha, Beta: cfg.Beta})
	if err != nil {
		t.Fatal(err)
	}
	net, err := topo.NewNetwork(fabric, pol)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestAlg1TimeTopoFlatCollapses pins the consistency contract: on the Flat
// network the topology-aware prediction equals the closed-form Alg1Time in
// every component — the same floats, since the worst pair charge is exactly
// (cfg.Alpha, cfg.Beta).
func TestAlg1TimeTopoFlatCollapses(t *testing.T) {
	d := core.NewDims(64, 64, 64)
	g := grid.Grid{P1: 4, P2: 4, P3: 4}
	cfg := machine.Config{Alpha: 2, Beta: 1, Gamma: 1.0 / 16}
	net := testNetwork(t, "flat", 64, cfg, topo.Contiguous)
	for _, alg := range []collective.Algorithm{collective.Auto, collective.Ring, collective.Recursive} {
		want := Alg1Time(d, g, cfg, alg)
		got, err := Alg1TimeTopo(d, g, cfg, alg, net)
		if err != nil {
			t.Fatal(err)
		}
		if got.Prediction != want {
			t.Errorf("alg %v: flat topo prediction %+v, want %+v", alg, got.Prediction, want)
		}
		if got.Slowdown != 1 {
			t.Errorf("alg %v: flat slowdown = %v, want 1", alg, got.Slowdown)
		}
		if got.FlatTotal != want.Total() {
			t.Errorf("alg %v: FlatTotal = %v, want %v", alg, got.FlatTotal, want.Total())
		}
	}
}

// TestAlg1TimeTopoCongestionSlows checks a shared-NIC cluster predicts a
// strictly slower run than the paper's model, with compute untouched.
func TestAlg1TimeTopoCongestionSlows(t *testing.T) {
	d := core.NewDims(64, 64, 64)
	g := grid.Grid{P1: 4, P2: 4, P3: 4}
	cfg := machine.Config{Alpha: 2, Beta: 1, Gamma: 1.0 / 16}
	net := testNetwork(t, "twolevel=8", 64, cfg, topo.Contiguous)
	got, err := Alg1TimeTopo(d, g, cfg, collective.Auto, net)
	if err != nil {
		t.Fatal(err)
	}
	flat := Alg1Time(d, g, cfg, collective.Auto)
	if got.Slowdown <= 1 {
		t.Errorf("twolevel slowdown = %v, want > 1", got.Slowdown)
	}
	if got.Compute != flat.Compute {
		t.Errorf("topology changed compute: %v vs %v", got.Compute, flat.Compute)
	}
	if got.Bandwidth <= flat.Bandwidth {
		t.Errorf("congested bandwidth %v not above flat %v", got.Bandwidth, flat.Bandwidth)
	}
}

// TestAlg1TimeTopoSizeMismatch checks grid/network disagreement errors.
func TestAlg1TimeTopoSizeMismatch(t *testing.T) {
	cfg := machine.BandwidthOnly()
	net := testNetwork(t, "flat", 8, cfg, topo.Contiguous)
	_, err := Alg1TimeTopo(core.NewDims(8, 8, 8), grid.Grid{P1: 2, P2: 2, P3: 4}, cfg, collective.Auto, net)
	if !errors.Is(err, core.ErrBadTopology) {
		t.Errorf("mismatch = %v, want ErrBadTopology", err)
	}
}
