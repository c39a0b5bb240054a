package topo

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

func mustNetwork(t *testing.T, spec string, p int, pol Policy) *Network {
	t.Helper()
	topo, err := Parse(spec, p, testLink)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(topo, pol)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFlatChargeIsExactBase pins the bit-identity contract: on a Flat
// network every pair charges exactly the base link's (α, β), so the
// simulator's a + b·w arithmetic is indistinguishable from the scalar
// cfg.Alpha + cfg.Beta·w path.
func TestFlatChargeIsExactBase(t *testing.T) {
	n := mustNetwork(t, "flat", 16, Contiguous)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			a, b := n.Charge(s, d)
			if a != testLink.Alpha || b != testLink.Beta {
				t.Fatalf("flat Charge(%d, %d) = (%v, %v), want exactly (%v, %v)", s, d, a, b, testLink.Alpha, testLink.Beta)
			}
		}
	}
	// Flat takes the uniform path at any size — its p² link ids are never
	// materialized.
	big, err := NewNetwork(NewFlat(1<<16, testLink), Contiguous)
	if err != nil {
		t.Fatalf("flat at 65536 ranks: %v", err)
	}
	if a, b := big.Charge(3, 9); a != testLink.Alpha || b != testLink.Beta {
		t.Errorf("large flat Charge = (%v, %v)", a, b)
	}
}

// TestTwoLevelCharges checks the NIC-sharing math: an intra-node pair pays
// the dedicated link, an inter-node pair pays two latencies and the NIC
// oversubscription factor χ = g(p−g)/(p−1) on bandwidth.
func TestTwoLevelCharges(t *testing.T) {
	const p, g = 64, 8
	n := mustNetwork(t, "twolevel=8", p, Contiguous)

	a, b := n.Charge(1, 3) // same node
	if a != testLink.Alpha || b != testLink.Beta {
		t.Errorf("intra-node Charge = (%v, %v), want (%v, %v)", a, b, testLink.Alpha, testLink.Beta)
	}

	a, b = n.Charge(1, 60)                     // different nodes
	wantChi := float64(g*(p-g)) / float64(p-1) // 448/63 ≈ 7.11
	if a != 2*testLink.Alpha {
		t.Errorf("inter-node latency = %v, want %v", a, 2*testLink.Alpha)
	}
	if math.Abs(b-testLink.Beta*wantChi) > 1e-12 {
		t.Errorf("inter-node bandwidth = %v, want β·χ = %v", b, testLink.Beta*wantChi)
	}
}

// TestTorusChargeSymmetry checks torus charges are symmetric under rank
// swap (minimal ring routes have equal length both ways) and latency grows
// with hop count.
func TestTorusChargeSymmetry(t *testing.T) {
	n := mustNetwork(t, "torus=4x4x4", 64, Contiguous)
	for s := 0; s < 64; s += 3 {
		for d := 0; d < 64; d += 5 {
			if s == d {
				continue
			}
			a1, _ := n.Charge(s, d)
			a2, _ := n.Charge(d, s)
			if a1 != a2 {
				t.Fatalf("torus latency asymmetric: %d↔%d gives %v vs %v", s, d, a1, a2)
			}
		}
	}
	near, _ := n.Charge(0, 1) // one hop
	far, _ := n.Charge(0, 42) // multi-hop
	if near >= far {
		t.Errorf("one-hop latency %v not below multi-hop %v", near, far)
	}
}

// TestNetworkUnknownPolicy checks a placement policy outside the enum is
// rejected.
func TestNetworkUnknownPolicy(t *testing.T) {
	if _, err := NewNetwork(NewFlat(8, testLink), Policy(7)); !errors.Is(err, core.ErrBadTopology) {
		t.Errorf("unknown policy = %v, want ErrBadTopology", err)
	}
}

// TestCongestFlatIsUncontended checks the Alg1 phase analysis reports χ = 1
// on the paper's dedicated-link model for every phase.
func TestCongestFlatIsUncontended(t *testing.T) {
	g := grid.Grid{P1: 4, P2: 4, P3: 4}
	n, err := NewNetwork(NewFlat(64, testLink), Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Congest(g, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("want 3 phases, got %d", len(rep.Phases))
	}
	for _, ph := range rep.Phases {
		if ph.MaxChi != 1 {
			t.Errorf("flat %s MaxChi = %v, want 1", ph.Phase, ph.MaxChi)
		}
		if ph.MaxLinkLoad != 1 {
			t.Errorf("flat %s MaxLinkLoad = %d, want 1", ph.Phase, ph.MaxLinkLoad)
		}
		if ph.Flows != 64*3 { // 16 fibers × 4·3 ordered pairs
			t.Errorf("flat %s Flows = %d, want 192", ph.Phase, ph.Flows)
		}
	}
	if rep.MaxChi() != 1 {
		t.Errorf("report MaxChi = %v, want 1", rep.MaxChi())
	}
}

// TestCongestPlacementMatters checks the headline phenomenon behind
// experiment E17: on a node/NIC cluster, scattering the grid's innermost
// fibers across nodes (round-robin) congests the NICs that a contiguous
// embedding keeps idle.
func TestCongestPlacementMatters(t *testing.T) {
	g := grid.Grid{P1: 4, P2: 4, P3: 4}
	topo, err := Parse("twolevel=8", 64, testLink)
	if err != nil {
		t.Fatal(err)
	}
	report := func(pol Policy) CongestionReport {
		n, err := NewNetwork(topo, pol)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Congest(g, n)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cont, rr := report(Contiguous), report(RoundRobin)
	// Contiguous keeps each Axis3 fiber (4 consecutive ranks) inside one
	// 8-rank node: the A All-Gather runs on dedicated intra links.
	if got := cont.Phases[0].MaxChi; got != 1 {
		t.Errorf("contiguous allgather-A MaxChi = %v, want 1", got)
	}
	// Round-robin scatters every Axis3 fiber across nodes; each NIC uplink
	// then carries 8 endpoints × 3 partners = 24 flows for fan-in 3.
	if got := rr.Phases[0].MaxChi; got != 8 {
		t.Errorf("roundrobin allgather-A MaxChi = %v, want 8", got)
	}
	// Round-robin on this shape is a transpose of the node×slot matrix: it
	// trades the A phase's locality for the B phase's (allgather-B becomes
	// node-local), so the congestion moves to whichever phase carries the
	// most words — the lever experiment E17 measures.
	if got := rr.Phases[1].MaxChi; got != 1 {
		t.Errorf("roundrobin allgather-B MaxChi = %v, want 1 (fiber becomes node-local)", got)
	}
	if got := cont.Phases[1].MaxChi; got <= 1 {
		t.Errorf("contiguous allgather-B MaxChi = %v, want > 1 (fiber spans nodes)", got)
	}
}

// TestCongestSizeMismatch checks disagreeing sizes wrap core.ErrBadTopology.
func TestCongestSizeMismatch(t *testing.T) {
	g := grid.Grid{P1: 2, P2: 2, P3: 2}
	n, err := NewNetwork(NewFlat(16, testLink), Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Congest(g, n); !errors.Is(err, core.ErrBadTopology) {
		t.Errorf("Congest size mismatch = %v, want ErrBadTopology", err)
	}
}
