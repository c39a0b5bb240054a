package topo

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// divisorTriples enumerates every ordered (p1, p2, p3) with p1·p2·p3 = p.
func divisorTriples(p int) []grid.Grid {
	var out []grid.Grid
	for p1 := 1; p1 <= p; p1++ {
		if p%p1 != 0 {
			continue
		}
		q := p / p1
		for p2 := 1; p2 <= q; p2++ {
			if q%p2 == 0 {
				out = append(out, grid.Grid{P1: p1, P2: p2, P3: q / p2})
			}
		}
	}
	return out
}

// smallestDivisor returns the smallest divisor of p greater than 1, or 1.
func smallestDivisor(p int) int {
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			return d
		}
	}
	if p > 1 {
		return p
	}
	return 1
}

// TestPlacementBijection is the property test of the placement mapper:
// for every P ≤ 512, every policy on every applicable topology — each
// divisor triple's shape doubling as a torus — yields a permutation of the
// ranks: no grid cell is dropped or doubled on the fabric.
func TestPlacementBijection(t *testing.T) {
	for p := 1; p <= 512; p++ {
		topos := []Topology{NewFlat(p, testLink)}
		if g := smallestDivisor(p); g > 1 && g < p {
			topos = append(topos, NewTwoLevel(p/g, g, testLink))
		}
		for _, g := range divisorTriples(p) {
			torus, err := NewTorus([]int{g.P1, g.P2, g.P3}, testLink)
			if err != nil {
				t.Fatalf("P=%d torus %v: %v", p, g, err)
			}
			topos = append(topos, torus)
		}
		for _, topo := range topos {
			for _, pol := range []Policy{Contiguous, RoundRobin} {
				pl, err := placeRanks(topo, pol)
				if err != nil {
					t.Fatalf("placeRanks(%s, %v) at P=%d: %v", topo.Name(), pol, p, err)
				}
				if len(pl.ToEndpoint) != p {
					t.Fatalf("placeRanks(%s, %v): %d entries, want %d", topo.Name(), pol, len(pl.ToEndpoint), p)
				}
				seen := make([]bool, p)
				for r, e := range pl.ToEndpoint {
					if e < 0 || e >= p || seen[e] {
						t.Fatalf("placeRanks(%s, %v) at P=%d: rank %d → endpoint %d is out of range or duplicated", topo.Name(), pol, p, r, e)
					}
					seen[e] = true
				}
			}
		}
	}
}

// TestPlaceRanksContiguousIsIdentity pins the contiguous embedding: rank i
// sits on endpoint i, so Flat + contiguous is exactly the paper's machine.
func TestPlaceRanksContiguousIsIdentity(t *testing.T) {
	pl, err := placeRanks(NewFlat(16, testLink), Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range pl.ToEndpoint {
		if e != i {
			t.Fatalf("contiguous placement moved rank %d to endpoint %d", i, e)
		}
	}
}

// TestPlaceRanksRoundRobinScatters checks round-robin deals consecutive
// ranks onto distinct locality units.
func TestPlaceRanksRoundRobinScatters(t *testing.T) {
	topo := NewTwoLevel(8, 8, testLink) // 64 ranks, nodes of 8
	pl, err := placeRanks(topo, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		a, b := pl.ToEndpoint[i]/8, pl.ToEndpoint[i+1]/8
		if a == b {
			t.Fatalf("round-robin put consecutive ranks %d, %d on the same node %d", i, i+1, a)
		}
	}
}

// TestParsePolicy covers the placement-name parser.
func TestParsePolicy(t *testing.T) {
	for spec, want := range map[string]Policy{
		"": Contiguous, "contiguous": Contiguous, "contig": Contiguous,
		"roundrobin": RoundRobin, "RR": RoundRobin, " RoundRobin ": RoundRobin,
	} {
		got, err := ParsePolicy(spec)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	if _, err := ParsePolicy("random"); !errors.Is(err, core.ErrBadTopology) {
		t.Errorf("ParsePolicy(random) = %v, want ErrBadTopology", err)
	}
}
