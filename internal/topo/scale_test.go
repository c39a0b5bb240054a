package topo

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// scaleSpecs maps rank counts to every Parse-able non-flat spec shape at
// that size, covering even and odd torus extents (forward/backward ring
// asymmetry), full-bisection and skinny trees, and two-level nodes.
func scaleSpecs(p int) []string {
	switch p {
	case 12:
		return []string{"twolevel=4", "torus=3x4", "torus=12"}
	case 64:
		return []string{"twolevel=8", "torus=4x4x4", "torus=8x8", "fattree=4x3", "tree=4x3", "fattree=8x2"}
	case 100:
		return []string{"twolevel=10", "torus=5x20", "torus=10x10", "torus=5x5x4"}
	case 256:
		return []string{"twolevel=16", "torus=4x8x8", "fattree=4x4", "tree=2x8"}
	case 2048:
		return []string{"twolevel=32", "torus=8x16x16", "fattree=2x11", "tree=2x11"}
	default:
		return nil
	}
}

func mustParse(t *testing.T, spec string, p int) Topology {
	t.Helper()
	tp, err := Parse(spec, p, testLink)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestAnalyticLinkFlowsMatchEnumerated holds every fabric's closed-form
// LinkFlows against the all-pairs route enumeration.
func TestAnalyticLinkFlowsMatchEnumerated(t *testing.T) {
	for _, p := range []int{12, 64, 100, 256} {
		for _, spec := range append([]string{"flat"}, scaleSpecs(p)...) {
			tp := mustParse(t, spec, p)
			got := make([]int, tp.NumLinks())
			tp.LinkFlows(got)
			want := make([]int, tp.NumLinks())
			enumerateFlows(tp, want)
			for l := range want {
				if got[l] != want[l] {
					t.Fatalf("%s at P=%d: link %d analytic flows %d, enumerated %d", spec, p, l, got[l], want[l])
				}
			}
		}
	}
}

// TestWalkChargeMatchesRoute pins every fabric × placement's charges to
// the price of Route's links taken in order, under the closed-form link
// loads TestAnalyticLinkFlowsMatchEnumerated holds to the enumeration: the
// O(hops) walk must return exactly the same floats as pricing the
// materialized route, so a simulation's critical path cannot depend on
// which of the two computes it.
func TestWalkChargeMatchesRoute(t *testing.T) {
	for _, p := range []int{12, 64, 100, 256, 2048} {
		// Full pair sweeps at small P, strided sampling at 2048.
		ss, ds := 1, 1
		if p > 256 {
			ss, ds = 7, 13
		}
		for _, spec := range scaleSpecs(p) {
			tp := mustParse(t, spec, p)
			flows := make([]int, tp.NumLinks())
			tp.LinkFlows(flows)
			for _, pol := range []Policy{Contiguous, RoundRobin} {
				checkRouteCharges(t, mustNetwork(t, spec, p, pol), flows, ss, ds)
			}
		}
	}
}

// FuzzFabricAgreement holds every fabric Parse accepts to its route
// enumeration: Parse fails only with ErrBadTopology, and on fabrics of at
// most 64 ranks and 4096 links LinkFlows equals the enumerated link loads
// and every pair's Charge the route-priced reference, under either
// placement.
func FuzzFabricAgreement(f *testing.F) {
	seeds := []struct {
		spec string
		p    int
		rr   bool
	}{
		{"torus=64x288230376151711745", 64, false}, // extent product wraps to 64
		{"twolevel=131072", 131072, false},         // 2 + P·g link ids
		{"flat", 16, true},
		{"twolevel=4", 12, true},
		{"torus=3x4", 12, true},
		{"torus=4x4x4", 64, false},
		{"torus=1", 1, false},
		{"fattree=4x3", 64, true},
		{"tree=2x5", 32, true},
		{"fattree=8x1", 8, false},
	}
	for _, sd := range seeds {
		f.Add(sd.spec, sd.p, sd.rr)
	}
	f.Fuzz(func(t *testing.T, spec string, p int, rr bool) {
		tp, err := Parse(spec, p, testLink)
		if err != nil {
			if !errors.Is(err, core.ErrBadTopology) {
				t.Fatalf("Parse(%q, %d) = %v, want ErrBadTopology", spec, p, err)
			}
			return
		}
		if p > 64 || tp.NumLinks() > 4096 {
			return
		}
		got := make([]int, tp.NumLinks())
		tp.LinkFlows(got)
		want := make([]int, tp.NumLinks())
		enumerateFlows(tp, want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s at P=%d: LinkFlows %v, enumerated %v", spec, p, got, want)
		}
		pol := Contiguous
		if rr {
			pol = RoundRobin
		}
		n, err := NewNetwork(tp, pol)
		if err != nil {
			t.Fatal(err)
		}
		checkRouteCharges(t, n, want, 1, 1)
	})
}

// TestTranslationEquivariance verifies the Translatable contract the
// symmetry-class shortcuts rely on: translating both endpoints of a pair
// translates every link of its route, link by link in order.
func TestTranslationEquivariance(t *testing.T) {
	for _, spec := range []string{"torus=3x4", "torus=4x4x4", "torus=5x5x4", "twolevel=8"} {
		p := map[string]int{"torus=3x4": 12, "torus=4x4x4": 64, "torus=5x5x4": 100, "twolevel=8": 64}[spec]
		tp := mustParse(t, spec, p)
		tr, ok := tp.(Translatable)
		if !ok {
			t.Fatalf("%s does not implement Translatable", spec)
		}
		var base, shifted []int
		for from := 0; from < p; from += 3 {
			for to := 0; to < p; to += 5 {
				tok, ok := tr.Translation(from, to)
				if !ok {
					continue
				}
				if got := tr.TranslateEndpoint(from, tok); got != to {
					t.Fatalf("%s: Translation(%d, %d) token moves to %d", spec, from, to, got)
				}
				if got := tr.TranslateEndpoint(to, tr.Invert(tok)); got != from {
					t.Fatalf("%s: Invert does not undo Translation(%d, %d)", spec, from, to)
				}
				for d := 0; d < p; d += 7 {
					base = tp.Route(base[:0], from, d)
					shifted = tp.Route(shifted[:0], tr.TranslateEndpoint(from, tok), tr.TranslateEndpoint(d, tok))
					if len(base) != len(shifted) {
						t.Fatalf("%s: route %d→%d translates to a different length", spec, from, d)
					}
					for i, l := range base {
						if tr.TranslateLink(l, tok) != shifted[i] {
							t.Fatalf("%s: hop %d of route %d→%d breaks equivariance under token %d", spec, i, from, d, tok)
						}
					}
				}
			}
		}
	}
}

// TestCongestMatchesExhaustive holds the symmetry-class congestion path
// against the original full enumeration for every fabric × placement over
// all divisor triples of each rank count — flows, busiest-link load, χ,
// and hop statistics must agree exactly.
func TestCongestMatchesExhaustive(t *testing.T) {
	for _, p := range []int{12, 64, 100} {
		specs := append([]string{"flat"}, scaleSpecs(p)...)
		for _, g := range divisorTriples(p) {
			for _, spec := range specs {
				tp := mustParse(t, spec, p)
				for _, pol := range []Policy{Contiguous, RoundRobin} {
					n, err := NewNetwork(tp, pol)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Congest(g, n)
					if err != nil {
						t.Fatal(err)
					}
					want := congestExhaustive(g, n)
					if len(got.Phases) != len(want.Phases) {
						t.Fatalf("%s/%v on %v: phase count %d != %d", spec, pol, g, len(got.Phases), len(want.Phases))
					}
					for i := range got.Phases {
						if got.Phases[i] != want.Phases[i] {
							t.Fatalf("%s/%v on %v, %s:\n scaled     %+v\n exhaustive %+v",
								spec, pol, g, want.Phases[i].Phase, got.Phases[i], want.Phases[i])
						}
					}
				}
			}
		}
	}
}

// TestCongestAtScale checks the symmetry-class path handles a P=65536
// torus and two-level fabric in well under a second of work per report,
// with the known closed-form answers.
func TestCongestAtScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("large-P congestion reports")
	}
	const p = 1 << 16
	g := grid.Grid{P1: 64, P2: 32, P3: 32}
	for _, spec := range []string{"twolevel=32", "torus=16x16x16x16", "fattree=4x8", "flat"} {
		n, err := NewNetwork(mustParse(t, spec, p), Contiguous)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Congest(g, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range []int{g.P3, g.P1, g.P2} { // phase order: Axis3, Axis1, Axis2
			ph := rep.Phases[i]
			if ph.Flows != p*(k-1) {
				t.Errorf("%s %s: Flows = %d, want %d", spec, ph.Phase, ph.Flows, p*(k-1))
			}
			if ph.MaxChi < 1 {
				t.Errorf("%s %s: MaxChi = %v < 1", spec, ph.Phase, ph.MaxChi)
			}
		}
		// Contiguous keeps each Axis3 fiber (32 consecutive ranks) inside
		// one 32-rank node: the A All-Gather runs on dedicated intra links.
		if spec == "twolevel=32" && rep.Phases[0].MaxChi != 1 {
			t.Errorf("twolevel=32 contiguous allgather-A MaxChi = %v, want 1", rep.Phases[0].MaxChi)
		}
		if spec == "flat" && rep.MaxChi() != 1 {
			t.Errorf("flat MaxChi = %v, want 1", rep.MaxChi())
		}
	}
}
