package topo

import (
	"testing"

	"repro/internal/grid"
)

// enumerateFlows routes every ordered endpoint pair of t, accumulating
// per-link crossing counts into flows (NumLinks entries, zeroed by the
// caller). It is the quadratic reference the closed-form LinkFlows is held
// to. The
// placement does not matter: a placement is a bijection rank→endpoint, so
// summing routes over all ordered rank pairs visits exactly the ordered
// endpoint pairs.
func enumerateFlows(t Topology, flows []int) {
	var buf []int
	for s := 0; s < t.P(); s++ {
		for d := 0; d < t.P(); d++ {
			buf = t.Route(buf[:0], s, d)
			for _, l := range buf {
				flows[l]++
			}
		}
	}
}

// checkRouteCharges holds n's Charge for every sampled rank pair (sources
// stepped by ss, destinations by ds) to the price of Route's links taken
// in order: α summed per link, β·max(1, flows_l/(p−1)) maximized, with
// flows the reference all-to-all link loads.
func checkRouteCharges(t *testing.T, n *Network, flows []int, ss, ds int) {
	t.Helper()
	tp, eps := n.Topology(), n.Placement().ToEndpoint
	norm := max(float64(n.P()-1), 1)
	var route []int
	for s := 0; s < n.P(); s += ss {
		for d := 0; d < n.P(); d += ds {
			if s == d {
				continue
			}
			var wa, wb float64
			route = tp.Route(route[:0], eps[s], eps[d])
			for _, l := range route {
				wa += tp.Link().Alpha
				wb = max(wb, tp.Link().Beta*max(float64(flows[l])/norm, 1))
			}
			if a, b := n.Charge(s, d); a != wa || b != wb {
				t.Fatalf("%s/%v at P=%d: Charge(%d, %d) = (%v, %v), route-priced (%v, %v)",
					tp.Name(), n.Placement().Policy, n.P(), s, d, a, b, wa, wb)
			}
		}
	}
}

// congestExhaustive is the original fiber-by-fiber enumeration, the
// small-P equivalence oracle TestCongestMatchesExhaustive holds Congest's
// symmetry-class path against. It materializes load over the full link id
// space (p² for Flat), so it is only affordable at small P. The grid must
// be valid and cover n's ranks.
func congestExhaustive(g grid.Grid, n *Network) CongestionReport {
	t, pl := n.Topology(), n.Placement()
	rep := CongestionReport{
		Topology:  t.Name(),
		Placement: pl.Policy.String(),
		Grid:      g.String(),
	}
	load := make([]int, t.NumLinks())
	var route []int
	for _, phase := range alg1Phases {
		for i := range load {
			load[i] = 0
		}
		flows, totalHops, maxHops := 0, 0, 0
		fiber := make([]int, g.FiberLen(phase.axis))
		seen := make([]bool, g.Size())
		for r := 0; r < g.Size(); r++ {
			if seen[r] {
				continue
			}
			g.FiberInto(fiber, r, phase.axis)
			for _, m := range fiber {
				seen[m] = true
			}
			for _, s := range fiber {
				for _, d := range fiber {
					if s == d {
						continue
					}
					route = t.Route(route[:0], pl.ToEndpoint[s], pl.ToEndpoint[d])
					for _, l := range route {
						load[l]++
					}
					flows++
					totalHops += len(route)
					if len(route) > maxHops {
						maxHops = len(route)
					}
				}
			}
		}
		maxLoad := 0
		for _, l := range load {
			if l > maxLoad {
				maxLoad = l
			}
		}
		ph := PhaseReport{
			Phase:       phase.name,
			Axis:        phase.axis.String(),
			Flows:       flows,
			MaxLinkLoad: maxLoad,
			MaxHops:     maxHops,
		}
		fan := g.FiberLen(phase.axis) - 1
		if fan < 1 {
			fan = 1
		}
		ph.MaxChi = float64(maxLoad) / float64(fan)
		if ph.MaxChi < 1 && flows > 0 {
			ph.MaxChi = 1
		}
		if flows > 0 {
			ph.MeanHops = float64(totalHops) / float64(flows)
		}
		rep.Phases = append(rep.Phases, ph)
	}
	return rep
}
