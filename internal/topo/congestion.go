package topo

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/grid"
)

// PhaseReport measures how one of Algorithm 1's collective phases loads the
// fabric: the phase's flows are every ordered rank pair within each fiber of
// its axis (the superset of the pairs any collective schedule on that fiber
// uses), routed through the placement.
type PhaseReport struct {
	// Phase names the collective ("allgather-A", "allgather-B", "reduce-C").
	Phase string `json:"phase"`
	// Axis is the grid axis whose fibers the collective runs along.
	Axis string `json:"axis"`
	// Flows is the number of ordered pairs routed.
	Flows int `json:"flows"`
	// MaxLinkLoad is the largest number of the phase's flows crossing any
	// single link.
	MaxLinkLoad int `json:"max_link_load"`
	// MaxChi is MaxLinkLoad normalized by fiber fan-in (fiber length − 1):
	// the factor by which the busiest link is oversubscribed relative to a
	// dedicated per-pair network, ≥ 1 whenever the phase communicates.
	MaxChi float64 `json:"max_chi"`
	// MeanHops and MaxHops are route-length statistics over the flows.
	MeanHops float64 `json:"mean_hops"`
	MaxHops  int     `json:"max_hops"`
}

// CongestionReport is the per-phase fabric load of Algorithm 1 on one
// grid/topology/placement combination.
type CongestionReport struct {
	Topology  string        `json:"topology"`
	Placement string        `json:"placement"`
	Grid      string        `json:"grid"`
	Phases    []PhaseReport `json:"phases"`
}

// MaxChi returns the worst per-phase oversubscription factor.
func (r CongestionReport) MaxChi() float64 {
	m := 1.0
	for _, ph := range r.Phases {
		if ph.MaxChi > m {
			m = ph.MaxChi
		}
	}
	return m
}

// alg1Phases pairs each collective of Algorithm 1 with the axis its
// communicator fibers run along (§5: the A panel is gathered across Axis3,
// the B panel across Axis1, and C contributions are reduced across Axis2).
var alg1Phases = []struct {
	name string
	axis grid.Axis
}{
	{"allgather-A", grid.Axis3},
	{"allgather-B", grid.Axis1},
	{"reduce-C", grid.Axis2},
}

// Congest analyzes Algorithm 1's three collective phases on grid g embedded
// into net's topology under net's placement, returning the per-phase
// busiest-link load and route-length statistics. The network must have
// g.Size() ranks; a mismatch wraps core.ErrBadTopology.
//
// On Translatable fabrics, fibers are grouped into translation-symmetry
// classes and only one representative per class is routed; the
// representative's link loads are stamped back under each member's inverse
// translation, which is exact (not sampled) by route equivariance. On a
// torus every fiber of an axis is one class, so the per-phase cost drops
// from P·(k−1)·hops route walks to k·(k−1)·hops plus an O(touched links)
// stamp per fiber. Flat is answered in closed form without touching its p²
// link id space. Fabrics with neither structure (the fat-tree's cable hash
// breaks translation symmetry) are enumerated fiber by fiber, which stays
// O(P·k·hops) — linear in P — because loads only ever accumulate into an
// O(links) array.
func Congest(g grid.Grid, net *Network) (CongestionReport, error) {
	if err := g.Validate(); err != nil {
		return CongestionReport{}, err
	}
	t, pl := net.topo, net.pl
	if g.Size() != net.p {
		return CongestionReport{}, fmt.Errorf("topo: grid %v has %d ranks, network on %s has %d: %w",
			g, g.Size(), t.Name(), net.p, core.ErrBadTopology)
	}
	rep := CongestionReport{
		Topology:  t.Name(),
		Placement: pl.Policy.String(),
		Grid:      g.String(),
	}
	if _, ok := t.(*Flat); ok {
		for _, phase := range alg1Phases {
			rep.Phases = append(rep.Phases, flatPhase(g, phase.name, phase.axis))
		}
		return rep, nil
	}
	tr, trOK := t.(Translatable)
	load := make([]int, t.NumLinks())
	for _, phase := range alg1Phases {
		rep.Phases = append(rep.Phases, congestPhase(g, t, tr, trOK, pl, phase.name, phase.axis, load))
	}
	return rep, nil
}

// flatPhase answers a phase on the fully connected fabric in closed form:
// every pair owns a dedicated one-hop link, so each of the
// g.Size()·(k−1) flows loads its own link exactly once.
func flatPhase(g grid.Grid, name string, axis grid.Axis) PhaseReport {
	ph := PhaseReport{Phase: name, Axis: axis.String()}
	if k := g.FiberLen(axis); k > 1 {
		ph.Flows = g.Size() * (k - 1)
		ph.MaxLinkLoad = 1
		ph.MaxChi = 1
		ph.MeanHops = 1
		ph.MaxHops = 1
	}
	return ph
}

// congestPhase routes one phase's fibers into load (reused scratch of
// NumLinks entries) and summarizes the result.
func congestPhase(g grid.Grid, t Topology, tr Translatable, trOK bool, pl Placement, name string, axis grid.Axis, load []int) PhaseReport {
	for i := range load {
		load[i] = 0
	}
	k := g.FiberLen(axis)
	flows, totalHops, maxHops := 0, 0, 0
	fiber := make([]int, k)
	eps := make([]int, k)
	seen := make([]bool, g.Size())
	var route []int

	// One entry per translation-symmetry class of this phase's fibers:
	// the canonical representative's endpoints, and the inverse tokens
	// mapping its link loads back onto each member fiber.
	type fiberClass struct {
		eps           []int
		shifts        []int
		links, counts []int
		hops, maxHops int
	}
	classes := make(map[string]*fiberClass)
	var order []*fiberClass

	for r := 0; r < g.Size(); r++ {
		if seen[r] {
			continue
		}
		g.FiberInto(fiber, r, axis)
		for _, m := range fiber {
			seen[m] = true
		}
		for i, m := range fiber {
			eps[i] = pl.ToEndpoint[m]
		}
		if trOK && k > 1 {
			if key, canon, inv, ok := canonicalFiber(tr, eps); ok {
				c := classes[key]
				if c == nil {
					c = &fiberClass{eps: canon}
					classes[key] = c
					order = append(order, c)
				}
				c.shifts = append(c.shifts, inv)
				continue
			}
		}
		// No usable symmetry: route this fiber directly.
		for _, s := range eps {
			for _, d := range eps {
				if s == d {
					continue
				}
				route = t.Route(route[:0], s, d)
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

	// Route each class's representative once, then stamp its loads under
	// every member's inverse translation. Loads are integer sums, so the
	// map's iteration order never shows in the result.
	for _, c := range order {
		acc := make(map[int]int)
		for _, s := range c.eps {
			for _, d := range c.eps {
				if s == d {
					continue
				}
				route = t.Route(route[:0], s, d)
				for _, l := range route {
					acc[l]++
				}
				c.hops += len(route)
				if len(route) > c.maxHops {
					c.maxHops = len(route)
				}
			}
		}
		c.links = make([]int, 0, len(acc))
		c.counts = make([]int, 0, len(acc))
		for l, cnt := range acc {
			c.links = append(c.links, l)
			c.counts = append(c.counts, cnt)
		}
		for _, shift := range c.shifts {
			for i, l := range c.links {
				load[tr.TranslateLink(l, shift)] += c.counts[i]
			}
		}
		flows += len(c.shifts) * k * (k - 1)
		totalHops += len(c.shifts) * c.hops
		if c.maxHops > maxHops {
			maxHops = c.maxHops
		}
	}

	maxLoad := 0
	for _, l := range load {
		if l > maxLoad {
			maxLoad = l
		}
	}
	ph := PhaseReport{
		Phase:       name,
		Axis:        axis.String(),
		Flows:       flows,
		MaxLinkLoad: maxLoad,
		MaxHops:     maxHops,
	}
	// A dedicated per-pair network carries one flow per link; within a
	// fiber of length k each endpoint has k−1 partners, so normalize the
	// busiest link by that fan-in.
	fan := k - 1
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
	return ph
}
