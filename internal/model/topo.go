package model

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/topo"
)

// TopoPrediction is Alg1Time evaluated against a concrete interconnect: the
// same §5.1 cost accounting, but with each collective phase priced at the
// worst effective (α, β) its fiber pairs see through the topology's routes
// and contention. Comparing Total against FlatTotal quantifies how much of
// the paper's memory-independent bound — attainable with constant 3 on the
// fully connected model — survives on the fabric.
type TopoPrediction struct {
	Prediction
	// FlatTotal is the uniform-model Alg1Time total under the same Config —
	// the cost the paper's analysis promises on a dedicated-link network.
	FlatTotal float64
	// Slowdown is Total()/FlatTotal: 1 on Flat, > 1 once routes share
	// contended links. It is the factor by which the constant in front of
	// the memory-independent bound degrades.
	Slowdown float64
	// Topology and Placement name the fabric and embedding evaluated.
	Topology  string
	Placement string
}

// String renders the prediction with its degradation factor.
func (p TopoPrediction) String() string {
	return fmt.Sprintf("%s on %s/%s: %s (flat %.6g, slowdown %.4g)",
		"alg1", p.Topology, p.Placement, p.Prediction.String(), p.FlatTotal, p.Slowdown)
}

// Alg1TimeTopo predicts Algorithm 1's execution time on grid g when the
// machine's interconnect is net's topology rather than the paper's fully
// connected network. Each collective phase runs over fibers of one grid
// axis; the prediction charges that phase's latency and bandwidth at the
// worst per-message (α, β) among the ordered rank pairs of any fiber — the
// pair whose route crosses the most contended links gates the collective,
// since every step of a ring or doubling schedule is only as fast as its
// slowest exchange. On a Flat network every pair charges exactly
// (cfg.Alpha, cfg.Beta) and the result collapses to Alg1Time.
//
// The grid must match net's rank count; a mismatch wraps
// core.ErrBadTopology.
func Alg1TimeTopo(d core.Dims, g grid.Grid, cfg machine.Config, alg collective.Algorithm, net *topo.Network) (TopoPrediction, error) {
	if g.Size() != net.P() {
		return TopoPrediction{}, fmt.Errorf("model: grid %v has %d ranks, network has %d: %w",
			g, g.Size(), net.P(), core.ErrBadTopology)
	}
	flat := Alg1Time(d, g, cfg, alg)

	p1, p2, p3 := float64(g.P1), float64(g.P2), float64(g.P3)
	frac := func(p float64) float64 {
		if p <= 1 {
			return 0
		}
		return 1 - 1/p
	}
	phases := []struct {
		axis   grid.Axis
		extent int
		words  float64 // per-rank words the phase moves
	}{
		{grid.Axis3, g.P3, frac(p3) * d.SizeA() / (p1 * p2)},
		{grid.Axis1, g.P1, frac(p1) * d.SizeB() / (p2 * p3)},
		{grid.Axis2, g.P2, frac(p2) * d.SizeC() / (p1 * p3)},
	}

	pred := TopoPrediction{
		Topology:  net.Topology().Name(),
		Placement: net.Placement().Policy.String(),
		FlatTotal: flat.Total(),
	}
	pred.Compute = flat.Compute
	pred.Words = flat.Words
	pred.Messages = flat.Messages
	for _, ph := range phases {
		if ph.extent <= 1 {
			continue
		}
		alphaW, betaW := worstFiberCharge(g, ph.axis, net)
		steps := collectiveSteps(ph.extent, alg)
		pred.Latency += alphaW * steps
		pred.Bandwidth += betaW * ph.words
	}
	if pred.FlatTotal > 0 {
		pred.Slowdown = pred.Total() / pred.FlatTotal
	} else {
		pred.Slowdown = 1
	}
	return pred, nil
}

// worstFiberCharge returns the largest per-message α and β any ordered rank
// pair within any fiber of the axis is charged. The maxima are taken
// independently: latency and bandwidth may be gated by different pairs.
//
// Two exact shortcuts keep the sweep affordable at datacenter P: a uniform
// network (Flat) charges every pair identically, so one pair answers for
// all; and on fabrics with translation symmetry, fibers in the same
// symmetry class (topo.FiberClassKey) see identical charge sets, so only
// one fiber per class is priced — on a torus that is a single fiber per
// axis regardless of P.
func worstFiberCharge(g grid.Grid, axis grid.Axis, net *topo.Network) (alpha, beta float64) {
	k := g.FiberLen(axis)
	if k <= 1 {
		return 0, 0
	}
	if net.Uniform() {
		fiber := make([]int, k)
		g.FiberInto(fiber, 0, axis)
		return net.Charge(fiber[0], fiber[1])
	}
	fiber := make([]int, k)
	seen := make([]bool, g.Size())
	classes := make(map[string]struct{})
	for r := 0; r < g.Size(); r++ {
		if seen[r] {
			continue
		}
		g.FiberInto(fiber, r, axis)
		for _, m := range fiber {
			seen[m] = true
		}
		if key, ok := topo.FiberClassKey(net, fiber); ok {
			if _, dup := classes[key]; dup {
				continue
			}
			classes[key] = struct{}{}
		}
		for _, s := range fiber {
			for _, d := range fiber {
				if s == d {
					continue
				}
				a, b := net.Charge(s, d)
				if a > alpha {
					alpha = a
				}
				if b > beta {
					beta = b
				}
			}
		}
	}
	return alpha, beta
}
