// Package model provides closed-form α-β-γ execution-time predictions for
// the paper's Algorithm 1 and derived strong-scaling analyses (speedup,
// efficiency, and the processor count at which communication overtakes
// computation). The predictions follow §5.1's cost accounting exactly —
// per collective, (p−1 or ⌈log₂ p⌉)·α latency, (1 − 1/p)·w·β bandwidth,
// and (1 − 1/p)·w·γ reduction arithmetic — and the tests verify that they
// match the simulator's critical path to machine precision on conforming
// configurations, tying the analytic and measured halves of the repository
// together.
package model

import (
	"fmt"
	"math"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
)

// Prediction decomposes Algorithm 1's predicted execution time.
type Prediction struct {
	// Compute is γ·(local multiply-adds + reduction additions).
	Compute float64
	// Bandwidth is β·(communicated words per processor).
	Bandwidth float64
	// Latency is α·(messages per processor).
	Latency float64
	// Words is the communicated words per processor (the Theorem 3
	// quantity).
	Words float64
	// Messages is the per-processor message count.
	Messages float64
}

// Total returns Compute + Bandwidth + Latency.
func (p Prediction) Total() float64 { return p.Compute + p.Bandwidth + p.Latency }

// String renders the decomposition.
func (p Prediction) String() string {
	return fmt.Sprintf("total %.6g (compute %.6g, bandwidth %.6g, latency %.6g; %.0f words, %.0f msgs)",
		p.Total(), p.Compute, p.Bandwidth, p.Latency, p.Words, p.Messages)
}

// collectiveSteps returns the per-rank message count of an All-Gather or
// Reduce-Scatter over p ranks for the given algorithm family (ring: p−1;
// recursive doubling/halving: log₂ p), choosing the family by
// collective.UseRecursive as the groups do.
func collectiveSteps(p int, alg collective.Algorithm) float64 {
	if p <= 1 {
		return 0
	}
	if collective.UseRecursive(p, alg) {
		return math.Log2(float64(p))
	}
	return float64(p - 1)
}

// Alg1Time predicts Algorithm 1's execution time on grid g under cfg with
// the given collective family. The prediction is exact (equal to the
// simulated critical path) when the grid divides the matrix dimensions and
// every block divides its fiber size; otherwise it is the balanced-load
// approximation.
func Alg1Time(d core.Dims, g grid.Grid, cfg machine.Config, alg collective.Algorithm) Prediction {
	p1, p2, p3 := float64(g.P1), float64(g.P2), float64(g.P3)
	aBlk := d.SizeA() / (p1 * p2)
	bBlk := d.SizeB() / (p2 * p3)
	dBlk := d.SizeC() / (p1 * p3)
	frac := func(p float64) float64 {
		if p <= 1 {
			return 0
		}
		return 1 - 1/p
	}
	words := frac(p3)*aBlk + frac(p1)*bBlk + frac(p2)*dBlk
	msgs := collectiveSteps(g.P3, alg) + collectiveSteps(g.P1, alg) + collectiveSteps(g.P2, alg)
	flops := d.Flops()/float64(g.Size()) + frac(p2)*dBlk
	return Prediction{
		Compute:   cfg.Gamma * flops,
		Bandwidth: cfg.Beta * words,
		Latency:   cfg.Alpha * msgs,
		Words:     words,
		Messages:  msgs,
	}
}

// SerialTime returns the single-processor execution time γ·mnk.
func SerialTime(d core.Dims, cfg machine.Config) float64 {
	return cfg.Gamma * d.Flops()
}

// CommBoundProcessors returns the processor count beyond which Algorithm
// 1's bandwidth term exceeds its compute term (using the Case 3 bound and
// optimal grids): γ·mnk/P = β·3(mnk/P)^{2/3} gives
// P* = (γ/(3β))³·mnk — past it, adding processors buys little, the
// communication-bound regime the lower bounds make unavoidable.
func CommBoundProcessors(d core.Dims, cfg machine.Config) float64 {
	if cfg.Beta == 0 {
		return math.Inf(1)
	}
	r := cfg.Gamma / (3 * cfg.Beta)
	return r * r * r * d.Flops()
}
