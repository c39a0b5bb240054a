package algs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/matrix"
)

// CARMA runs the recursive communication-avoiding algorithm of Demmel et
// al. 2013 (§2.4 of the paper) for P = 2^t processors. CARMA recursively
// splits the largest of the three dimensions in half, halving the processor
// group with it (BFS steps). Because every branch at a given depth has the
// same shape, the recursion's leaf bricks tile a regular 2^a×2^b×2^c grid
// with a+b+c = t, so the execution reduces to Algorithm 1's data movement
// on the greedily chosen grid — which is how CARMA achieves the asymptotic
// bounds in all three cases without solving the §5.2 optimization. Its
// constant factor can exceed the optimum when the greedy halving sequence
// diverges from the analytic grid; the ablation benchmarks quantify that
// gap.
func CARMA(a, b *matrix.Dense, p int, opts Opts) (*Result, error) {
	d, err := dimsOf(a, b, p, opts)
	if err != nil {
		return nil, err
	}
	if p&(p-1) != 0 {
		return nil, fmt.Errorf("algs: CARMA needs a power-of-two processor count, got %d: %w", p, core.ErrBadProcessorCount)
	}
	g, err := CARMAGrid(d, p)
	if err != nil {
		return nil, err
	}
	opts.Grid = g
	return run3D("CARMA", a, b, p, opts, true)
}

// CARMAGrid returns the processor grid produced by CARMA's recursive
// splitting rule: t = log₂(P) halving steps, each applied to the currently
// largest dimension (ties broken toward the earlier of n1, n2, n3, matching
// a deterministic depth-first implementation).
func CARMAGrid(d core.Dims, p int) (grid.Grid, error) {
	if p <= 0 || p&(p-1) != 0 {
		return grid.Grid{}, fmt.Errorf("algs: CARMAGrid needs a power of two, got %d: %w", p, core.ErrBadProcessorCount)
	}
	dims := [3]float64{float64(d.N1), float64(d.N2), float64(d.N3)}
	splits := [3]int{1, 1, 1}
	for rem := p; rem > 1; rem /= 2 {
		largest := 0
		for i := 1; i < 3; i++ {
			if dims[i] > dims[largest] {
				largest = i
			}
		}
		dims[largest] /= 2
		splits[largest] *= 2
	}
	g := grid.Grid{P1: splits[0], P2: splits[1], P3: splits[2]}
	if g.P1 > d.N1 || g.P2 > d.N2 || g.P3 > d.N3 {
		return grid.Grid{}, fmt.Errorf("algs: CARMA grid %v exceeds dims %v: %w", g, d, core.ErrGridMismatch)
	}
	return g, nil
}
