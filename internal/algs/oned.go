package algs

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
)

// OneD runs the classical block-row algorithm: processor i owns a band of
// rows of A and computes the same band of C after All-Gathering the whole
// of B. Its communication cost is (1 − 1/P)·n2·n3 words per processor,
// which matches Theorem 3's bound exactly when the problem is in Case 1
// with n1 the largest dimension, and is suboptimal otherwise — the
// comparison experiments use it as the 1D baseline.
func OneD(a, b *matrix.Dense, p int, opts Opts) (*Result, error) {
	d, err := dimsOf(a, b, p, opts)
	if err != nil {
		return nil, err
	}
	if p > d.N1 {
		return nil, fmt.Errorf("algs: OneD needs P ≤ n1, got P=%d n1=%d: %w", p, d.N1, core.ErrBadProcessorCount)
	}
	if err := collective.CheckGroups(opts.Collective, p); err != nil {
		return nil, err
	}

	members := make([]int, p)
	for i := range members {
		members[i] = i
	}
	countsB := matrix.PartSizes(make([]int, p), d.N2*d.N3)
	return run("OneD", d, grid.Grid{P1: p, P2: 1, P3: 1}, opts, func(r *machine.Rank) []float64 {
		me := r.ID()
		// Initial distribution: row band of A (and later C) is local; B is
		// spread evenly, as packed word ranges, across all processors. The
		// rank packs its share of B straight into its slot of the gather
		// output and gathers in place.
		aBand := matrix.BlockView(a, p, 1, me, 0)
		fullB := r.GetBuffer(d.N2 * d.N3)
		loB, hiB := shareRange(len(fullB), p, me)
		r.GrowMemory(float64(aBand.Size() + hiB - loB))

		r.SetPhase(PhaseGatherB)
		var grp collective.Group
		grp.Init(r, members, 1, opts.Collective)
		grp.AllGatherVInto(b.PackRangeInto(fullB[loB:hiB], loB, hiB), countsB, fullB)
		r.SetPhase("")
		r.GrowMemory(float64(len(fullB) - (hiB - loB)))

		// C's band accumulates straight into the chunk the rank returns.
		gatheredB := matrix.Wrap(d.N2, d.N3, fullB)
		myC := make([]float64, aBand.Rows()*d.N3)
		cBand := matrix.Wrap(aBand.Rows(), d.N3, myC)
		localMulAdd(r, &cBand, &aBand, &gatheredB)
		r.PutBuffer(fullB)
		r.GrowMemory(float64(len(myC)))
		return myC
	})
}
